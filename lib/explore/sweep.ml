module Pool = Mfu_util.Pool
module Writer = Mfu_util.Writer
module Json = Mfu_util.Json
module Stats = Mfu_util.Stats
module Sim_types = Mfu_sim.Sim_types
module Metrics = Sim_types.Metrics
module Config = Mfu_isa.Config
module Livermore = Mfu_loops.Livermore

type stats = {
  total : int;
  computed : int;
  reused : int;
  quarantined : int;
  inferred : int;
  pruned : int;
  deferred : int;
  stolen : int;
  published : int;
  writer_s : float;
  drain_wait_s : float;
}

type guided = { frontier_stop : bool }

let meta_of_point (p : Axes.point) =
  [
    ("machine", Json.String (Axes.machine_to_string p.Axes.machine));
    ("config", Json.String (Config.name p.Axes.config));
    ("loop", Json.Int p.Axes.loop);
    ("scale", Json.Int p.Axes.scale);
    ("sim_version", Json.String Axes.sim_version);
  ]

let keyed points =
  let keyed = List.map (fun p -> (p, Axes.key p)) points in
  let seen = Hashtbl.create (List.length keyed) in
  List.iter
    (fun (_, k) ->
      if Hashtbl.mem seen k then
        invalid_arg ("Sweep: duplicate point key " ^ k);
      Hashtbl.add seen k ())
    keyed;
  keyed

(* One validated lookup per key: the hits with their results, the
   points to compute (corrupt entries quarantine and count as missing)
   and the number quarantined. *)
let lookup ~store keyed =
  let quarantined = ref 0 in
  let hits, missing =
    List.partition_map
      (fun ((_, k) as pk) ->
        match Store.lookup store ~key:k with
        | `Hit r -> Either.Left (pk, r)
        | `Miss -> Either.Right pk
        | `Corrupt ->
            incr quarantined;
            Either.Right pk)
      keyed
  in
  (hits, missing, !quarantined)

(* Publication runs on the writer domain, beside simulation. Each
   submitted closure publishes some entries and returns how many; the
   counts are read after the drain. *)
type publisher = {
  batch : Writer.batch;
  mutable entries : int;
  mutable writer_s : float;
  mutable drain_wait_s : float;
}

let publisher () =
  { batch = Writer.batch (); entries = 0; writer_s = 0.; drain_wait_s = 0. }

let submit pub f =
  Writer.submit pub.batch (fun () ->
      let t0 = Unix.gettimeofday () in
      let n = f () in
      pub.entries <- pub.entries + n;
      pub.writer_s <- pub.writer_s +. (Unix.gettimeofday () -. t0))

(* Run [f], then wait for every publication it submitted, whatever [f]
   did: a run that fails part-way leaves what it computed published,
   and only then raises. A publication failure raises here. *)
let drained pub f =
  match f () with
  | v ->
      let t0 = Unix.gettimeofday () in
      Writer.drain pub.batch;
      pub.drain_wait_s <- Unix.gettimeofday () -. t0;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      (try Writer.drain pub.batch with _ -> ());
      Printexc.raise_with_backtrace e bt

(* -- point resolution ------------------------------------------------------ *)

type resolution = {
  results : (string * Sim_types.result) list;
  computed : int;
  deferred : int;
  taken_over : int;
  aborted : int;
  failure : exn option;
}

(* Consecutive points a pool worker claims at once: up to 8, fewer
   when 8 would leave a worker idle, so a short list of long points
   still spreads over every worker. A worker simulates and publishes
   its claim in order, so with one worker the writer publishes in the
   caller's order, and with several each claim stays in order. *)
let claim_size ~jobs n = max 1 (min 8 ((n + jobs - 1) / jobs))

let resolve_published ?jobs ?lease ?(simulate = fun p -> Axes.run p)
    ?(order = Fun.id) ?(settled = fun _ _ _ _ -> ())
    ?(aborted = fun _ _ _ -> ()) ~store misses =
  let pub = publisher () in
  let release k =
    match lease with Some l -> Lease.release l ~key:k | None -> ()
  in
  let given_up = Atomic.make 0 in
  (* A point given up on: its lease goes back, and the caller hears
     why, which [failed] keeps. *)
  let abort failed e (p, k) =
    failed := Some e;
    release k;
    Atomic.incr given_up;
    aborted p k e
  in
  (* Simulate a point, then hand its publication to the writer: store
     entry, then lease release, then the caller's callback, so a
     released key and a reported point are on disk. *)
  let job (((p, k) as pk), failed) =
    let r = simulate p in
    (* Hand the runtime lock to a thread of this domain waiting for it,
       such as one streaming the writer's events, rather than at the
       50 ms tick; a no-op when none waits. *)
    Thread.yield ();
    submit pub (fun () ->
        match Store.put ~meta:(meta_of_point p) store ~key:k r with
        | () ->
            release k;
            settled `Computed p k r;
            1
        | exception e ->
            abort failed e pk;
            0);
    r
  in
  (* Every job so far, latest first. *)
  let jobs_run = ref [] in
  let results = ref [] in
  let finish ((((_, k) as pk), failed) as j) outcome =
    jobs_run := j :: !jobs_run;
    match outcome with
    | Ok r -> results := (k, r) :: !results
    | Error e -> abort failed e pk
  in
  let deferred = ref 0 in
  let taken_over = ref 0 in
  drained pub (fun () ->
      (* Claim what we can; keys another process holds wait for the
         settle below. *)
      let mine, held =
        match lease with
        | None -> (misses, [])
        | Some l ->
            List.combine misses
              (Lease.try_acquire_many l (List.map snd misses))
            |> List.partition_map (function
                 | pk, Lease.Acquired -> Either.Left pk
                 | pk, Lease.Held _ -> Either.Right pk)
      in
      let mine = List.map (fun pk -> (pk, ref None)) (order mine) in
      let jobs =
        max 1 (match jobs with Some j -> j | None -> Pool.current_jobs ())
      in
      let outcomes =
        Pool.try_map ~jobs ~chunk:(claim_size ~jobs (List.length mine)) job mine
      in
      List.iter2 finish mine outcomes;
      (* Settle the keys other processes hold. A held key normally
         resolves by its owner's entry appearing in the store; an
         expired lease is stolen and the point computed here — at worst
         both compute it, and idempotent publication keeps that
         harmless. *)
      let rec settle l pending =
        if pending <> [] then begin
          let wait = ref 0.05 in
          let still =
            List.filter
              (fun ((p, k) as pk) ->
                (* An owner publishes before it releases, so a key freed
                   between our lookup and our acquire is already in the
                   store: look once more before computing it. *)
                let rec go ~acquired =
                  match Store.lookup store ~key:k with
                  | `Hit r ->
                      if acquired then release k;
                      incr deferred;
                      results := (k, r) :: !results;
                      settled `Deferred p k r;
                      false
                  | (`Miss | `Corrupt) when acquired ->
                      let j = (pk, ref None) in
                      let outcome = try Ok (job j) with e -> Error e in
                      if Result.is_ok outcome then incr taken_over;
                      finish j outcome;
                      false
                  | `Miss | `Corrupt -> (
                      match Lease.try_acquire l ~key:k with
                      | Lease.Acquired -> go ~acquired:true
                      | Lease.Held { expires_in; _ } ->
                          wait := Float.min !wait expires_in;
                          true)
                in
                go ~acquired:false)
              pending
          in
          if still <> [] then Unix.sleepf (Float.max 0.01 !wait);
          settle l still
        end
      in
      Option.iter (fun l -> settle l held) lease);
  ( {
      results = !results;
      computed = pub.entries;
      deferred = !deferred;
      taken_over = !taken_over;
      aborted = Atomic.get given_up;
      failure = List.find_map (fun (_, f) -> !f) (List.rev !jobs_run);
    },
    pub )

let resolve ?jobs ?lease ?simulate ?order ?settled ?aborted ~store misses =
  fst
    (resolve_published ?jobs ?lease ?simulate ?order ?settled ?aborted ~store
       misses)

(* -- guided mode -------------------------------------------------------------- *)

(* Machine-level equivalence certificates: every machine in
   [equiv_members m] produces a byte-identical exact result to [m] on
   every trace, and the least member of the class (by [compare]) acts as
   the representative the guided driver actually simulates.

   - An RUU with one issue unit is interconnect-invariant: the issue,
     dispatch and commit budgets all degenerate to 1 and the N-bus bank
     [slot mod 1] is always bank 0, so N-bus, 1-bus and crossbar share
     one dynamics (structural — see {!Mfu_sim.Ruu}).
   - An RUU with 2..4 issue units on the shared bus: the single bus caps
     dispatch and commit at 1 per cycle, and on every paper trace the
     issue width beyond 2 then never binds, so units 2..4 coincide.
     This one is {e empirical} — pinned by the differential check in
     test_model, not proved from the simulator's structure, which is why
     it stops at the paper grid's 4 units. *)
let equiv_members (m : Axes.machine) : Axes.machine list =
  match m with
  | Axes.Ruu ({ issue_units = 1; _ } as r) ->
      List.map
        (fun bus -> Axes.Ruu { r with bus })
        [ Sim_types.N_bus; Sim_types.One_bus; Sim_types.X_bar ]
  | Axes.Ruu ({ issue_units; bus = Sim_types.One_bus; _ } as r)
    when issue_units >= 2 && issue_units <= 4 ->
      List.map (fun issue_units -> Axes.Ruu { r with issue_units }) [ 2; 3; 4 ]
  | _ -> []

(* Window-saturation certificate: an exact metrics run of an RUU cell
   whose start-of-cycle occupancy never comes within [issue_units] of
   [ruu_size] proves the window limit never gated an insertion (the
   issue stage admits at most [issue_units] instructions per cycle, so
   every insertion attempt sees a count of at most
   [max_occ + issue_units - 1]). The certificate is bidirectional: any
   window [size'] above the same saturation point — deeper {e or}
   shallower than the certifying run — admits exactly the same
   insertions and runs the same dynamics, inheriting the result
   byte-for-byte. One caveat: under the banked N-bus the FU->RUU bank is
   [slot mod issue_units] and slot indices wrap modulo [ruu_size], so
   the certificate carries only when [issue_units] divides both sizes
   (bank assignment then depends only on the instruction's logical
   index). The shared bus and the crossbar ignore the slot entirely and
   carry unconditionally. *)
let saturation_covers ~units ~bus ~size ~max_occ ~size' =
  max_occ + units < size
  && max_occ + units < size'
  &&
  match bus with
  | Sim_types.One_bus | Sim_types.X_bar -> true
  | Sim_types.N_bus -> size mod units = 0 && size' mod units = 0

let max_occupancy_hist (hist : int array) =
  let mx = ref 0 in
  Array.iteri (fun q n -> if n > 0 && q > !mx then mx := q) hist;
  !mx

let max_occupancy (mt : Metrics.t) = max_occupancy_hist mt.Metrics.occupancy

let loop_class loop =
  (Livermore.loop loop).Livermore.classification

let class_to_tag = function
  | Livermore.Scalar -> 0
  | Livermore.Vectorizable -> 1

let guided_run ?jobs ~resume ?progress ~store ~pub ~guided points =
  let calib0 = Mfu_model.calibration_runs () in
  let keyed = keyed points in
  let _, missing, quarantined =
    if resume then lookup ~store keyed else ([], keyed, 0)
  in
  let total = List.length keyed in
  let expected = List.length missing in
  let key_of : (Axes.point, string) Hashtbl.t = Hashtbl.create total in
  List.iter (fun (p, k) -> Hashtbl.replace key_of p k) keyed;
  let pending : (Axes.point, unit) Hashtbl.t = Hashtbl.create expected in
  List.iter (fun (p, _) -> Hashtbl.replace pending p ()) missing;
  let results : (Axes.point, Sim_types.result) Hashtbl.t =
    Hashtbl.create total
  in
  (* Twin cells of [p]: same workload cell, equivalence-class machine,
     actually present in this sweep. *)
  let twin_points (p : Axes.point) =
    List.filter_map
      (fun machine ->
        if machine = p.Axes.machine then None
        else
          let tw = { p with Axes.machine } in
          if Hashtbl.mem key_of tw then Some tw else None)
      (equiv_members p.Axes.machine)
  in
  (* The representative the driver simulates on behalf of [p]'s class:
     the least present member. *)
  let rep_of (p : Axes.point) =
    List.fold_left
      (fun best tw -> if compare tw best < 0 then tw else best)
      p (twin_points p)
  in
  let done_ = Atomic.make 0 in
  let simulated = Atomic.make 0 in
  let inferred = ref 0 in
  let report () =
    match progress with
    | Some f -> f ~done_:(Atomic.fetch_and_add done_ 1 + 1) ~total:expected
    | None -> ()
  in
  let publish (p, k) result =
    submit pub (fun () ->
        Store.put ~meta:(meta_of_point p) store ~key:k result;
        report ();
        1)
  in
  (* Main-thread resolution cascade: record a now-known exact result and
     propagate it to byte-identical twins (publishing those as inferred
     entries). Simulated points arrive already submitted for
     publication by their worker. *)
  let rec resolve ~via p result =
    if Hashtbl.mem pending p then begin
      Hashtbl.remove pending p;
      Hashtbl.replace results p result;
      (match via with
      | `Sim -> ()
      | `Infer ->
          incr inferred;
          publish (p, Hashtbl.find key_of p) result);
      cascade_twins p result
    end
  and cascade_twins p result =
    List.iter (fun tw -> resolve ~via:`Infer tw result) (twin_points p)
  in
  (* Seed reused entries and let their twins profit immediately. *)
  List.iter
    (fun (p, k) ->
      if not (Hashtbl.mem pending p) then
        match Store.find store ~key:k with
        | Some r ->
            Hashtbl.replace results p r;
            cascade_twins p r
        | None -> ())
    keyed;
  (* The surrogate's calibration corners are exact simulations the
     model pays for anyway (ranking below calibrates every pending
     context); when a corner is itself a sweep point, publish it from
     the calibration record rather than simulating it a second time.
     [instructions] is a property of the trace, so the anchors' cycle
     counts fully determine their results. The reference run also
     records its occupancy histogram, so its window-saturation
     certificate resolves every pending cell on the reference's window
     chain above the saturation point — without a single extra run. *)
  List.iter
    (fun (p, _) ->
      if Hashtbl.mem pending p then begin
        let c =
          Mfu_model.calibrate ~config:p.Axes.config ~loop:p.Axes.loop
            ~scale:p.Axes.scale p.Axes.machine
        in
        let instructions = c.Mfu_model.c_exact.Sim_types.instructions in
        if p.Axes.machine = c.Mfu_model.c_reference then
          resolve ~via:`Infer p c.Mfu_model.c_exact
        else if p.Axes.machine = Mfu_model.low_window_anchor p.Axes.machine
        then
          resolve ~via:`Infer p
            { Sim_types.cycles = c.Mfu_model.c_low_cycles; instructions }
        else if p.Axes.machine = Mfu_model.mid_window_anchor p.Axes.machine
        then
          resolve ~via:`Infer p
            { Sim_types.cycles = c.Mfu_model.c_mid_cycles; instructions }
        else if p.Axes.machine = Mfu_model.one_bus_anchor p.Axes.machine then
          resolve ~via:`Infer p
            { Sim_types.cycles = c.Mfu_model.c_one_bus_cycles; instructions }
        else if p.Axes.machine = Mfu_model.n_bus_anchor p.Axes.machine then
          resolve ~via:`Infer p
            { Sim_types.cycles = c.Mfu_model.c_n_bus_cycles; instructions }
        else
          match (p.Axes.machine, c.Mfu_model.c_reference) with
          | ( Axes.Ruu { issue_units = u; ruu_size = size'; bus; branches },
              Axes.Ruu
                {
                  issue_units = u0;
                  ruu_size = size0;
                  bus = bus0;
                  branches = br0;
                } )
            when u = u0 && bus = bus0 && branches = br0 ->
              let max_occ = max_occupancy_hist c.Mfu_model.c_occupancy in
              if saturation_covers ~units:u ~bus ~size:size0 ~max_occ ~size'
              then resolve ~via:`Infer p c.Mfu_model.c_exact
          | _ -> ()
      end)
    keyed;
  (* Window chains: all pending cells this simulated cell's saturation
     certificate could cover. *)
  let chain_mates (p : Axes.point) =
    match p.Axes.machine with
    | Axes.Ruu { issue_units; ruu_size; bus; branches } ->
        Hashtbl.fold
          (fun (q : Axes.point) () acc ->
            match q.Axes.machine with
            | Axes.Ruu
                {
                  issue_units = u';
                  ruu_size = size';
                  bus = bus';
                  branches = br';
                }
              when u' = issue_units && bus' = bus && br' = branches
                   && q.Axes.config = p.Axes.config
                   && q.Axes.loop = p.Axes.loop
                   && q.Axes.scale = p.Axes.scale ->
                (q, size') :: acc
            | _ -> acc)
          pending []
        |> fun mates -> Some (issue_units, ruu_size, bus, mates)
    | _ -> None
  in
  let apply_saturation p (mt : Metrics.t) result =
    match chain_mates p with
    | None -> ()
    | Some (units, size, bus, mates) ->
        let max_occ = max_occupancy mt in
        List.iter
          (fun (q, size') ->
            if saturation_covers ~units ~bus ~size ~max_occ ~size' then
              resolve ~via:`Infer q result)
          (List.sort compare mates)
  in
  (* Bus-conflict certificate: an N-bus run whose interconnect never
     turned a dispatch away ran the unconstrained dispatch sequence,
     which is exactly what the crossbar executes (its per-cycle cap
     equals the dispatch budget, so it can never reject) — the crossbar
     twin inherits the result byte-for-byte, and, sharing the run's
     dynamics, its occupancy: the twin's whole window chain then opens
     to the saturation certificate without the N-bus divisibility
     caveat. *)
  let apply_bus_transfer p (mt : Metrics.t) result =
    match p.Axes.machine with
    | Axes.Ruu ({ bus = Sim_types.N_bus; _ } as r)
      when mt.Metrics.bus_rejects = 0 ->
        let tw =
          { p with Axes.machine = Axes.Ruu { r with bus = Sim_types.X_bar } }
        in
        if Hashtbl.mem key_of tw then begin
          resolve ~via:`Infer tw result;
          apply_saturation tw mt result
        end
    | _ -> ()
  in
  (* Surrogate ranking of everything still to compute (calibration runs
     exact reference simulations, counted in [computed]). *)
  let ranked = Axes.rank (List.map fst missing) in
  let pred_memo : (Axes.point, float) Hashtbl.t = Hashtbl.create total in
  List.iter (fun (p, pred) -> Hashtbl.replace pred_memo p pred) ranked;
  let pred_of (p : Axes.point) =
    match Hashtbl.find_opt pred_memo p with
    | Some v -> v
    | None ->
        let v =
          Mfu_model.predict_rate ~config:p.Axes.config ~loop:p.Axes.loop
            ~scale:p.Axes.scale p.Axes.machine
        in
        Hashtbl.replace pred_memo p v;
        v
  in
  (* Pruning state (frontier-stop only): a machine pruned in a
     (class, config, scale) context has its remaining cells for that
     class's loops skipped, because some exactly-simulated machine
     already dominates its model-error-inflated upper bound. *)
  let pruned_ctx : (string * int * string * int, unit) Hashtbl.t =
    Hashtbl.create 16
  in
  let ctx_of (p : Axes.point) =
    ( Axes.machine_to_string p.Axes.machine,
      class_to_tag (loop_class p.Axes.loop),
      Config.name p.Axes.config,
      p.Axes.scale )
  in
  let is_pruned p = Hashtbl.mem pruned_ctx (ctx_of p) in
  (* Prunable contexts: for every (machine, config, scale) whose keyed
     cells cover a complete loop class, the cells of that class. *)
  let contexts : (string * int * string * int, Axes.point list) Hashtbl.t =
    Hashtbl.create 64
  in
  if guided.frontier_stop then begin
    let by_ctx = Hashtbl.create 64 in
    List.iter
      (fun (p, _) ->
        let c = ctx_of p in
        match Hashtbl.find_opt by_ctx c with
        | Some r -> r := p :: !r
        | None -> Hashtbl.add by_ctx c (ref [ p ]))
      keyed;
    Hashtbl.iter
      (fun ((_, tag, _, _) as c) cells ->
        let cls = if tag = 0 then Livermore.Scalar else Livermore.Vectorizable in
        let class_loops =
          List.map
            (fun (l : Livermore.loop) -> l.Livermore.number)
            (Livermore.of_class cls)
        in
        let covered =
          List.for_all
            (fun loop -> List.exists (fun p -> p.Axes.loop = loop) !cells)
            class_loops
        in
        if covered then Hashtbl.replace contexts c !cells)
      by_ctx
  end;
  (* One pruning sweep over the prunable contexts: a context still
     holding pending cells is pruned as soon as a fully-resolved machine
     of the same (class, config, scale) dominates its upper confidence
     bound — exact rates where the context already has them, surrogate
     prediction inflated by the family's committed worst-case error
     where it does not. Strict inequalities everywhere: an exact tie is
     never decided by the model. *)
  let prune_pass () =
    if guided.frontier_stop then begin
      (* exact class rates of fully-resolved machines, per class group *)
      let exact_done = Hashtbl.create 32 in
      Hashtbl.iter
        (fun (_, tag, config_name, scale) cells ->
          if List.for_all (fun p -> Hashtbl.mem results p) cells then begin
            let rates =
              List.map
                (fun p -> Sim_types.issue_rate (Hashtbl.find results p))
                cells
            in
            let rate = Stats.harmonic_mean rates in
            let machine = (List.hd cells).Axes.machine in
            let group = (tag, config_name, scale) in
            let entry = (Axes.cost machine, rate) in
            match Hashtbl.find_opt exact_done group with
            | Some r -> r := entry :: !r
            | None -> Hashtbl.add exact_done group (ref [ entry ])
          end)
        contexts;
      Hashtbl.iter
        (fun ((_, tag, config_name, scale) as c) cells ->
          if
            (not (Hashtbl.mem pruned_ctx c))
            && List.exists (fun p -> Hashtbl.mem pending p) cells
            (* The committed under-bound is measured on the validation
               grid, which stops at [validated_window]: a machine with a
               deeper window gets no upper confidence bound and is never
               pruned — only simulated or certificate-inferred. *)
            && Mfu_model.window_of (List.hd cells).Axes.machine
               <= Mfu_model.validated_window
          then begin
            let machine = (List.hd cells).Axes.machine in
            let slack =
              1.0 +. Mfu_model.under_bound (Mfu_model.family machine)
            in
            let ub_rates =
              List.map
                (fun p ->
                  match Hashtbl.find_opt results p with
                  | Some r -> Sim_types.issue_rate r
                  | None -> pred_of p *. slack)
                cells
            in
            let ub = Stats.harmonic_mean ub_rates in
            let cost = Axes.cost machine in
            let dominated =
              match Hashtbl.find_opt exact_done (tag, config_name, scale) with
              | None -> false
              | Some others ->
                  List.exists
                    (fun (cost', rate') ->
                      (cost' < cost && rate' >= ub)
                      || (cost' <= cost && rate' > ub))
                    !others
            in
            if dominated then begin
              Hashtbl.replace pruned_ctx c ();
              (* The representative's certificate extends to its
                 byte-identical twins: they share its exact rate at
                 equal or higher cost, so the same dominator removes
                 them from the frontier. *)
              let cell = List.hd cells in
              if rep_of cell = cell then
                List.iter
                  (fun tw -> Hashtbl.replace pruned_ctx (ctx_of tw) ())
                  (twin_points cell)
            end
          end)
        contexts
    end
  in
  let exact_sims () =
    Atomic.get simulated + (Mfu_model.calibration_runs () - calib0)
  in
  let round_size =
    let jobs = match jobs with Some j -> j | None -> Pool.current_jobs () in
    max 4 jobs
  in
  (* A crossbar cell whose N-bus twin is still going to be simulated
     waits a round: if that run turns out conflict-free, the bus
     certificate hands the crossbar its result for free, and otherwise
     the cell re-enters the very next round. The twin itself is never
     deferred, so every round still makes progress. *)
  let bus_deferred p =
    match p.Axes.machine with
    | Axes.Ruu ({ bus = Sim_types.X_bar; _ } as r) ->
        let q =
          { p with Axes.machine = Axes.Ruu { r with bus = Sim_types.N_bus } }
        in
        Hashtbl.mem pending q && not (is_pruned q)
    | _ -> false
  in
  (* Best-first rounds: take the highest-ranked pending representatives
     (twins wait for their representative; pruned contexts are skipped),
     simulate them on the pool with per-cell metrics, then resolve,
     cascade equivalences and saturation certificates, and re-prune. *)
  let rec rounds () =
    let batch = ref [] in
    let n = ref 0 in
    List.iter
      (fun (p, _) ->
        if
          !n < round_size
          && Hashtbl.mem pending p
          && (not (is_pruned p))
          && rep_of p = p
          && (not (bus_deferred p))
          && not (List.memq p !batch)
        then begin
          batch := p :: !batch;
          incr n
        end)
      ranked;
    match List.rev !batch with
    | [] -> ()
    | round ->
        let outcomes =
          Pool.map ?jobs
            (fun p ->
              Atomic.incr simulated;
              let wants_metrics =
                match p.Axes.machine with Axes.Ruu _ -> true | _ -> false
              in
              let metrics =
                if wants_metrics then Some (Metrics.create ()) else None
              in
              let result = Axes.run ?metrics p in
              publish (p, Hashtbl.find key_of p) result;
              (p, result, metrics))
            round
        in
        List.iter
          (fun (p, result, metrics) ->
            resolve ~via:`Sim p result;
            match metrics with
            | Some mt ->
                apply_saturation p mt result;
                apply_bus_transfer p mt result
            | None -> ())
          outcomes;
        prune_pass ();
        rounds ()
  in
  prune_pass ();
  rounds ();
  let pruned_cells =
    Hashtbl.fold
      (fun p () acc -> if is_pruned p then acc + 1 else acc)
      pending 0
  in
  let swept =
    List.filter_map
      (fun (p, _) ->
        Option.map (fun r -> (p, r)) (Hashtbl.find_opt results p))
      keyed
  in
  ( swept,
    {
      total;
      computed = exact_sims ();
      reused = total - expected;
      quarantined;
      inferred = !inferred;
      pruned = pruned_cells;
      deferred = 0;
      stolen = 0;
      published = 0;
      writer_s = 0.;
      drain_wait_s = 0.;
    } )

let plain_run ?jobs ~resume ?lease ?progress ~store points =
  (* Keying a scaled point generates and digests its trace; key once, on
     this domain, so workers only simulate. *)
  let keyed = keyed points in
  let hits, missing, quarantined =
    if resume then lookup ~store keyed else ([], keyed, 0)
  in
  let total = List.length keyed in
  let expected = List.length missing in
  let done_ = Atomic.make 0 in
  let settled _ _ _ _ =
    Option.iter
      (fun f -> f ~done_:(Atomic.fetch_and_add done_ 1 + 1) ~total:expected)
      progress
  in
  let stolen0 = match lease with Some l -> Lease.stolen l | None -> 0 in
  let r, pub = resolve_published ?jobs ?lease ~settled ~store missing in
  Option.iter raise r.failure;
  (* A killed worker leaves a lease behind for every key it published
     but had not released; nothing else would ever remove them. *)
  Option.iter (fun l -> ignore (Lease.collect_expired l)) lease;
  (* Every result this run returns is one it already holds: a validated
     lookup hit, a result it computed and published, or a hit while
     settling held keys. No key is read back from the store. *)
  let results : (string, Sim_types.result) Hashtbl.t = Hashtbl.create total in
  List.iter (fun ((_, k), r) -> Hashtbl.replace results k r) hits;
  List.iter (fun (k, r) -> Hashtbl.replace results k r) r.results;
  ( List.map (fun (p, k) -> (p, Hashtbl.find results k)) keyed,
    {
      total;
      computed = r.computed;
      reused = total - expected;
      quarantined;
      inferred = 0;
      pruned = 0;
      deferred = r.deferred;
      stolen =
        (match lease with Some l -> Lease.stolen l - stolen0 | None -> 0);
      published = pub.entries;
      writer_s = pub.writer_s;
      drain_wait_s = pub.drain_wait_s;
    } )

let run ?jobs ?(resume = true) ?lease ?progress ?guided ~store points =
  if Option.is_some guided && Option.is_some lease then
    invalid_arg "Sweep.run: guided sweeps do not take a lease";
  let results, stats =
    match guided with
    | Some guided ->
        let pub = publisher () in
        let results, stats =
          drained pub (fun () ->
              guided_run ?jobs ~resume ?progress ~store ~pub ~guided points)
        in
        ( results,
          {
            stats with
            published = pub.entries;
            writer_s = pub.writer_s;
            drain_wait_s = pub.drain_wait_s;
          } )
    | None -> plain_run ?jobs ~resume ?lease ?progress ~store points
  in
  Store.refresh_manifest store;
  (results, stats)

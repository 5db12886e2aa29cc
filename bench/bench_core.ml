(* Core-simulator throughput benchmark: cycles simulated per second, per
   simulator family, for the production walker and a baseline it is
   measured against.

   Unlike the end-to-end benchmark (perfbench/run.py, which times whole
   table regenerations through the experiment engine), this measures the
   raw simulator inner loops on fixed workloads, so a regression in the
   hot paths is visible directly and not hidden behind trace memoization
   or the worker pool.

   Two kinds of families are measured, each with its own baseline:

   - paper-sized families ("single_issue", ...): the production walker vs
     the original implementation it replaced, kept as the test-only
     oracle (Mfu_oracle, test/oracle), over the default Livermore
     workloads;
   - scaled families ("single_issue/scaled", ...): one ~10^6-instruction
     scaled Livermore loop, steady-state acceleration (Mfu_sim.Steady,
     the default) vs the same walker with [~accel:false]. Here the
     speedup column is the telescoping gain, expected in the hundreds.

   The JSON report keeps the baseline's rate in its
   [reference_cycles_per_sec] field.

   Usage:
     bench_core.exe [--json FILE] [--check BASELINE] [--tolerance PCT]
                    [--min-time SECONDS] [--only FAMILY[,FAMILY...]]

   --json FILE      write the results as JSON (schema mfu-bench-core/v1)
   --check FILE     compare against a previously written JSON file and exit
                    non-zero if any family's packed cycles/sec dropped by
                    more than the tolerance (default 20%); scaled families
                    are gated on a 50x acceleration-speedup floor instead
   --min-time S     minimum measured wall-clock per timing (default 0.3)
   --only F,...     measure (and check) only the named families *)

module Config = Mfu_isa.Config
module Trace = Mfu_exec.Trace
module Sim_types = Mfu_sim.Sim_types
module Single_issue = Mfu_sim.Single_issue
module Dep_single = Mfu_sim.Dep_single
module Buffer_issue = Mfu_sim.Buffer_issue
module Ruu = Mfu_sim.Ruu
module Limits = Mfu_limits.Limits
module Oracle = Mfu_oracle
module Livermore = Mfu_loops.Livermore
module Json = Mfu_util.Json

let config = Config.m11br5

type family = {
  fname : string;
  workload : Trace.t list Lazy.t;
  run : baseline:bool -> Trace.t -> int;  (** simulated cycles *)
}

let all_traces = lazy (List.map Livermore.trace (Livermore.all ()))

(* Table 7's workload: the RUU machine on the paper's scalar loop class. *)
let scalar_traces =
  lazy (List.map Livermore.trace (Livermore.scalar_loops ()))

let families =
  [
    {
      fname = "single_issue";
      workload = all_traces;
      run =
        (fun ~baseline t ->
          if baseline then
            (Oracle.Single_issue.simulate ~config Single_issue.Cray_like t)
              .cycles
          else (Single_issue.simulate ~config Single_issue.Cray_like t).cycles);
    };
    {
      fname = "dep_single";
      workload = all_traces;
      run =
        (fun ~baseline t ->
          if baseline then
            (Oracle.Dep_single.simulate ~config Dep_single.Tomasulo t).cycles
          else (Dep_single.simulate ~config Dep_single.Tomasulo t).cycles);
    };
    {
      fname = "buffer_issue";
      workload = all_traces;
      run =
        (fun ~baseline t ->
          if baseline then
            (Oracle.Buffer_issue.simulate ~config
               ~policy:Buffer_issue.Out_of_order ~stations:8
               ~bus:Sim_types.N_bus t)
              .cycles
          else
            (Buffer_issue.simulate ~config ~policy:Buffer_issue.Out_of_order
               ~stations:8 ~bus:Sim_types.N_bus t)
              .cycles);
    };
    {
      fname = "ruu";
      workload = scalar_traces;
      run =
        (fun ~baseline t ->
          if baseline then
            (Oracle.Ruu.simulate ~config ~issue_units:4 ~ruu_size:50
               ~bus:Sim_types.N_bus t)
              .cycles
          else
            (Ruu.simulate ~config ~issue_units:4 ~ruu_size:50
               ~bus:Sim_types.N_bus t)
              .cycles);
    };
    {
      fname = "limits";
      workload = all_traces;
      run =
        (fun ~baseline t ->
          if baseline then Oracle.Limits.critical_path ~config t
          else Limits.critical_path ~config t);
    };
  ]

(* Scaled families: one large periodic workload each, chosen so that the
   steady-state detector engages (see DESIGN.md, "Steady-state
   fast-forward"). The baseline is the same walker with acceleration
   off, so the speedup column isolates the telescoping gain. *)
let scaled_workload ~loop ~scale =
  lazy [ Livermore.trace (Livermore.scaled ~scale loop) ]

let scaled_families =
  [
    {
      fname = "single_issue/scaled";
      workload = scaled_workload ~loop:11 ~scale:250;
      run =
        (fun ~baseline t ->
          (Single_issue.simulate ~accel:(not baseline) ~config
             Single_issue.Cray_like t)
            .cycles);
    };
    {
      fname = "dep_single/scaled";
      workload = scaled_workload ~loop:12 ~scale:250;
      run =
        (fun ~baseline t ->
          (Dep_single.simulate ~accel:(not baseline) ~config
             Dep_single.Tomasulo t)
            .cycles);
    };
    {
      fname = "buffer_issue/scaled";
      workload = scaled_workload ~loop:11 ~scale:250;
      run =
        (fun ~baseline t ->
          (Buffer_issue.simulate ~accel:(not baseline) ~config
             ~policy:Buffer_issue.Out_of_order ~stations:8 ~bus:Sim_types.N_bus
             t)
            .cycles);
    };
    {
      fname = "ruu/scaled";
      workload = scaled_workload ~loop:11 ~scale:250;
      run =
        (fun ~baseline t ->
          (Ruu.simulate ~accel:(not baseline) ~config ~issue_units:4
             ~ruu_size:50 ~bus:Sim_types.N_bus t)
            .cycles);
    };
    {
      (* the limits machine's store-token table only telescopes on
         store-light loops; LL3 (inner product) is its showcase *)
      fname = "limits/scaled";
      workload = scaled_workload ~loop:3 ~scale:260;
      run =
        (fun ~baseline t ->
          Limits.critical_path ~accel:(not baseline) ~config t);
    };
  ]

let all_families = families @ scaled_families

(* One pass over the workload; returns total simulated cycles. *)
let one_pass f ~baseline traces =
  List.fold_left (fun acc t -> acc + f.run ~baseline t) 0 traces

(* Repeat passes until at least [min_time] seconds have been measured, then
   report cycles simulated per second. The first pass of each side is run
   untimed to warm the packed-trace cache and the allocator. The whole
   measurement is repeated [rounds] times and the best rate kept:
   external interference (the VM scheduler, GC major slices) only ever
   slows a round down, so the maximum is the most repeatable estimator of
   the true rate. The production and baseline sides are interleaved within
   each round — alternating which goes first — so that slow machine-speed
   drift (frequency ramp, allocator warm-up, page-cache state) biases
   neither side of the speedup ratio. *)
let rounds = 3

type row = {
  name : string;
  cycles : int;  (** simulated cycles per workload pass *)
  packed_cps : float;
  baseline_cps : float;
}

let speedup r = r.packed_cps /. r.baseline_cps

let measure_all ~min_time fams =
  List.map
    (fun f ->
      let traces = Lazy.force f.workload in
      let cycles = one_pass f ~baseline:false traces in
      ignore (one_pass f ~baseline:true traces : int);
      let rec measure ~baseline iters =
        let t0 = Unix.gettimeofday () in
        for _ = 1 to iters do
          ignore (one_pass f ~baseline traces : int)
        done;
        let dt = Unix.gettimeofday () -. t0 in
        if dt >= min_time then float_of_int (iters * cycles) /. dt
        else measure ~baseline (max (iters * 2) (iters + 1))
      in
      let packed_cps = ref 0.0 in
      let baseline_cps = ref 0.0 in
      let side best baseline =
        let cps = measure ~baseline 1 in
        if cps > !best then best := cps
      in
      for round = 1 to rounds do
        if round mod 2 = 1 then begin
          side packed_cps false;
          side baseline_cps true
        end
        else begin
          side baseline_cps true;
          side packed_cps false
        end
      done;
      { name = f.fname; cycles; packed_cps = !packed_cps;
        baseline_cps = !baseline_cps })
    fams

let print_rows rows =
  Printf.printf "%-14s %12s %16s %16s %9s\n" "family" "cycles/pass"
    "packed cyc/s" "baseline cyc/s" "speedup";
  List.iter
    (fun r ->
      Printf.printf "%-14s %12d %16.3e %16.3e %8.2fx\n" r.name r.cycles
        r.packed_cps r.baseline_cps (speedup r))
    rows

let to_json rows =
  Json.Obj
    [
      ("schema", Json.String "mfu-bench-core/v1");
      ("config", Json.String (Config.name config));
      ( "results",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("name", Json.String r.name);
                   ("cycles", Json.Int r.cycles);
                   ("cycles_per_sec", Json.Float r.packed_cps);
                   ("reference_cycles_per_sec", Json.Float r.baseline_cps);
                   ("speedup", Json.Float (speedup r));
                 ])
             rows) );
    ]

let to_float = function
  | Json.Float f -> Some f
  | Json.Int i -> Some (float_of_int i)
  | _ -> None

(* Baseline cycles/sec per family from a previously written report. *)
let load_baseline file =
  let contents = In_channel.with_open_text file In_channel.input_all in
  match Json.of_string contents with
  | Error e -> failwith (Printf.sprintf "%s: %s" file e)
  | Ok json -> (
      match Json.member "results" json with
      | Some (Json.List rs) ->
          List.filter_map
            (fun r ->
              match
                ( Option.bind (Json.member "name" r) Json.to_str,
                  Option.bind (Json.member "cycles_per_sec" r) to_float )
              with
              | Some n, Some c -> Some (n, c)
              | _ -> None)
            rs
      | _ -> failwith (Printf.sprintf "%s: no results list" file))

(* Exit non-zero when any family regressed past the tolerance. A family
   present in the baseline but missing from this run is also a failure —
   removing a simulator must not silently pass the gate. Under [--only]
   the gate narrows to the selected families, so a partial run can still
   be checked against the full baseline.

   Scaled families are gated on their speedup instead of throughput: an
   accelerated pass takes a fraction of a millisecond, so its cycles/sec
   swings 2-3x with allocator and GC state, while the speedup collapses
   to ~1x the moment telescoping stops engaging — which is what the gate
   is there to catch. *)
let scaled_speedup_floor = 50.0

let is_scaled = String.ends_with ~suffix:"/scaled"

let check ~tolerance ~baseline_file ~selected rows =
  let baseline =
    List.filter
      (fun (name, _) -> List.exists (fun f -> f.fname = name) selected)
      (load_baseline baseline_file)
  in
  let failures =
    List.filter_map
      (fun (name, base_cps) ->
        match List.find_opt (fun r -> r.name = name) rows with
        | None -> Some (Printf.sprintf "%s: missing from this run" name)
        | Some r when is_scaled name ->
            if speedup r < scaled_speedup_floor then
              Some
                (Printf.sprintf
                   "%s: acceleration speedup %.1fx below the %.0fx floor"
                   name (speedup r) scaled_speedup_floor)
            else None
        | Some r ->
            if r.packed_cps < (1.0 -. tolerance) *. base_cps then
              Some
                (Printf.sprintf "%s: %.3e cycles/s, baseline %.3e (-%.0f%%)"
                   name r.packed_cps base_cps
                   (100.0 *. (1.0 -. (r.packed_cps /. base_cps))))
            else None)
      baseline
  in
  match failures with
  | [] ->
      Printf.printf "check: all %d families within %.0f%% of %s\n"
        (List.length baseline) (100.0 *. tolerance) baseline_file
  | fs ->
      List.iter (Printf.eprintf "check FAILED: %s\n") fs;
      exit 1

let select_families spec =
  match
    Mfu_util.Selection.parse
      ~valid:(List.map (fun f -> f.fname) all_families)
      spec
  with
  | Error e -> failwith ("--only: " ^ e)
  | Ok names ->
      List.map
        (fun name -> List.find (fun f -> f.fname = name) all_families)
        names

let () =
  let json_file = ref None in
  let check_file = ref None in
  let tolerance = ref 0.20 in
  let min_time = ref 0.3 in
  let selected = ref all_families in
  let rec parse = function
    | "--json" :: file :: rest ->
        json_file := Some file;
        parse rest
    | "--check" :: file :: rest ->
        check_file := Some file;
        parse rest
    | "--tolerance" :: pct :: rest ->
        tolerance := float_of_string pct /. 100.0;
        parse rest
    | "--min-time" :: s :: rest ->
        min_time := float_of_string s;
        parse rest
    | "--only" :: spec :: rest ->
        selected := select_families spec;
        parse rest
    | [] -> ()
    | arg :: _ -> failwith (Printf.sprintf "unknown argument %s" arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let rows = measure_all ~min_time:!min_time !selected in
  print_rows rows;
  Option.iter
    (fun file ->
      let oc = open_out file in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> Json.to_channel oc (to_json rows));
      Printf.eprintf "[bench] wrote %s\n%!" file)
    !json_file;
  Option.iter
    (fun file ->
      check ~tolerance:!tolerance ~baseline_file:file ~selected:!selected rows)
    !check_file

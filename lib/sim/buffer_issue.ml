module Config = Mfu_isa.Config
module Fu = Mfu_isa.Fu
module Reg = Mfu_isa.Reg
module Trace = Mfu_exec.Trace
module Packed = Mfu_exec.Packed
module Metrics = Sim_types.Metrics

type policy = In_order | Out_of_order

let policy_to_string = function
  | In_order -> "in-order"
  | Out_of_order -> "out-of-order"

type alignment = Dynamic | Static

let alignment_to_string = function
  | Dynamic -> "dynamic"
  | Static -> "static"

(* -- the walker ---------------------------------------------------------------
   The machine over the struct-of-arrays {!Mfu_exec.Packed} form. The test
   suite's oracle (test/oracle/buffer_issue.ml) keeps the original
   Hashtbl-and-list implementation; "the oracle" below means it.

   The oracle's result-bus reservation Hashtbl becomes a tag ring
   replicating its [cycle * 8 + bus] key space: slot [key mod R] holds the
   last key reserved there, and a probe hits iff the tag equals the probed
   key.
   This is exact because a reservation for completion cycle [c] is only
   probed while the simulation cycle [t] is below [c] (probes happen at
   [t + latency], latencies are >= 1), every live key therefore lies within
   a bounded span of the current cycle, and the ring is sized past twice
   that span — so two live keys never share a slot, and a surviving stale
   tag equal to a probed key denotes a genuine earlier reservation of that
   very key, which is precisely the Hashtbl's never-forgetting answer.
   (Sizing includes [stations] because N-bus/X-bar bus numbers reach the
   station count, aliasing into later cycles exactly as the oracle's
   shared key formula does.)

   The out-of-order older-entry hazard lists become scratch arrays sized by
   the window (at most [stations] entries), rewound each cycle.

   When [metrics] is [None], a zero-issue cycle additionally fast-forwards
   to the earliest next interesting cycle ([wake]): while nothing issues no
   machine state changes, so cycles strictly before the minimum over the
   blocked entries' earliest-possible issue times (register availability,
   branch-stall expiry; a same-cycle unit or bus conflict pins the wake to
   [t + 1]) provably issue nothing as well. Entries blocked by hazards
   against older unissued entries cannot unblock before some entry issues,
   so the minimum over hazard-free entries covers them. Metrics runs keep
   the per-cycle walk, making stall attribution trivially identical. *)

module Fast = struct
  type state = {
    p : Packed.t;
    lat : int array;
    branch_time : int;
    stations : int;
    alignment : alignment;
    metrics : Metrics.t option;
    bus : Sim_types.bus_model;
    reg_ready : int array;
    fu_last_used : int array;
    ring : int array; (* tag ring over the cycle * 8 + bus key space *)
    issued : bool array;
    od : int array; (* older unissued destinations (out-of-order scan) *)
    oma : int array; (* older unissued memory addresses *)
    oms : bool array; (* whether the matching older reference is a store *)
    mutable nod : int;
    mutable nom : int;
    mutable base : int;
    mutable hi : int;
    mutable stall_until : int;
    mutable finish : int;
    mutable wake : int; (* earliest next interesting cycle, or max_int *)
  }

  let station_of st pos =
    match st.alignment with
    | Dynamic -> pos - st.base
    | Static -> st.p.Packed.static_index.(pos) mod st.stations

  (* A window holds at most [stations] entries. [Dynamic]: by
     construction. [Static]: a window lies in one block of [stations]
     static positions and ends after its first taken branch; without a
     taken branch control falls through to the next static position, so
     its static indices strictly increase and fit the block. *)
  let window_end st from_ =
    let n = st.p.Packed.n in
    match st.alignment with
    | Dynamic -> min (from_ + st.stations) n
    | Static ->
        if from_ >= n then n
        else begin
          let block = st.p.Packed.static_index.(from_) / st.stations in
          let q = ref from_ in
          let continue_ = ref true in
          while !continue_ && !q < n do
            if st.p.Packed.static_index.(!q) / st.stations <> block then
              continue_ := false
            else begin
              let taken = Packed.kind st.p !q = Packed.kind_taken in
              incr q;
              if taken then continue_ := false
            end
          done;
          !q
        end

  let bus_free st ~cycle ~bus =
    let key = (cycle * 8) + bus in
    st.ring.(key mod Array.length st.ring) <> key

  let reserve_bus st ~cycle ~bus =
    let key = (cycle * 8) + bus in
    st.ring.(key mod Array.length st.ring) <- key

  let pick_bus st ~slot ~cycle =
    match st.bus with
    | Sim_types.N_bus -> if bus_free st ~cycle ~bus:slot then slot else -1
    | Sim_types.One_bus -> if bus_free st ~cycle ~bus:0 then 0 else -1
    | Sim_types.X_bar ->
        let rec scan b =
          if b >= st.stations then -1
          else if bus_free st ~cycle ~bus:b then b
          else scan (b + 1)
        in
        scan 0

  let latency_at st i =
    if Packed.is_branch st.p i then st.branch_time
    else st.lat.(st.p.Packed.fu.(i))

  let lower_wake st v = if v < st.wake then st.wake <- v

  (* The scan loops of this module are module-level recursive functions
     rather than local [ref]-and-[while] loops or local closures: both of
     those heap-allocate per call, and the no-metrics simulation loop must
     not allocate per cycle. *)
  let rec max_ready_from st ~s ~stop acc =
    if s >= stop then acc
    else
      let r = st.reg_ready.(Array.unsafe_get st.p.Packed.src_idx s) in
      max_ready_from st ~s:(s + 1) ~stop (if r > acc then r else acc)

  (* Packed [can_issue_globally]: returns the reserved-bus number, [-2] for
     blocked, [-1] for issuable with no result bus needed. On a block,
     lowers [st.wake] to the earliest cycle this entry could issue. *)
  let can_issue st i ~slot ~t =
    let rw =
      max_ready_from st ~s:st.p.Packed.src_off.(i)
        ~stop:st.p.Packed.src_off.(i + 1) 0
    in
    let d = Array.unsafe_get st.p.Packed.dest i in
    let rw = if d >= 0 && st.reg_ready.(d) > rw then st.reg_ready.(d) else rw in
    if rw > t then begin
      lower_wake st rw;
      -2
    end
    else
      let fu = Array.unsafe_get st.p.Packed.fu i in
      if Packed.shared_unit.(fu) && st.fu_last_used.(fu) = t then begin
        lower_wake st (t + 1);
        -2
      end
      else if d < 0 then -1
      else
        let b = pick_bus st ~slot ~cycle:(t + latency_at st i) in
        if b >= 0 then b
        else begin
          lower_wake st (t + 1);
          -2
        end

  let do_issue st i ~bus ~t =
    let completion = t + latency_at st i in
    (match st.metrics with
    | Some m ->
        Metrics.record_instructions m 1;
        let fu = st.p.Packed.fu.(i) in
        if Packed.shared_unit.(fu) then
          Metrics.record_fu_busy m (Fu.of_index fu) 1
    | None -> ());
    let d = st.p.Packed.dest.(i) in
    if d >= 0 then st.reg_ready.(d) <- completion;
    st.fu_last_used.(st.p.Packed.fu.(i)) <- t;
    if bus >= 0 then reserve_bus st ~cycle:completion ~bus;
    st.issued.(i - st.base) <- true;
    if completion > st.finish then st.finish <- completion;
    if Packed.is_branch st.p i then begin
      st.stall_until <- t + st.branch_time;
      if Packed.kind st.p i = Packed.kind_taken then begin
        st.base <- i + 1;
        st.hi <- window_end st (i + 1);
        Array.fill st.issued 0 st.stations false
      end
    end

  let rec first_unissued st p =
    if p < st.hi && st.issued.(p - st.base) then first_unissued st (p + 1)
    else p

  let rec issue_in_order_scan st ~t issued_now =
    let pos = first_unissued st st.base in
    if pos >= st.hi || t < st.stall_until || issued_now >= st.stations then begin
      if t < st.stall_until then lower_wake st st.stall_until;
      issued_now
    end
    else
      let bus = can_issue st pos ~slot:(station_of st pos) ~t in
      if bus = -2 then issued_now
      else begin
        do_issue st pos ~bus ~t;
        if Packed.is_branch st.p pos then issued_now + 1
        else issue_in_order_scan st ~t (issued_now + 1)
      end

  let issue_in_order st ~t = issue_in_order_scan st ~t 0

  let rec reads_reg st ~od s stop =
    s < stop
    && (st.p.Packed.src_idx.(s) = od || reads_reg st ~od (s + 1) stop)

  let rec raw_waw_hit st ~i ~d k =
    k < st.nod
    &&
    let od = st.od.(k) in
    od = d
    || reads_reg st ~od st.p.Packed.src_off.(i) st.p.Packed.src_off.(i + 1)
    || raw_waw_hit st ~i ~d (k + 1)

  let rec mem_hit st ~a ~is_store k =
    k < st.nom
    && ((st.oma.(k) = a && (is_store || st.oms.(k)))
       || mem_hit st ~a ~is_store (k + 1))

  let rec issue_out_of_order_scan st ~t ~pos ~older_unissued issued_now =
    if pos >= st.hi then issued_now
    else if st.issued.(pos - st.base) then
      issue_out_of_order_scan st ~t ~pos:(pos + 1) ~older_unissued issued_now
    else begin
      let i = pos in
      let d = st.p.Packed.dest.(i) in
      let raw_waw = raw_waw_hit st ~i ~d 0 in
      let is_mem = Packed.is_mem st.p i in
      let mem_conflict =
        is_mem
        && mem_hit st ~a:st.p.Packed.addr.(i)
             ~is_store:(Packed.is_store st.p i) 0
      in
      let is_br = Packed.is_branch st.p i in
      let branch_ok = (not is_br) || not older_unissued in
      let can =
        (not raw_waw) && (not mem_conflict) && branch_ok
        && issued_now < st.stations
      in
      let issued_here =
        can
        &&
        let bus = can_issue st i ~slot:(station_of st i) ~t in
        if bus = -2 then false
        else begin
          do_issue st i ~bus ~t;
          true
        end
      in
      if issued_here then
        if is_br then issued_now + 1
        else
          issue_out_of_order_scan st ~t ~pos:(pos + 1) ~older_unissued
            (issued_now + 1)
      else if is_br then issued_now
      else begin
        if d >= 0 then begin
          st.od.(st.nod) <- d;
          st.nod <- st.nod + 1
        end;
        if is_mem then begin
          st.oma.(st.nom) <- st.p.Packed.addr.(i);
          st.oms.(st.nom) <- Packed.is_store st.p i;
          st.nom <- st.nom + 1
        end;
        issue_out_of_order_scan st ~t ~pos:(pos + 1) ~older_unissued:true
          issued_now
      end
    end

  let issue_out_of_order st ~t =
    if t < st.stall_until then begin
      lower_wake st st.stall_until;
      0
    end
    else begin
      st.nod <- 0;
      st.nom <- 0;
      issue_out_of_order_scan st ~t ~pos:st.base ~older_unissued:false 0
    end

  let diagnose st ~t =
    if t < st.stall_until then Metrics.Branch
    else begin
      let pos = first_unissued st st.base in
      if pos >= st.hi then Metrics.Buffer_refill
      else begin
        let srcs_blocked = ref false in
        for s = st.p.Packed.src_off.(pos) to st.p.Packed.src_off.(pos + 1) - 1
        do
          if st.reg_ready.(st.p.Packed.src_idx.(s)) > t then
            srcs_blocked := true
        done;
        if !srcs_blocked then Metrics.Raw
        else
          let d = st.p.Packed.dest.(pos) in
          if d >= 0 && st.reg_ready.(d) > t then Metrics.Waw
          else
            let fu = st.p.Packed.fu.(pos) in
            if Packed.shared_unit.(fu) && st.fu_last_used.(fu) = t then
              Metrics.Fu_busy
            else if
              d >= 0
              && pick_bus st ~slot:(station_of st pos)
                   ~cycle:(t + latency_at st pos)
                 < 0
            then Metrics.Result_bus
            else Metrics.Buffer_refill
      end
    end

  let unissued_in_window st =
    let n = ref 0 in
    for p = st.base to st.hi - 1 do
      if not st.issued.(p - st.base) then incr n
    done;
    !n

  let rec all_issued_from st p =
    p >= st.hi || (st.issued.(p - st.base) && all_issued_from st (p + 1))

  let all_issued st = all_issued_from st st.base
end

(* Steady-state fingerprint, normalized by [now = t] at the top of a
   cycle whose buffer starts exactly at the boundary (a taken-branch
   squash lands [base] on it, with no entry of the new window issued
   yet). Times at or before [now] are dead: every consultation compares
   against a cycle >= [now] ([> t] for registers, [= t] for same-cycle
   unit reuse, probed keys at completion cycles > [now] for the bus
   ring). Live bus reservations sit at cycles in (now, now + span] and
   are serialized as one 8-bit mask per cycle; stale ring tags at dead
   cycles can never equal a probed key and carry no state. Addresses
   never enter this state: they are compared only among the entries of
   one window, in the cycle that reads them, which is also why a jump
   needs no address bias here. *)
let fingerprint st ~span pr pos now =
  let fp = ref [] in
  let push v = fp := v :: !fp in
  push (st.Fast.hi - st.Fast.base);
  push (if st.Fast.stall_until > now then st.Fast.stall_until - now else 0);
  push (if st.Fast.finish > now then st.Fast.finish - now else 0);
  let mask = ref 0 in
  Array.iteri (fun s b -> if b then mask := !mask lor (1 lsl s)) st.Fast.issued;
  push !mask;
  for c = now + 1 to now + span do
    let m = ref 0 in
    for b = 0 to 7 do
      let key = (c * 8) + b in
      if st.Fast.ring.(key mod Array.length st.Fast.ring) = key then
        m := !m lor (1 lsl b)
    done;
    push !m
  done;
  Array.iter (fun v -> push (if v > now then v - now else 0)) st.Fast.reg_ready;
  Array.iter
    (fun v -> push (if v >= now then v - now + 1 else 0))
    st.Fast.fu_last_used;
  pr.Steady.fire ~pos ~time:now ~fp:!fp

let simulate_packed ?metrics ?probe ~alignment ~config ~policy ~stations ~bus
    (p : Packed.t) =
  let n = p.Packed.n in
  let maxlat = Packed.max_latency config in
  let st =
    {
      Fast.p;
      lat = Packed.latency_table config;
      branch_time = Config.branch_time config;
      stations;
      alignment;
      metrics;
      bus;
      reg_ready = Array.make Reg.count 0;
      fu_last_used = Array.make Fu.count (-1);
      ring = Array.make ((8 * ((2 * maxlat) + 4)) + stations) (-1);
      issued = Array.make stations false;
      od = Array.make stations 0;
      oma = Array.make stations 0;
      oms = Array.make stations false;
      nod = 0;
      nom = 0;
      base = 0;
      hi = 0;
      stall_until = 0;
      finish = 0;
      wake = max_int;
    }
  in
  st.Fast.hi <- Fast.window_end st 0;
  let span = max maxlat (Config.branch_time config) in
  let t = ref 0 in
  let guard = ref (200 * (n + 100)) in
  while not (st.Fast.hi >= n && Fast.all_issued st) do
    if Fast.all_issued st && st.Fast.hi < n then begin
      st.Fast.base <- st.Fast.hi;
      st.Fast.hi <- Fast.window_end st st.Fast.base;
      Array.fill st.Fast.issued 0 st.Fast.stations false
    end;
    (match probe with
    | Some pr when st.Fast.base >= pr.Steady.next_pos ->
        if st.Fast.base > pr.Steady.next_pos then
          pr.Steady.missed (st.Fast.base - 1);
        if st.Fast.base = pr.Steady.next_pos then begin
          let skip = fingerprint st ~span pr st.Fast.base !t in
          st.Fast.base <- st.Fast.base + skip;
          st.Fast.hi <- st.Fast.hi + skip
        end
    | _ -> ());
    (match metrics with
    | Some m -> Metrics.record_occupancy m (Fast.unissued_in_window st)
    | None -> ());
    st.Fast.wake <- max_int;
    let issued =
      match policy with
      | In_order -> Fast.issue_in_order st ~t:!t
      | Out_of_order -> Fast.issue_out_of_order st ~t:!t
    in
    (match metrics with
    | Some m ->
        if issued > 0 then Metrics.record_issue ~width:issued m 1
        else Metrics.record_stall m (Fast.diagnose st ~t:!t) 1;
        incr t
    | None ->
        if issued = 0 && st.Fast.wake > !t + 1 && st.Fast.wake < max_int then
          t := st.Fast.wake
        else incr t);
    decr guard;
    if !guard <= 0 then failwith "Buffer_issue.simulate: no progress"
  done;
  let cycles = max st.Fast.finish !t in
  (match metrics with
  | Some m -> Metrics.record_stall m Metrics.Drain (cycles - !t)
  | None -> ());
  { Sim_types.cycles; instructions = n }

let simulate ?metrics ?(alignment = Dynamic) ?(accel = true) ~config ~policy
    ~stations ~bus (trace : Trace.t) =
  if stations < 1 then invalid_arg "Buffer_issue.simulate: stations < 1";
  if accel then
    (* The walker reads an address only to compare it with those of older
       unissued entries of the same window, when either is a store, and a
       window holds at most [stations] entries (see [window_end]). So
       addresses relabelled by dependence over a [stations] horizon drive
       it exactly as the originals do. The buffer reads [stations] entries
       past [base]: a region's final periods see what follows through it
       and must not be telescoped. *)
    Steady.run ?metrics ~lookahead:stations
      (Packed.relabel (Packed.cached trace) ~horizon:stations)
      (fun ~metrics ~probe p ->
        simulate_packed ?metrics ?probe ~alignment ~config ~policy ~stations
          ~bus p)
  else
    simulate_packed ?metrics ~alignment ~config ~policy ~stations ~bus
      (Packed.cached trace)

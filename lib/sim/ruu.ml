module Config = Mfu_isa.Config
module Fu = Mfu_isa.Fu
module Reg = Mfu_isa.Reg
module Trace = Mfu_exec.Trace
module Packed = Mfu_exec.Packed
module Metrics = Sim_types.Metrics
module Int_table = Mfu_util.Int_table

type branch_handling = Stall | Oracle | Static_taken | Bimodal of int

let branch_handling_to_string = function
  | Stall -> "stall"
  | Oracle -> "oracle"
  | Static_taken -> "static-taken"
  | Bimodal n -> Printf.sprintf "bimodal(%d)" n

(* -- the walker ---------------------------------------------------------------
   The machine over the struct-of-arrays {!Mfu_exec.Packed} form, with the
   RUU entries flattened into per-slot arrays. The test suite's oracle
   (test/oracle/ruu.ml) keeps the original boxed entry records and scans
   the whole window every dispatch pass; "the oracle" below means it.

   Dispatch is split into wakeup and select. At issue, each producer of an
   entry that has already dispatched is folded into the entry's running
   operand-ready max; each still undispatched producer instead gets a
   dependency edge on its wakeup list. When a producer dispatches it walks
   that list once, folding its (now final) completion into every
   dependent. An entry whose last edge resolves knows its operand-ready
   cycle for good and is parked in a timing wheel under that cycle; at the
   start of that cycle's dispatch pass the bucket drains into the ready
   set, kept in window order. Select then runs the oracle's arbitration
   over the ready set only: the entries it skips are exactly those the
   oracle's scan finds not operand-ready, which neither dispatch nor
   touch the bank mask or any metric, so visit order, arbitration and
   every [record_bus_reject] / [record_fu_busy] call are the oracle's.

   The wheel and the result-bus ring are power-of-two rings of
   [max_latency + 2] cycles. A wheel entry is parked at a completion
   cycle in [(t, t + max_latency]] and drained at that cycle, and the
   event skip below never jumps past a non-empty bucket, so live cycles
   never collide. A result-bus reservation for completion cycle [c] is
   only probed while [t < c] (probes happen at [t + latency], latencies
   >= 1); a ring slot whose tag mismatches is an expired cycle and reads
   as empty. The in-flight store map becomes an open-addressing table
   from address to [uid * ruu_size + slot], where [uid] is the slot's
   allocation number: a reference whose generation no longer matches
   denotes a committed store, and its completion reads as 0 — exact,
   because commit requires [completion <= commit cycle <= consumer issue
   cycle < t] for every later readiness test, which compares [<= t].
   [latest_writer] needs no generations: it always points at a live
   entry (issue sets it, commit clears it).

   When [metrics] is [None], a cycle with no commit, no dispatch and no
   issue fast-forwards to the earliest next event: the head completion (if
   dispatched), the earliest non-empty wheel bucket, a waiting branch's
   condition-register completion, and the branch-stall expiry. Entries
   still waiting on undispatched producers need no candidate of their
   own: the oldest undispatched entry never waits on one, so the first
   wakeup is always already parked. In such a cycle every
   [fu_last_used] is in the past and no dispatch bank is taken, so a
   non-empty ready set is held back only by result-bus slots — which
   shift with [t] — and pins the wake to [t + 1]. Cycles strictly before
   the minimum candidate provably repeat the zero-activity cycle. Metrics
   runs keep the per-cycle walk, making stall attribution trivially
   identical. *)

module Fast = struct
  type state = {
    p : Packed.t;
    lat : int array;
    branch_time : int;
    issue_units : int;
    ruu_size : int;
    metrics : Metrics.t option;
    bus : Sim_types.bus_model;
    (* per-slot entry fields; a slot is live iff it lies in
       [head, head + count) of the ring *)
    s_uid : int array;
    s_fu : int array;
    s_dest : int array;
    s_needs_bus : bool array;
    s_dispatched : bool array;
    s_completion : int array;
    s_bank : int array; (* [bank st slot], fixed per slot and bus model *)
    (* undispatched producers whose wakeup has not arrived yet *)
    s_pending : int array;
    (* running max of the resolved producers' completions: the final
       operand-ready cycle once [s_pending] is 0 *)
    s_ready : int array;
    (* wakeup lists: edge [slot * maxprod + k] is consumer [slot]'s k-th
       pending producer; [dep_head.(p)] starts producer [p]'s list of
       edges, linked through [dep_next] *)
    dep_head : int array;
    dep_next : int array;
    maxprod : int;
    (* timing wheel: per operand-ready cycle (masked), the parked slots
       linked through [wh_next] *)
    wh_head : int array;
    wh_next : int array;
    (* ready set: the operand-ready undispatched slots, sorted by [s_uid]
       (window order), in [rdy.(0 .. nrdy - 1)] *)
    rdy : int array;
    mutable nrdy : int;
    mutable head : int;
    mutable count : int;
    mutable uid_next : int;
    latest_writer : int array; (* per register: live slot or -1 *)
    mem_writer : Int_table.t; (* address -> [uid * ruu_size + slot] *)
    rb_tag : int array; (* result-bus ring: cycle tag per slot *)
    rb_val : int array; (* bitmap (banked) or use count (crossbar) *)
    fu_last_used : int array;
    branches : branch_handling;
    counters : int array;
    mutable stall_until : int;
    mutable next : int;
    mutable bias : int; (* subtracted from every address read *)
    mutable finish : int;
    mutable wake : int; (* earliest next interesting cycle, or max_int *)
  }

  let lower_wake st v = if v < st.wake then st.wake <- v

  let bank st slot =
    match st.bus with
    | Sim_types.One_bus -> 0
    | Sim_types.N_bus -> slot mod st.issue_units
    | Sim_types.X_bar -> 0

  (* the ring length is a power of two, so indexing is a mask *)
  let rb_get st cycle =
    let i = cycle land (Array.length st.rb_tag - 1) in
    if st.rb_tag.(i) = cycle then st.rb_val.(i) else 0

  let result_bus_free st ~cycle ~bank:b =
    let cur = rb_get st cycle in
    match st.bus with
    | Sim_types.One_bus | Sim_types.N_bus -> cur land (1 lsl b) = 0
    | Sim_types.X_bar -> cur < st.issue_units

  let reserve_result_bus st ~cycle ~bank:b =
    let cur = rb_get st cycle in
    let v =
      match st.bus with
      | Sim_types.One_bus | Sim_types.N_bus -> cur lor (1 lsl b)
      | Sim_types.X_bar -> cur + 1
    in
    let i = cycle land (Array.length st.rb_tag - 1) in
    st.rb_tag.(i) <- cycle;
    st.rb_val.(i) <- v

  (* The loops of this module are module-level recursive functions rather
     than local [ref]-and-[while] loops or local closures: both of those
     heap-allocate per call, and the no-metrics simulation loop must not
     allocate per cycle. *)

  (* -- wakeup --------------------------------------------------------------- *)

  let park st slot ~ready =
    let b = ready land (Array.length st.wh_head - 1) in
    st.wh_next.(slot) <- st.wh_head.(b);
    st.wh_head.(b) <- slot

  (* Insertion into the uid-sorted ready set: entries issued straight into
     it append; woken ones shift past the few younger ready entries. *)
  let rec ready_gap st ~uid i =
    if i > 0 && st.s_uid.(st.rdy.(i - 1)) > uid then begin
      st.rdy.(i) <- st.rdy.(i - 1);
      ready_gap st ~uid (i - 1)
    end
    else i

  let make_ready st slot =
    st.rdy.(ready_gap st ~uid:st.s_uid.(slot) st.nrdy) <- slot;
    st.nrdy <- st.nrdy + 1

  let rec drain st slot =
    if slot >= 0 then begin
      let nxt = st.wh_next.(slot) in
      make_ready st slot;
      drain st nxt
    end

  (* A producer dispatched with completion [c] (> t): fold it into every
     dependent; a dependent whose last edge this was is now final and is
     parked under its operand-ready cycle. Dependents cannot have
     committed — they have not dispatched — so every edge is live. *)
  let rec wake_deps st ~c e =
    if e >= 0 then begin
      let nxt = st.dep_next.(e) in
      let slot = e / st.maxprod in
      if c > st.s_ready.(slot) then st.s_ready.(slot) <- c;
      st.s_pending.(slot) <- st.s_pending.(slot) - 1;
      if st.s_pending.(slot) = 0 then park st slot ~ready:st.s_ready.(slot);
      wake_deps st ~c nxt
    end

  (* Consumer [slot] reads live producer [w]: a dispatched producer's
     completion is final and folds in now; an undispatched one gets an
     edge. *)
  let depend st ~slot w =
    if st.s_dispatched.(w) then begin
      if st.s_completion.(w) > st.s_ready.(slot) then
        st.s_ready.(slot) <- st.s_completion.(w)
    end
    else begin
      let e = (slot * st.maxprod) + st.s_pending.(slot) in
      st.dep_next.(e) <- st.dep_head.(w);
      st.dep_head.(w) <- e;
      st.s_pending.(slot) <- st.s_pending.(slot) + 1
    end

  let rec depend_srcs st ~slot ~s ~stop =
    if s < stop then begin
      let w = st.latest_writer.(st.p.Packed.src_idx.(s)) in
      if w >= 0 then depend st ~slot w;
      depend_srcs st ~slot ~s:(s + 1) ~stop
    end

  (* -- issue stage -------------------------------------------------------- *)

  (* Scans every source (no short circuit): each blocked producer is a wake
     candidate. *)
  let rec branch_ready_from st ~t ~s ~stop acc =
    if s >= stop then acc
    else begin
      let w = st.latest_writer.(st.p.Packed.src_idx.(s)) in
      let acc =
        if w >= 0 && st.s_completion.(w) > t then begin
          (* wake candidate: the condition register's production cycle *)
          if st.s_completion.(w) < max_int then
            lower_wake st st.s_completion.(w);
          false
        end
        else acc
      in
      branch_ready_from st ~t ~s:(s + 1) ~stop acc
    end

  let branch_operands_ready st i ~t =
    branch_ready_from st ~t ~s:st.p.Packed.src_off.(i)
      ~stop:st.p.Packed.src_off.(i + 1) true

  let predict st i =
    let taken = Packed.kind st.p i = Packed.kind_taken in
    match st.branches with
    | Stall -> false
    | Oracle -> true
    | Static_taken -> taken
    | Bimodal n ->
        let slot = st.p.Packed.static_index.(i) mod n in
        let counter = st.counters.(slot) in
        let predicted_taken = counter >= 2 in
        st.counters.(slot) <-
          (if taken then min 3 (counter + 1) else max 0 (counter - 1));
        predicted_taken = taken

  let rec issue_loop st ~t issued =
    if issued >= st.issue_units || st.next >= st.p.Packed.n then issued
    else
      let i = st.next in
      if Packed.is_branch st.p i then begin
        let correctly_predicted =
          match st.branches with Stall -> false | _ -> predict st i
        in
        if correctly_predicted then begin
          st.stall_until <- t + 1;
          if t + st.branch_time > st.finish then
            st.finish <- t + st.branch_time;
          st.next <- st.next + 1;
          issued + 1
        end
        else if branch_operands_ready st i ~t then begin
          st.stall_until <- t + st.branch_time;
          if t + st.branch_time > st.finish then
            st.finish <- t + st.branch_time;
          st.next <- st.next + 1;
          issued + 1
        end
        else issued
      end
      else if st.count >= st.ruu_size then issued
      else begin
        let slot = st.head + st.count in
        let slot = if slot >= st.ruu_size then slot - st.ruu_size else slot in
        st.count <- st.count + 1;
        let uid = st.uid_next in
        st.uid_next <- uid + 1;
        st.s_uid.(slot) <- uid;
        st.s_fu.(slot) <- st.p.Packed.fu.(i);
        st.s_dispatched.(slot) <- false;
        st.s_completion.(slot) <- max_int;
        st.s_bank.(slot) <- bank st slot;
        let d = st.p.Packed.dest.(i) in
        st.s_dest.(slot) <- d;
        st.s_needs_bus.(slot) <- d >= 0;
        st.s_pending.(slot) <- 0;
        st.s_ready.(slot) <- 0;
        st.dep_head.(slot) <- -1;
        depend_srcs st ~slot ~s:st.p.Packed.src_off.(i)
          ~stop:st.p.Packed.src_off.(i + 1);
        (if Packed.is_mem st.p i then
           let r =
             Int_table.find st.mem_writer ~default:(-1)
               (st.p.Packed.addr.(i) - st.bias)
           in
           if r >= 0 && st.s_uid.(r mod st.ruu_size) = r / st.ruu_size then
             depend st ~slot (r mod st.ruu_size));
        (* issue order is window order: a ready entry appends *)
        if st.s_pending.(slot) = 0 then
          if st.s_ready.(slot) <= t then make_ready st slot
          else park st slot ~ready:st.s_ready.(slot);
        if d >= 0 then st.latest_writer.(d) <- slot;
        if Packed.kind st.p i = Packed.kind_store then
          Int_table.set st.mem_writer
            (st.p.Packed.addr.(i) - st.bias)
            ((uid * st.ruu_size) + slot);
        st.next <- st.next + 1;
        issue_loop st ~t (issued + 1)
      end

  let issue_pass st ~t =
    if t < st.stall_until then begin
      lower_wake st st.stall_until;
      0
    end
    else issue_loop st ~t 0

  let diagnose st ~t =
    if st.next >= st.p.Packed.n then Metrics.Drain
    else if t < st.stall_until then Metrics.Branch
    else if Packed.is_branch st.p st.next then Metrics.Raw
    else Metrics.Buffer_refill

  (* -- dispatch stage ------------------------------------------------------ *)

  (* Select: the oracle's arbitration over the ready set in window
     order, stopping where the oracle stops (budget spent) and
     compacting the entries left waiting to the front. *)
  let rec select st ~t ~total_budget ~bank_used ~i ~w dispatched =
    if i >= st.nrdy then begin
      st.nrdy <- w;
      dispatched
    end
    else if dispatched >= total_budget then begin
      Array.blit st.rdy i st.rdy w (st.nrdy - i);
      st.nrdy <- w + st.nrdy - i;
      dispatched
    end
    else begin
      let slot = st.rdy.(i) in
      let b = st.s_bank.(slot) in
      let fu = st.s_fu.(slot) in
      let fu_ok = (not Packed.shared_unit.(fu)) || st.fu_last_used.(fu) <> t in
      let completion = t + st.lat.(fu) in
      let bus_ok =
        (match st.bus with
        | Sim_types.One_bus | Sim_types.N_bus -> bank_used land (1 lsl b) = 0
        | Sim_types.X_bar -> true)
        && ((not st.s_needs_bus.(slot))
           || result_bus_free st ~cycle:completion ~bank:b)
      in
      (* a ready entry with a free unit that the interconnect turned away
         (bank claimed this cycle, or no write-back slot at completion) *)
      (if fu_ok && not bus_ok then
         match st.metrics with
         | Some m -> Metrics.record_bus_reject m
         | None -> ());
      if fu_ok && bus_ok then begin
        st.s_dispatched.(slot) <- true;
        st.s_completion.(slot) <- completion;
        (match st.metrics with
        | Some m when Packed.shared_unit.(fu) ->
            Metrics.record_fu_busy m (Fu.of_index fu) 1
        | _ -> ());
        st.fu_last_used.(fu) <- t;
        if st.s_needs_bus.(slot) then
          reserve_result_bus st ~cycle:completion ~bank:b;
        if completion > st.finish then st.finish <- completion;
        let e = st.dep_head.(slot) in
        st.dep_head.(slot) <- -1;
        wake_deps st ~c:completion e;
        select st ~t ~total_budget
          ~bank_used:(bank_used lor (1 lsl b))
          ~i:(i + 1) ~w (dispatched + 1)
      end
      else begin
        st.rdy.(w) <- slot;
        select st ~t ~total_budget ~bank_used ~i:(i + 1) ~w:(w + 1) dispatched
      end
    end

  let dispatch_pass st ~t =
    let b = t land (Array.length st.wh_head - 1) in
    let woken = st.wh_head.(b) in
    st.wh_head.(b) <- -1;
    drain st woken;
    let total_budget =
      match st.bus with Sim_types.One_bus -> 1 | _ -> st.issue_units
    in
    let dispatched = select st ~t ~total_budget ~bank_used:0 ~i:0 ~w:0 0 in
    (* on a zero-dispatch cycle a waiting ready entry is blocked only by
       the result bus, which shifts with [t] *)
    if st.nrdy > 0 then lower_wake st (t + 1);
    dispatched

  (* Before an event skip from [t]: the earliest non-empty wheel bucket is
     a wake candidate, so a jump never passes a bucket. *)
  let rec wheel_wake st ~stop c =
    if c < stop && c < st.wake then
      if st.wh_head.(c land (Array.length st.wh_head - 1)) >= 0 then
        st.wake <- c
      else wheel_wake st ~stop (c + 1)

  (* -- commit stage --------------------------------------------------------- *)

  let rec commit_loop st ~t ~budget committed =
    if committed >= budget || st.count = 0 then committed
    else
      let slot = st.head in
      if st.s_dispatched.(slot) && st.s_completion.(slot) <= t then begin
        let d = st.s_dest.(slot) in
        if d >= 0 && st.latest_writer.(d) = slot then st.latest_writer.(d) <- -1;
        st.head <- (if st.head + 1 >= st.ruu_size then 0 else st.head + 1);
        st.count <- st.count - 1;
        commit_loop st ~t ~budget (committed + 1)
      end
      else begin
        if st.s_dispatched.(slot) then lower_wake st st.s_completion.(slot);
        committed
      end

  let commit_pass st ~t =
    let budget =
      match st.bus with Sim_types.One_bus -> 1 | _ -> st.issue_units
    in
    commit_loop st ~t ~budget 0
end

let rec pow2_at_least n = if n <= 1 then 1 else 2 * pow2_at_least ((n + 1) / 2)

(* The ring rotations the walker is equivariant under: no slot is read
   absolutely except through its dispatch bank, [slot mod issue_units] on
   [N_bus] and 0 otherwise. Rotating every slot by a multiple of [g]
   keeps every bank, so only [head mod g] and head-relative slots
   distinguish states. When [issue_units] does not divide [ruu_size],
   rotating by [issue_units] moves banks across the wrap-around, and
   only whole turns are safe. *)
let rotation ~issue_units ~ruu_size = function
  | Sim_types.One_bus | Sim_types.X_bar -> 1
  | Sim_types.N_bus ->
      if ruu_size mod issue_units = 0 then issue_units else ruu_size

(* Steady-state fingerprint, normalized by [now = t] at the top of a
   cycle where exactly the entries before the boundary have issued.
   Slots are pushed relative to the head, and the head itself only
   modulo {!rotation}: states that differ by such a rotation replay each
   other. Times at or before [now] are dead (commit compares
   [<= t], readiness [<= t], same-cycle unit reuse [= t], and probed
   result-bus cycles are > [now]), so they clamp to 0; that also merges
   an entry already in the ready set with one parked under cycle [now],
   which drains into it before select runs. Each live slot contributes
   its pending-edge count, its operand-ready max (dead once dispatched)
   and its wakeup list as the consumers' relative slots, [-1]-terminated
   (an edge's operand index only numbers it, so it is left out; list
   order is reverse issue order either way). The ready set and the
   wheel are not serialized:
   membership follows from the pending counts and ready cycles, the
   ready set is sorted by window order, and drain order within a bucket
   cannot matter. In-flight store-map entries survive only while their
   producer is live, and are sorted by translated address (the
   open-addressing table's physical order must not leak). [uid_next]
   and the uids are excluded: generations only matter through that
   liveness test and through window order. *)
let fingerprint st ~maxlat pr pos now =
  let ruu_size = st.Fast.ruu_size in
  let head = st.Fast.head in
  let rel slot = if slot < head then slot - head + ruu_size else slot - head in
  let fp = ref [] in
  let push v = fp := v :: !fp in
  let after v = if v = max_int then -1 else if v > now then v - now else 0 in
  push
    (head
    mod rotation ~issue_units:st.Fast.issue_units ~ruu_size st.Fast.bus);
  push st.Fast.count;
  push (after st.Fast.stall_until);
  push (after st.Fast.finish);
  for c = now + 1 to now + maxlat do
    push (Fast.rb_get st c)
  done;
  Array.iter
    (fun v -> push (if v >= now then v - now + 1 else 0))
    st.Fast.fu_last_used;
  Array.iter
    (fun w -> push (if w < 0 then -1 else rel w))
    st.Fast.latest_writer;
  Array.iter push st.Fast.counters;
  for k = 0 to st.Fast.count - 1 do
    let slot = (head + k) mod ruu_size in
    push st.Fast.s_dest.(slot);
    push st.Fast.s_fu.(slot);
    if st.Fast.s_dispatched.(slot) then begin
      push 1;
      push (after st.Fast.s_completion.(slot))
    end
    else begin
      push 0;
      push st.Fast.s_pending.(slot);
      push (after st.Fast.s_ready.(slot));
      let e = ref st.Fast.dep_head.(slot) in
      while !e >= 0 do
        push (rel (!e / st.Fast.maxprod));
        e := st.Fast.dep_next.(!e)
      done;
      push (-1)
    end
  done;
  let live = ref [] in
  Int_table.iter
    (fun addr r ->
      let slot = r mod ruu_size and uid = r / ruu_size in
      let off = rel slot in
      if
        off < st.Fast.count
        && st.Fast.s_uid.(slot) = uid
        && st.Fast.s_completion.(slot) > now
      then live := (addr - pr.Steady.addr_off, off) :: !live)
    st.Fast.mem_writer;
  let live = List.sort compare !live in
  push (List.length live);
  List.iter
    (fun (a, s) ->
      push a;
      push s)
    live;
  pr.Steady.fire ~pos ~time:now ~fp:!fp

let simulate_packed ?metrics ?probe ~branches ~config ~issue_units ~ruu_size
    ~bus (p : Packed.t) =
  let n = p.Packed.n in
  let maxprod = p.Packed.max_srcs + 1 in
  (* power of two >= the live-cycle span (max latency + 2), so ring
     indexing is a mask *)
  let ring = pow2_at_least (Packed.max_latency config + 2) in
  let st =
    {
      Fast.p;
      lat = Packed.latency_table config;
      branch_time = Config.branch_time config;
      issue_units;
      ruu_size;
      metrics;
      bus;
      s_uid = Array.make ruu_size (-1);
      s_fu = Array.make ruu_size 0;
      s_dest = Array.make ruu_size (-1);
      s_needs_bus = Array.make ruu_size false;
      s_dispatched = Array.make ruu_size false;
      s_completion = Array.make ruu_size 0;
      s_bank = Array.make ruu_size 0;
      s_pending = Array.make ruu_size 0;
      s_ready = Array.make ruu_size 0;
      dep_head = Array.make ruu_size (-1);
      dep_next = Array.make (ruu_size * maxprod) (-1);
      maxprod;
      wh_head = Array.make ring (-1);
      wh_next = Array.make ruu_size (-1);
      rdy = Array.make ruu_size 0;
      nrdy = 0;
      head = 0;
      count = 0;
      uid_next = 0;
      latest_writer = Array.make Reg.count (-1);
      mem_writer = Int_table.create 256;
      rb_tag = Array.make ring (-1);
      rb_val = Array.make ring 0;
      fu_last_used = Array.make Fu.count (-1);
      branches;
      counters = (match branches with Bimodal n -> Array.make n 0 | _ -> [||]);
      stall_until = 0;
      next = 0;
      bias = 0;
      finish = 0;
      wake = max_int;
    }
  in
  (* The event skip must replay every cycle under [Bimodal]: a blocked
     branch re-predicts (and trains its 2-bit counter) each retried
     cycle, and can even flip to a correct prediction — and issue —
     mid-wait, so zero-activity cycles carry predictor state. The other
     policies are stateless per cycle. *)
  let can_skip = match branches with Bimodal _ -> false | _ -> true in
  let maxlat = Packed.max_latency config in
  let t = ref 0 in
  let guard = ref (400 * (n + 100)) in
  while not (st.Fast.next >= n && st.Fast.count = 0) do
    (match probe with
    | Some pr when st.Fast.next >= pr.Steady.next_pos ->
        if st.Fast.next > pr.Steady.next_pos then
          pr.Steady.missed (st.Fast.next - 1);
        if st.Fast.next = pr.Steady.next_pos then begin
          let skip = fingerprint st ~maxlat pr st.Fast.next !t in
          st.Fast.next <- st.Fast.next + skip;
          st.Fast.bias <- pr.Steady.bias
        end
    | _ -> ());
    (match metrics with
    | Some m -> Metrics.record_occupancy m st.Fast.count
    | None -> ());
    st.Fast.wake <- max_int;
    let committed = Fast.commit_pass st ~t:!t in
    let dispatched = Fast.dispatch_pass st ~t:!t in
    let issued = Fast.issue_pass st ~t:!t in
    (match metrics with
    | Some m ->
        if issued > 0 then begin
          Metrics.record_issue ~width:issued m 1;
          Metrics.record_instructions m issued
        end
        else Metrics.record_stall m (Fast.diagnose st ~t:!t) 1;
        incr t
    | None ->
        if can_skip && committed = 0 && dispatched = 0 && issued = 0 then begin
          Fast.wheel_wake st ~stop:(!t + ring) (!t + 1);
          if st.Fast.wake > !t + 1 && st.Fast.wake < max_int then
            t := st.Fast.wake
          else incr t
        end
        else incr t);
    decr guard;
    if !guard <= 0 then failwith "Ruu.simulate: no progress"
  done;
  let cycles = max st.Fast.finish !t in
  (match metrics with
  | Some m -> Metrics.record_stall m Metrics.Drain (cycles - !t)
  | None -> ());
  { Sim_types.cycles; instructions = n }

(* Ring-position gate for steady-state probing: fingerprints keep the
   ring head modulo [g] ({!rotation}), and each period issues [q]
   non-branch entries, so two boundaries [j < k] can only match when
   [(k - j) * q] is a multiple of [g]. *)
let min_repeat ~issue_units ~ruu_size ~bus p (pd : Packed.period) =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let g = rotation ~issue_units ~ruu_size bus in
  let q = ref 0 in
  for i = pd.Packed.p_start to pd.Packed.p_start + pd.Packed.p_len - 1 do
    if not (Packed.is_branch p i) then incr q
  done;
  g / gcd !q g

let simulate ?metrics ?(branches = Stall) ?(accel = true) ~config ~issue_units
    ~ruu_size ~bus (trace : Trace.t) =
  if issue_units < 1 then invalid_arg "Ruu.simulate: issue_units < 1";
  if ruu_size < issue_units then invalid_arg "Ruu.simulate: ruu_size too small";
  (match branches with
  | Bimodal n when n < 1 -> invalid_arg "Ruu.simulate: bimodal table size < 1"
  | _ -> ());
  if accel then
    (* The walker reads an address only to find the latest earlier store
       to it that is still in the window, so addresses relabelled by
       memory dependence over a [ruu_size] horizon drive it exactly as
       the originals do. The issue pass examines up to [issue_units]
       entries past [next] in a cycle. *)
    Steady.run ?metrics ~lookahead:issue_units
      ~min_repeat:(min_repeat ~issue_units ~ruu_size ~bus)
      (Packed.relabel (Packed.cached trace) ~horizon:ruu_size)
      (fun ~metrics ~probe p ->
        simulate_packed ?metrics ?probe ~branches ~config ~issue_units
          ~ruu_size ~bus p)
  else
    simulate_packed ?metrics ~branches ~config ~issue_units ~ruu_size ~bus
      (Packed.cached trace)

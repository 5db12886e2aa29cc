(* The original entry-record RUU walker, the differential oracle for the
   packed fast path of {!Mfu_sim.Ruu}. *)

module Config = Mfu_isa.Config
module Fu = Mfu_isa.Fu
module Reg = Mfu_isa.Reg
module Trace = Mfu_exec.Trace
module Sim_types = Mfu_sim.Sim_types
module Metrics = Sim_types.Metrics

type branch_handling = Mfu_sim.Ruu.branch_handling =
  | Stall
  | Oracle
  | Static_taken
  | Bimodal of int

type entry = {
  slot : int;
  issue_cycle : int;
  fu : Fu.kind;
  dest : Reg.t option;
  producers : entry list;  (* in-flight instructions this one waits for *)
  needs_result_bus : bool;
  mutable dispatched : bool;
  mutable completion : int; (* result available in the RUU; max_int until known *)
}

type state = {
  config : Config.t;
  issue_units : int;
  ruu_size : int;
  metrics : Metrics.t option;
  bus : Sim_types.bus_model;
  entries : entry option array; (* ring buffer, indexed by slot *)
  mutable head : int;
  mutable count : int;
  latest_writer : entry option array; (* per architectural register *)
  mem_writer : (int, entry) Hashtbl.t; (* last in-flight store per address *)
  result_bus : (int, int) Hashtbl.t; (* key cycle -> per-cycle use bitmap/count *)
  fu_last_used : int array;
  branches : branch_handling;
  counters : int array; (* bimodal 2-bit counters (unused otherwise) *)
  mutable stall_until : int;
  mutable next : int; (* next trace index to issue *)
  mutable finish : int;
}

let bank st slot =
  match st.bus with
  | Sim_types.One_bus -> 0
  | Sim_types.N_bus -> slot mod st.issue_units
  | Sim_types.X_bar -> 0 (* unused: X-bar counts total uses *)

(* FU->RUU result-bus availability at [cycle]. For banked models the bitmap
   has one bit per bank; for the crossbar we count total uses. *)
let result_bus_free st ~cycle ~bank:b =
  let cur = Option.value ~default:0 (Hashtbl.find_opt st.result_bus cycle) in
  match st.bus with
  | Sim_types.One_bus | Sim_types.N_bus -> cur land (1 lsl b) = 0
  | Sim_types.X_bar -> cur < st.issue_units

let reserve_result_bus st ~cycle ~bank:b =
  let cur = Option.value ~default:0 (Hashtbl.find_opt st.result_bus cycle) in
  let v =
    match st.bus with
    | Sim_types.One_bus | Sim_types.N_bus -> cur lor (1 lsl b)
    | Sim_types.X_bar -> cur + 1
  in
  Hashtbl.replace st.result_bus cycle v

let ruu_full st = st.count >= st.ruu_size

let alloc_slot st =
  let slot = (st.head + st.count) mod st.ruu_size in
  st.count <- st.count + 1;
  slot

let operand_ready_cycle (e : entry) =
  List.fold_left (fun acc p -> max acc p.completion) 0 e.producers

(* -- issue stage ---------------------------------------------------------- *)

let producers_of st (e : Trace.entry) =
  let reg_producers =
    List.filter_map (fun r -> st.latest_writer.(Reg.index r)) e.srcs
  in
  let mem_producers =
    match e.kind with
    | Trace.Load a | Trace.Store a -> (
        match Hashtbl.find_opt st.mem_writer a with
        | Some p -> [ p ]
        | None -> [])
    | _ -> []
  in
  reg_producers @ mem_producers

(* the branch's condition register (A0 or S0) must have been produced *)
let branch_operands_ready st (e : Trace.entry) ~t =
  List.for_all
    (fun r ->
      match st.latest_writer.(Reg.index r) with
      | None -> true
      | Some p -> p.completion <= t)
    e.Trace.srcs

(* Predict a branch and update predictor state; returns whether the
   prediction matched the trace outcome. *)
let predict st (e : Trace.entry) =
  let taken = match e.Trace.kind with Trace.Taken_branch -> true | _ -> false in
  match st.branches with
  | Stall -> false
  | Oracle -> true
  | Static_taken -> taken
  | Bimodal n ->
      let slot = e.Trace.static_index mod n in
      let counter = st.counters.(slot) in
      let predicted_taken = counter >= 2 in
      st.counters.(slot) <-
        (if taken then min 3 (counter + 1) else max 0 (counter - 1));
      predicted_taken = taken

let issue_pass st ~t (trace : Trace.t) =
  let n = Array.length trace in
  let issued = ref 0 in
  let blocked = ref false in
  while
    (not !blocked) && !issued < st.issue_units && t >= st.stall_until
    && st.next < n
  do
    let e = trace.(st.next) in
    if Trace.is_branch e then begin
      let correctly_predicted = st.branches <> Stall && predict st e in
      if correctly_predicted then begin
        (* speculation: issue resumes one cycle after the branch; the
           branch itself still resolves on the branch unit *)
        st.stall_until <- t + 1;
        st.finish <- max st.finish (t + Config.branch_time st.config);
        st.next <- st.next + 1;
        incr issued;
        blocked := true
      end
      else if branch_operands_ready st e ~t then begin
        (* stall (or misprediction recovery): the issue stage is blocked
           for the branch execution time *)
        st.stall_until <- t + Config.branch_time st.config;
        st.finish <- max st.finish (t + Config.branch_time st.config);
        st.next <- st.next + 1;
        incr issued;
        blocked := true
      end
      else blocked := true
    end
    else if ruu_full st then blocked := true
    else begin
      let slot = alloc_slot st in
      let entry =
        {
          slot;
          issue_cycle = t;
          fu = e.fu;
          dest = e.dest;
          producers = producers_of st e;
          needs_result_bus = Trace.produces_result e;
          dispatched = false;
          completion = max_int;
        }
      in
      st.entries.(slot) <- Some entry;
      (match e.dest with
      | Some d -> st.latest_writer.(Reg.index d) <- Some entry
      | None -> ());
      (match e.kind with
      | Trace.Store a -> Hashtbl.replace st.mem_writer a entry
      | _ -> ());
      st.next <- st.next + 1;
      incr issued
    end
  done;
  !issued

(* Why the issue stage made no progress at cycle [t]: with the trace
   exhausted the machine is draining the RUU; otherwise a branch either
   blocks the stage or waits for its condition register, or the RUU is
   full. Only called on zero-issue cycles. *)
let diagnose st ~t (trace : Trace.t) =
  if st.next >= Array.length trace then Metrics.Drain
  else if t < st.stall_until then Metrics.Branch
  else begin
    let e = trace.(st.next) in
    if Trace.is_branch e then Metrics.Raw
      (* the branch's condition register is not produced yet *)
    else Metrics.Buffer_refill (* RUU full: the only non-branch blocker *)
  end

(* -- dispatch stage -------------------------------------------------------- *)

let dispatch_pass st ~t =
  (* Per-cycle dispatch-bus budget. *)
  let total_budget =
    match st.bus with Sim_types.One_bus -> 1 | _ -> st.issue_units
  in
  let bank_used = ref 0 in
  let dispatched_total = ref 0 in
  let i = ref 0 in
  while !dispatched_total < total_budget && !i < st.count do
    let slot = (st.head + !i) mod st.ruu_size in
    (match st.entries.(slot) with
    | Some entry when (not entry.dispatched) && entry.issue_cycle < t ->
        let b = bank st entry.slot in
        let bank_ok =
          match st.bus with
          | Sim_types.One_bus | Sim_types.N_bus -> !bank_used land (1 lsl b) = 0
          | Sim_types.X_bar -> true
        in
        let ready = operand_ready_cycle entry <= t in
        if ready then begin
          let fu_ok =
            (not (Fu.is_shared_unit entry.fu))
            || st.fu_last_used.(Fu.index entry.fu) <> t
          in
          let latency = Config.latency st.config entry.fu in
          let completion = t + latency in
          let bus_ok =
            (not entry.needs_result_bus)
            || result_bus_free st ~cycle:completion ~bank:b
          in
          (* A ready entry with a free unit the interconnect turned
             away (bank claimed this cycle, or no write-back slot at
             completion): the bus shaped this run. Recorded so a
             conflict-free N-bus run can certify its crossbar twin
             byte-identical (see Mfu_explore.Sweep). An entry whose
             unit is busy is refused on any interconnect, so it never
             counts. *)
          (if fu_ok && not (bank_ok && bus_ok) then
             match st.metrics with
             | Some m -> Metrics.record_bus_reject m
             | None -> ());
          if bank_ok && fu_ok && bus_ok then begin
            entry.dispatched <- true;
            entry.completion <- completion;
            (match st.metrics with
            | Some m when Fu.is_shared_unit entry.fu ->
                Metrics.record_fu_busy m entry.fu 1
            | _ -> ());
            st.fu_last_used.(Fu.index entry.fu) <- t;
            if entry.needs_result_bus then
              reserve_result_bus st ~cycle:completion ~bank:b;
            bank_used := !bank_used lor (1 lsl b);
            incr dispatched_total;
            st.finish <- max st.finish completion
          end
        end
    | _ -> ());
    incr i
  done

(* -- commit stage ----------------------------------------------------------- *)

let commit_pass st ~t =
  let budget =
    match st.bus with Sim_types.One_bus -> 1 | _ -> st.issue_units
  in
  let committed = ref 0 in
  let continue_ = ref true in
  while !continue_ && !committed < budget && st.count > 0 do
    match st.entries.(st.head) with
    | Some entry when entry.dispatched && entry.completion <= t ->
        (* retire: free the slot, clear writer maps that still point here *)
        (match entry.dest with
        | Some d ->
            (match st.latest_writer.(Reg.index d) with
            | Some w when w == entry -> st.latest_writer.(Reg.index d) <- None
            | _ -> ())
        | None -> ());
        st.entries.(st.head) <- None;
        st.head <- (st.head + 1) mod st.ruu_size;
        st.count <- st.count - 1;
        incr committed
    | _ -> continue_ := false
  done

let simulate ?metrics ?(branches = Stall) ~config ~issue_units ~ruu_size
    ~bus (trace : Trace.t) =
  let st =
    {
      config;
      issue_units;
      ruu_size;
      metrics;
      bus;
      entries = Array.make ruu_size None;
      head = 0;
      count = 0;
      latest_writer = Array.make Reg.count None;
      mem_writer = Hashtbl.create 256;
      result_bus = Hashtbl.create 1024;
      fu_last_used = Array.make Fu.count (-1);
      branches;
      counters = (match branches with Bimodal n -> Array.make n 0 | _ -> [||]);
      stall_until = 0;
      next = 0;
      finish = 0;
    }
  in
  let n = Array.length trace in
  let t = ref 0 in
  let guard = ref (400 * (n + 100)) in
  while not (st.next >= n && st.count = 0) do
    (match metrics with
    | Some m -> Metrics.record_occupancy m st.count
    | None -> ());
    commit_pass st ~t:!t;
    dispatch_pass st ~t:!t;
    let issued = issue_pass st ~t:!t trace in
    (match metrics with
    | Some m ->
        if issued > 0 then begin
          Metrics.record_issue ~width:issued m 1;
          Metrics.record_instructions m issued
        end
        else Metrics.record_stall m (diagnose st ~t:!t trace) 1
    | None -> ());
    incr t;
    decr guard;
    if !guard <= 0 then failwith "Ruu.simulate: no progress"
  done;
  let cycles = max st.finish !t in
  (match metrics with
  | Some m -> Metrics.record_stall m Metrics.Drain (cycles - !t)
  | None -> ());
  { Sim_types.cycles; instructions = n }

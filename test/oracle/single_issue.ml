(* The original entry-record walker, the differential oracle for the
   packed fast path of {!Mfu_sim.Single_issue}. *)

module Config = Mfu_isa.Config
module Fu = Mfu_isa.Fu
module Reg = Mfu_isa.Reg
module Trace = Mfu_exec.Trace
module Sim_types = Mfu_sim.Sim_types
module Metrics = Sim_types.Metrics
module Memory_system = Mfu_sim.Memory_system

type organization = Mfu_sim.Single_issue.organization =
  | Simple
  | Serial_memory
  | Non_segmented
  | Cray_like

let unit_is_serial = Mfu_sim.Single_issue.unit_is_serial

let mem_addr (e : Trace.entry) =
  match e.kind with Trace.Load a | Trace.Store a -> Some a | _ -> None

let simulate ?metrics ?(memory = Memory_system.ideal) ~config org
    (trace : Trace.t) =
  let mem_state = Memory_system.create memory in
  let reg_ready = Array.make Reg.count 0 in
  let fu_free = Array.make Fu.count 0 in
  let issue_free = ref 0 in
  let prev_completion = ref 0 in
  let finish = ref 0 in
  let branch_time = Config.branch_time config in
  Array.iter
    (fun (e : Trace.entry) ->
      let latency =
        if Trace.is_branch e then branch_time else Config.latency config e.fu
      in
      let t = ref !issue_free in
      (* Binding stall cause: the constraint that last *raised* the issue
         time. Ties keep the earlier (higher-priority) cause, matching the
         original [max] exactly. *)
      let why = ref Metrics.Drain in
      let raise_to cause v =
        if v > !t then begin
          t := v;
          why := cause
        end
      in
      (match org with
      | Simple ->
          (* Execution stage must be empty; no other checks needed. *)
          raise_to Metrics.Fu_busy !prev_completion
      | Serial_memory | Non_segmented | Cray_like ->
          List.iter
            (fun r -> raise_to Metrics.Raw reg_ready.(Reg.index r))
            e.srcs;
          (match e.dest with
          | Some d -> raise_to Metrics.Waw reg_ready.(Reg.index d)
          | None -> ());
          if Fu.is_shared_unit e.fu then
            raise_to Metrics.Fu_busy fu_free.(Fu.index e.fu));
      (* interleaved-memory bank conflicts (pipelined memory orgs only) *)
      (match (org, mem_addr e) with
      | (Non_segmented | Cray_like), Some addr
        when not (unit_is_serial org e.fu) ->
          raise_to Metrics.Memory_conflict
            (Memory_system.accept mem_state ~addr ~from_:!t)
      | _ -> ());
      let t = !t in
      (* a vector instruction delivers its last element vl-1 cycles after
         the first, and streams vl operands through its (pipelined) unit *)
      let completion = t + latency + e.vl - 1 in
      let occupancy =
        if unit_is_serial org e.fu then latency + e.vl - 1 else max 1 e.vl
      in
      (match metrics with
      | Some m ->
          Metrics.record_stall m !why (t - !issue_free);
          if Trace.is_branch e then begin
            Metrics.record_issue m 1;
            Metrics.record_stall m Metrics.Branch (branch_time - 1)
          end
          else Metrics.record_issue m e.parcels;
          Metrics.record_instructions m 1;
          if Fu.is_shared_unit e.fu then Metrics.record_fu_busy m e.fu occupancy
      | None -> ());
      (match e.dest with
      | Some d -> reg_ready.(Reg.index d) <- completion
      | None -> ());
      if Fu.is_shared_unit e.fu then
        fu_free.(Fu.index e.fu) <- t + occupancy;
      prev_completion := completion;
      finish := max !finish completion;
      issue_free := t + (if Trace.is_branch e then branch_time else e.parcels))
    trace;
  let cycles = max !finish !issue_free in
  (match metrics with
  | Some m -> Metrics.record_stall m Metrics.Drain (cycles - !issue_free)
  | None -> ());
  { Sim_types.cycles; instructions = Array.length trace }

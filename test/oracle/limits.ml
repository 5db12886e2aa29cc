(* The original entry-record dataflow walk, the differential oracle for
   the packed fast path of {!Mfu_limits.Limits}. *)

module Config = Mfu_isa.Config
module Fu = Mfu_isa.Fu
module Reg = Mfu_isa.Reg
module Trace = Mfu_exec.Trace
module Metrics = Mfu_sim.Sim_types.Metrics
module Limits = Mfu_limits.Limits

let latency_of config (e : Trace.entry) =
  if Trace.is_branch e then Config.branch_time config
  else Config.latency config e.fu

(* One pass over the trace computing the dataflow critical path. When
   [serial_waw] is set, writes to the same register are forced to finish in
   program order and readers observe the delayed completion.

   When [metrics] is given, the walk also reconstructs a per-cycle view of
   the idealized dataflow machine from the instruction start times: a cycle
   in which k >= 1 instructions begin is an issue cycle of width k; an
   empty cycle before the last start is attributed to the constraint that
   delays the next instruction to start ([Branch] for control dependences,
   [Raw] for register dependences, [Memory_conflict] for store->load token
   waits); cycles after the last start are [Drain]. The occupancy histogram
   records the number of in-flight instructions per cycle. *)
let dataflow_path ?metrics ~config ~serial_waw (trace : Trace.t) =
  let reg_avail = Array.make Reg.count 0 in
  (* Per address: cycle at which the most recent store's value token is
     available. In a dataflow graph a store->load pair is direct token
     passing, so a load that hits an in-flight store receives the value one
     cycle after the store starts, not a full memory access later. Loads
     with no in-flight producer pay the memory latency. *)
  let store_token : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let branch_resolved = ref 0 in
  let finish = ref 0 in
  (* (start, completion, binding cause) per instruction, prepended — so the
     list holds reverse trace order. Only filled when metrics is given. *)
  let events = ref [] in
  Array.iter
    (fun (e : Trace.entry) ->
      let start = ref 0 in
      let why = ref None in
      let raise_to cause v =
        if v > !start then begin
          start := v;
          why := Some cause
        end
      in
      raise_to Metrics.Branch !branch_resolved;
      List.iter (fun r -> raise_to Metrics.Raw reg_avail.(Reg.index r)) e.srcs;
      let forwarded =
        match e.kind with
        | Trace.Load a -> Hashtbl.find_opt store_token a
        | _ -> None
      in
      (match forwarded with
      | Some token -> raise_to Metrics.Memory_conflict token
      | None -> ());
      let latency =
        match forwarded with
        | Some _ -> 1 (* value arrives by token, not by memory access *)
        | None -> latency_of config e
      in
      let completion = ref (!start + latency) in
      (match e.dest with
      | Some d ->
          if serial_waw then
            (* in-order completion per register: cannot finish before one
               cycle after the previous writer of this register *)
            completion := max !completion (reg_avail.(Reg.index d) + 1);
          reg_avail.(Reg.index d) <- !completion
      | None -> ());
      (match e.kind with
      | Trace.Store a -> Hashtbl.replace store_token a (!start + 1)
      | Trace.Taken_branch | Trace.Untaken_branch ->
          branch_resolved := !completion
      | Trace.Load _ | Trace.Plain -> ());
      (match metrics with
      | Some m ->
          events := (!start, !completion, !why) :: !events;
          if Fu.is_shared_unit e.fu then Metrics.record_fu_busy m e.fu 1
      | None -> ());
      finish := max !finish !completion)
    trace;
  let finish = !finish in
  (match metrics with
  | Some m when finish > 0 ->
      Metrics.record_instructions m (Array.length trace);
      let counts = Array.make finish 0 in
      let cause_at = Array.make finish None in
      let inflight_diff = Array.make (finish + 1) 0 in
      (* [events] is reverse trace order, so the unconditional [cause_at]
         write leaves the FIRST instruction (in trace order) starting at a
         cycle as that cycle's representative cause. *)
      List.iter
        (fun (s, c, why) ->
          counts.(s) <- counts.(s) + 1;
          cause_at.(s) <- why;
          inflight_diff.(s) <- inflight_diff.(s) + 1;
          inflight_diff.(c) <- inflight_diff.(c) - 1)
        !events;
      (* walk cycles top-down carrying the cause of the nearest later start;
         cycles above the last start drain the pipeline *)
      let carry = ref Metrics.Drain in
      for c = finish - 1 downto 0 do
        if counts.(c) > 0 then begin
          Metrics.record_issue ~width:counts.(c) m 1;
          match cause_at.(c) with Some k -> carry := k | None -> ()
        end
        else Metrics.record_stall m !carry 1
      done;
      let inflight = ref 0 in
      for c = 0 to finish - 1 do
        inflight := !inflight + inflight_diff.(c);
        Metrics.record_occupancy m !inflight
      done
  | _ -> ());
  finish

let critical_path ?metrics ~config trace =
  dataflow_path ?metrics ~config ~serial_waw:false trace

let analyze ?metrics ~config (trace : Trace.t) =
  let n = Array.length trace in
  if n = 0 then
    {
      Limits.instructions = 0;
      pseudo_dataflow = 0.;
      serial_dataflow = 0.;
      resource = 0.;
    }
  else
    let rate time = float_of_int n /. float_of_int (max 1 time) in
    {
      Limits.instructions = n;
      pseudo_dataflow =
        rate (dataflow_path ?metrics ~config ~serial_waw:false trace);
      serial_dataflow = rate (dataflow_path ~config ~serial_waw:true trace);
      resource = rate (Limits.resource_time ~config trace);
    }

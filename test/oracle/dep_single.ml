(* The original Hashtbl walker, the differential oracle for the packed
   fast path of {!Mfu_sim.Dep_single}. *)

module Config = Mfu_isa.Config
module Fu = Mfu_isa.Fu
module Reg = Mfu_isa.Reg
module Trace = Mfu_exec.Trace
module Sim_types = Mfu_sim.Sim_types
module Metrics = Sim_types.Metrics

type scheme = Mfu_sim.Dep_single.scheme = Scoreboard | Tomasulo

type state = {
  config : Config.t;
  scheme : scheme;
  metrics : Metrics.t option;
  ready : int array; (* per register: completion of the latest writer *)
  fu_used : (int, unit) Hashtbl.t; (* (fu, cycle) acceptance slots *)
  cdb_used : (int, unit) Hashtbl.t; (* Tomasulo common data bus slots *)
  mem_ready : (int, int) Hashtbl.t; (* per address: last store completion *)
  mutable issue_free : int;
  mutable finish : int;
}

let fu_key fu cycle = (cycle * 16) + Fu.index fu

(* First cycle >= [from_] at which the (pipelined) unit accepts a new
   operation; reserves the slot. Transfers use dedicated paths. *)
let claim_fu st fu ~from_ =
  if not (Fu.is_shared_unit fu) then from_
  else begin
    let c = ref from_ in
    while Hashtbl.mem st.fu_used (fu_key fu !c) do
      incr c
    done;
    Hashtbl.replace st.fu_used (fu_key fu !c) ();
    !c
  end

(* First cycle >= [from_] with a free common-data-bus slot; reserves it. *)
let claim_cdb st ~from_ =
  let c = ref from_ in
  while Hashtbl.mem st.cdb_used !c do
    incr c
  done;
  Hashtbl.replace st.cdb_used !c ();
  !c

let srcs_ready st srcs =
  List.fold_left (fun acc r -> max acc st.ready.(Reg.index r)) 0 srcs

let step st (e : Trace.entry) =
  let latency = Config.latency st.config e.fu in
  let branch_time = Config.branch_time st.config in
  if Trace.is_branch e then begin
    (* wait for A0 at the issue stage, then block for the branch time *)
    let t = max st.issue_free (srcs_ready st e.srcs) in
    let resolution = t + branch_time in
    (match st.metrics with
    | Some m ->
        (* the wait for the condition register is a RAW stall; the blocked
           cycles after the branch issues are Branch stalls *)
        Metrics.record_stall m Metrics.Raw (t - st.issue_free);
        Metrics.record_issue m 1;
        Metrics.record_stall m Metrics.Branch (branch_time - 1);
        Metrics.record_instructions m 1
    | None -> ());
    st.issue_free <- resolution;
    st.finish <- max st.finish resolution
  end
  else begin
    let t =
      match st.scheme with
      | Tomasulo -> st.issue_free
      | Scoreboard -> (
          (* WAW: the destination must not be reserved *)
          match e.dest with
          | Some d -> max st.issue_free st.ready.(Reg.index d)
          | None -> st.issue_free)
    in
    (match st.metrics with
    | Some m ->
        (* only a reserved destination blocks the issue stage here: RAW
           hazards wait at the functional unit, not at issue *)
        Metrics.record_stall m Metrics.Waw (t - st.issue_free);
        Metrics.record_issue m e.parcels;
        Metrics.record_instructions m 1;
        if Fu.is_shared_unit e.fu then Metrics.record_fu_busy m e.fu 1
    | None -> ());
    let operands = srcs_ready st e.srcs in
    let mem_dep =
      match e.kind with
      | Trace.Load a | Trace.Store a ->
          Option.value ~default:0 (Hashtbl.find_opt st.mem_ready a)
      | _ -> 0
    in
    let start = max t (max operands mem_dep) in
    let start = claim_fu st e.fu ~from_:start in
    let completion =
      match st.scheme with
      | Tomasulo when Trace.produces_result e ->
          claim_cdb st ~from_:(start + latency)
      | Tomasulo | Scoreboard -> start + latency
    in
    (match e.dest with
    | Some d -> st.ready.(Reg.index d) <- completion
    | None -> ());
    (match e.kind with
    | Trace.Store a -> Hashtbl.replace st.mem_ready a completion
    | _ -> ());
    st.issue_free <- t + e.parcels;
    st.finish <- max st.finish completion
  end

let simulate ?metrics ~config scheme (trace : Trace.t) =
  let st =
    {
      config;
      scheme;
      metrics;
      ready = Array.make Reg.count 0;
      fu_used = Hashtbl.create 1024;
      cdb_used = Hashtbl.create 1024;
      mem_ready = Hashtbl.create 256;
      issue_free = 0;
      finish = 0;
    }
  in
  Array.iter (step st) trace;
  let cycles = max st.finish st.issue_free in
  (match metrics with
  | Some m -> Metrics.record_stall m Metrics.Drain (cycles - st.issue_free)
  | None -> ());
  { Sim_types.cycles; instructions = Array.length trace }

module Config = Mfu_isa.Config
module Fu = Mfu_isa.Fu
module Reg = Mfu_isa.Reg
module Trace = Mfu_exec.Trace
module Metrics = Sim_types.Metrics

type organization = Simple | Serial_memory | Non_segmented | Cray_like

let all_organizations = [ Simple; Serial_memory; Non_segmented; Cray_like ]

let organization_to_string = function
  | Simple -> "Simple"
  | Serial_memory -> "SerialMemory"
  | Non_segmented -> "NonSegmented"
  | Cray_like -> "CRAY-like"

(* Whether a functional unit serves one request at a time (true) or is
   pipelined (false) under the given organization. *)
let unit_is_serial org (fu : Fu.kind) =
  if not (Fu.is_shared_unit fu) then false
  else
    match org with
    | Simple -> true (* unused: Simple serializes everything anyway *)
    | Serial_memory -> true
    | Non_segmented -> not (Fu.equal fu Fu.Memory)
    | Cray_like -> false

(* -- the walker ---------------------------------------------------------------
   Same cycle-by-cycle semantics as the test suite's entry-record oracle
   (test/oracle/single_issue.ml), computed over the struct-of-arrays
   {!Mfu_exec.Packed} form: register names, source lists and kinds are
   unboxed array reads, and the per-organization serial-unit predicate is
   a precomputed table. Output (result and metrics) is byte-identical to
   the oracle's. *)

module Packed = Mfu_exec.Packed

let simulate_packed ?metrics ?probe ~memory ~config org (p : Packed.t) =
  let mem_state = Memory_system.create memory in
  let reg_ready = Array.make Reg.count 0 in
  let fu_free = Array.make Fu.count 0 in
  let lat = Packed.latency_table config in
  let serial = Array.init Fu.count (fun i -> unit_is_serial org (Fu.of_index i)) in
  let shared = Packed.shared_unit in
  let simple = org = Simple in
  let conflict_org = match org with Non_segmented | Cray_like -> true | _ -> false in
  let issue_free = ref 0 in
  let prev_completion = ref 0 in
  let finish = ref 0 in
  let branch_time = Config.branch_time config in
  (* Steady-state fingerprint: the complete machine state normalized by the
     current cycle. Values at or before [now] are dead — no future [max]
     against a time >= [now] can observe them — so they all normalize to 0.
     Addresses never enter this state (the [Ideal] memory port ignores
     them; acceleration is gated off for [Banked]), which is also why a
     jump needs no address bias here. *)
  let fingerprint pr i now =
    let fp = ref [] in
    let push v = fp := v :: !fp in
    push (if !prev_completion > now then !prev_completion - now else 0);
    push (if !finish > now then !finish - now else 0);
    push (Memory_system.port_snapshot mem_state ~now);
    Array.iter (fun v -> push (if v > now then v - now else 0)) reg_ready;
    Array.iter (fun v -> push (if v > now then v - now else 0)) fu_free;
    pr.Steady.fire ~pos:i ~time:now ~fp:!fp
  in
  let cursor = ref 0 in
  while !cursor < p.Packed.n do
    let i = !cursor in
    let fu = Array.unsafe_get p.Packed.fu i in
    let kind = Char.code (Bytes.unsafe_get p.Packed.kind i) in
    let is_branch = kind >= Packed.kind_taken in
    let latency = if is_branch then branch_time else Array.unsafe_get lat fu in
    let t = ref !issue_free in
    let why = ref Metrics.Drain in
    let raise_to cause v =
      if v > !t then begin
        t := v;
        why := cause
      end
    in
    if simple then raise_to Metrics.Fu_busy !prev_completion
    else begin
      for s = p.Packed.src_off.(i) to p.Packed.src_off.(i + 1) - 1 do
        raise_to Metrics.Raw reg_ready.(Array.unsafe_get p.Packed.src_idx s)
      done;
      let d = Array.unsafe_get p.Packed.dest i in
      if d >= 0 then raise_to Metrics.Waw reg_ready.(d);
      if shared.(fu) then raise_to Metrics.Fu_busy fu_free.(fu)
    end;
    let addr = Array.unsafe_get p.Packed.addr i in
    if conflict_org && addr >= 0 && not serial.(fu) then
      raise_to Metrics.Memory_conflict
        (Memory_system.accept mem_state ~addr ~from_:!t);
    let t = !t in
    let vl = Array.unsafe_get p.Packed.vl i in
    let parcels = Array.unsafe_get p.Packed.parcels i in
    let completion = t + latency + vl - 1 in
    let occupancy = if serial.(fu) then latency + vl - 1 else max 1 vl in
    (match metrics with
    | Some m ->
        Metrics.record_stall m !why (t - !issue_free);
        if is_branch then begin
          Metrics.record_issue m 1;
          Metrics.record_stall m Metrics.Branch (branch_time - 1)
        end
        else Metrics.record_issue m parcels;
        Metrics.record_instructions m 1;
        if shared.(fu) then Metrics.record_fu_busy m (Fu.of_index fu) occupancy
    | None -> ());
    let d = Array.unsafe_get p.Packed.dest i in
    if d >= 0 then reg_ready.(d) <- completion;
    if shared.(fu) then fu_free.(fu) <- t + occupancy;
    prev_completion := completion;
    if completion > !finish then finish := completion;
    issue_free := t + (if is_branch then branch_time else parcels);
    cursor := i + 1;
    (* probe the state before entry [i + 1]; a jump may land on [n] *)
    match probe with
    | Some pr when i + 1 = pr.Steady.next_pos ->
        cursor := i + 1 + fingerprint pr (i + 1) !issue_free
    | _ -> ()
  done;
  let cycles = max !finish !issue_free in
  (match metrics with
  | Some m -> Metrics.record_stall m Metrics.Drain (cycles - !issue_free)
  | None -> ());
  { Sim_types.cycles; instructions = p.Packed.n }

let simulate ?metrics ?(memory = Memory_system.ideal) ?(accel = true) ~config
    org (trace : Trace.t) =
  if accel && memory = Memory_system.Ideal then
    Steady.run ?metrics (Packed.cached trace) (fun ~metrics ~probe p ->
        simulate_packed ?metrics ?probe ~memory ~config org p)
  else simulate_packed ?metrics ~memory ~config org (Packed.cached trace)

module Config = Mfu_isa.Config
module Fu = Mfu_isa.Fu
module Reg = Mfu_isa.Reg
module Trace = Mfu_exec.Trace
module Packed = Mfu_exec.Packed
module Metrics = Sim_types.Metrics
module Bitset = Mfu_util.Bitset
module Int_table = Mfu_util.Int_table

type scheme = Scoreboard | Tomasulo

let scheme_to_string = function
  | Scoreboard -> "scoreboard"
  | Tomasulo -> "Tomasulo"

(* -- reference path ---------------------------------------------------------
   The original Hashtbl implementation, kept verbatim as the differential
   oracle for the packed fast path below. *)

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

let simulate_reference ?metrics ~config scheme (trace : Trace.t) =
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

(* -- packed fast path --------------------------------------------------------
   Identical probe-and-claim semantics over allocation-free structures:
   the (fu, cycle) and common-data-bus acceptance sets become growable
   bitsets (probed with the same keys, in the same order), the per-address
   store-completion map becomes an open-addressing table, and operands are
   read from the packed source arrays. *)

let simulate_packed ?metrics ?probe ~config scheme (p : Packed.t) =
  let lat = Packed.latency_table config in
  let branch_time = Config.branch_time config in
  let shared = Packed.shared_unit in
  let ready = Array.make Reg.count 0 in
  let fu_used = Bitset.create 4096 in
  let cdb_used = Bitset.create 4096 in
  let mem_ready = Int_table.create 256 in
  let issue_free = ref 0 in
  let finish = ref 0 in
  let tomasulo = scheme = Tomasulo in
  let srcs_ready i =
    let acc = ref 0 in
    for s = p.Packed.src_off.(i) to p.Packed.src_off.(i + 1) - 1 do
      let r = ready.(Array.unsafe_get p.Packed.src_idx s) in
      if r > !acc then acc := r
    done;
    !acc
  in
  (* Steady-state fingerprint, normalized by [now = issue_free]. Register
     ready times and store completions at or before [now] are masked by the
     [max] against an issue time >= [now], so they normalize to 0/absent.
     Reservation slots live in [now, finish] only (claims never land past
     the running [finish]); they are serialized as one 16-bit unit mask per
     cycle. Live store completions are sorted by translated address — the
     open-addressing table's physical order depends on absolute addresses,
     which the fingerprint must not. *)
  let fingerprint pr i now =
    let fp = ref [] in
    let push v = fp := v :: !fp in
    let horizon = if !finish > now then !finish - now else 0 in
    push horizon;
    for c = now to now + horizon do
      let mask = ref 0 in
      for u = 0 to 15 do
        if Bitset.mem fu_used ((c * 16) + u) then mask := !mask lor (1 lsl u)
      done;
      push !mask;
      push (if Bitset.mem cdb_used c then 1 else 0)
    done;
    let live = ref [] in
    Int_table.iter
      (fun addr v ->
        if v > now then live := (addr - pr.Steady.addr_off, v - now) :: !live)
      mem_ready;
    let live = List.sort compare !live in
    push (List.length live);
    List.iter
      (fun (a, v) ->
        push a;
        push v)
      live;
    Array.iter (fun v -> push (if v > now then v - now else 0)) ready;
    pr.Steady.fire ~pos:i ~time:now ~fp:!fp
  in
  for i = 0 to p.Packed.n - 1 do
    (match probe with
    | Some pr when i = pr.Steady.next_pos -> fingerprint pr i !issue_free
    | _ -> ());
    let fu = Array.unsafe_get p.Packed.fu i in
    let kind = Char.code (Bytes.unsafe_get p.Packed.kind i) in
    let parcels = Array.unsafe_get p.Packed.parcels i in
    let dest = Array.unsafe_get p.Packed.dest i in
    if kind >= Packed.kind_taken then begin
      let t = max !issue_free (srcs_ready i) in
      let resolution = t + branch_time in
      (match metrics with
      | Some m ->
          Metrics.record_stall m Metrics.Raw (t - !issue_free);
          Metrics.record_issue m 1;
          Metrics.record_stall m Metrics.Branch (branch_time - 1);
          Metrics.record_instructions m 1
      | None -> ());
      issue_free := resolution;
      if resolution > !finish then finish := resolution
    end
    else begin
      let t =
        if tomasulo then !issue_free
        else if dest >= 0 then max !issue_free ready.(dest)
        else !issue_free
      in
      (match metrics with
      | Some m ->
          Metrics.record_stall m Metrics.Waw (t - !issue_free);
          Metrics.record_issue m parcels;
          Metrics.record_instructions m 1;
          if shared.(fu) then Metrics.record_fu_busy m (Fu.of_index fu) 1
      | None -> ());
      let operands = srcs_ready i in
      let mem_dep =
        if kind = Packed.kind_load || kind = Packed.kind_store then
          Int_table.find mem_ready ~default:0 (Array.unsafe_get p.Packed.addr i)
        else 0
      in
      let start = max t (max operands mem_dep) in
      let start =
        if not shared.(fu) then start
        else begin
          let c = ref start in
          while Bitset.mem fu_used ((!c * 16) + fu) do
            incr c
          done;
          Bitset.set fu_used ((!c * 16) + fu);
          !c
        end
      in
      let completion =
        if tomasulo && dest >= 0 then begin
          let c = ref (start + Array.unsafe_get lat fu) in
          while Bitset.mem cdb_used !c do
            incr c
          done;
          Bitset.set cdb_used !c;
          !c
        end
        else start + Array.unsafe_get lat fu
      in
      if dest >= 0 then ready.(dest) <- completion;
      if kind = Packed.kind_store then
        Int_table.set mem_ready (Array.unsafe_get p.Packed.addr i) completion;
      issue_free := t + parcels;
      if completion > !finish then finish := completion
    end
  done;
  let cycles = max !finish !issue_free in
  (match metrics with
  | Some m -> Metrics.record_stall m Metrics.Drain (cycles - !issue_free)
  | None -> ());
  { Sim_types.cycles; instructions = p.Packed.n }

let simulate ?metrics ?(reference = false) ?(accel = true) ~config scheme
    (trace : Trace.t) =
  if reference then simulate_reference ?metrics ~config scheme trace
  else if accel then
    Steady.run ?metrics trace (fun ~metrics ~probe p ->
        simulate_packed ?metrics ?probe ~config scheme p)
  else simulate_packed ?metrics ~config scheme (Packed.cached trace)

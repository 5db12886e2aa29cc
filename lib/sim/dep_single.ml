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

(* -- the walker ---------------------------------------------------------------
   The test suite's oracle (test/oracle/dep_single.ml) keeps the original
   Hashtbl implementation. This walker has its probe-and-claim semantics
   over allocation-free structures: the (fu, cycle) and common-data-bus
   acceptance sets become growable bitsets (probed with the same keys, in
   the same order), the per-address store-completion map becomes an
   open-addressing table, and operands are read from the packed source
   arrays. *)

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
  (* after a jump, addresses are read lowered by [bias] *)
  let cursor = ref 0 and bias = ref 0 in
  while !cursor < p.Packed.n do
    let i = !cursor in
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
          Int_table.find mem_ready ~default:0
            (Array.unsafe_get p.Packed.addr i - !bias)
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
        Int_table.set mem_ready
          (Array.unsafe_get p.Packed.addr i - !bias)
          completion;
      issue_free := t + parcels;
      if completion > !finish then finish := completion
    end;
    cursor := i + 1;
    (* probe the state before entry [i + 1]; a jump may land on [n] *)
    match probe with
    | Some pr when i + 1 = pr.Steady.next_pos ->
        let skip = fingerprint pr (i + 1) !issue_free in
        cursor := i + 1 + skip;
        bias := pr.Steady.bias
    | _ -> ()
  done;
  let cycles = max !finish !issue_free in
  (match metrics with
  | Some m -> Metrics.record_stall m Metrics.Drain (cycles - !issue_free)
  | None -> ());
  { Sim_types.cycles; instructions = p.Packed.n }

let simulate ?metrics ?(accel = true) ~config scheme (trace : Trace.t) =
  if accel then
    Steady.run ?metrics (Packed.cached trace) (fun ~metrics ~probe p ->
        simulate_packed ?metrics ?probe ~config scheme p)
  else simulate_packed ?metrics ~config scheme (Packed.cached trace)

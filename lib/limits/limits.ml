module Config = Mfu_isa.Config
module Fu = Mfu_isa.Fu
module Reg = Mfu_isa.Reg
module Trace = Mfu_exec.Trace
module Packed = Mfu_exec.Packed
module Metrics = Mfu_sim.Sim_types.Metrics
module Steady = Mfu_sim.Steady
module Int_table = Mfu_util.Int_table

type t = {
  instructions : int;
  pseudo_dataflow : float;
  serial_dataflow : float;
  resource : float;
}

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

(* Packed twin of [dataflow_path]: the same walk over the struct-of-arrays
   form, with the store->load token map as an open-addressing table (tokens
   are always >= 1, so 0 doubles as "no in-flight producer") and the
   per-instruction event log in flat arrays instead of a prepended list.
   The metrics post-pass scans the arrays in reverse trace order, which is
   exactly the order [List.iter] visits the reference's reversed list. *)
let dataflow_path_packed ?metrics ?probe ~config ~serial_waw (p : Packed.t) =
  let n = p.Packed.n in
  let lat = Packed.latency_table config in
  let branch_time = Config.branch_time config in
  let reg_avail = Array.make Reg.count 0 in
  let store_token = Int_table.create 256 in
  let branch_resolved = ref 0 in
  let finish = ref 0 in
  let with_events = metrics <> None in
  let ev_start = if with_events then Array.make n 0 else [||] in
  let ev_comp = if with_events then Array.make n 0 else [||] in
  let ev_why =
    if with_events then Array.make n (None : Metrics.stall_cause option)
    else [||]
  in
  (* Steady-state fingerprint, normalized by [now = branch_resolved]: the
     boundary follows a backedge branch, so every later start is raised to
     at least [now] first, masking register availabilities at or before
     it. Store tokens are different: a token's *presence* switches a
     load's latency to 1 regardless of its age, so the whole table is
     part of the machine state — only the token times clamp. The table is
     append-only under a non-zero address stride, so its normalized
     content reaches a fixed point (and the fingerprint can repeat) only
     for store-free or zero-stride loops; otherwise detection simply
     never fires and the run completes in full.

     Serializing the table is O(its size), so a still-growing table makes
     probing itself expensive on exactly the loops that can never match.
     Growth between consecutive boundaries after the first interval
     (which legitimately fills the table) proves the table gains fresh
     addresses every iteration — monotone under append-only, so no two
     boundary states can ever be equal — and cancels probing outright. *)
  let tok_len_prev = ref (-1) in
  let boundaries_seen = ref 0 in
  let fingerprint_body pr i now =
    let fp = ref [] in
    let push v = fp := v :: !fp in
    push (if !finish > now then !finish - now else 0);
    Array.iter (fun v -> push (if v > now then v - now else 0)) reg_avail;
    let toks = ref [] in
    Int_table.iter
      (fun addr v ->
        toks :=
          (addr - pr.Steady.addr_off, if v > now then v - now else 0) :: !toks)
      store_token;
    let toks = List.sort compare !toks in
    push (List.length toks);
    List.iter
      (fun (a, v) ->
        push a;
        push v)
      toks;
    pr.Steady.fire ~pos:i ~time:now ~fp:!fp
  in
  let fingerprint pr i now =
    let len = Int_table.length store_token in
    incr boundaries_seen;
    if !boundaries_seen > 2 && len > !tok_len_prev then
      pr.Steady.next_pos <- max_int
    else begin
      tok_len_prev := len;
      fingerprint_body pr i now
    end
  in
  for i = 0 to n - 1 do
    (match probe with
    | Some pr when i = pr.Steady.next_pos -> fingerprint pr i !branch_resolved
    | _ -> ());
    let fu = Array.unsafe_get p.Packed.fu i in
    let kind = Char.code (Bytes.unsafe_get p.Packed.kind i) in
    let is_branch = kind >= Packed.kind_taken in
    let start = ref 0 in
    let why = ref None in
    let raise_to cause v =
      if v > !start then begin
        start := v;
        why := Some cause
      end
    in
    raise_to Metrics.Branch !branch_resolved;
    for s = p.Packed.src_off.(i) to p.Packed.src_off.(i + 1) - 1 do
      raise_to Metrics.Raw reg_avail.(Array.unsafe_get p.Packed.src_idx s)
    done;
    let forwarded =
      if kind = Packed.kind_load then
        Int_table.find store_token ~default:0 (Array.unsafe_get p.Packed.addr i)
      else 0
    in
    if forwarded <> 0 then raise_to Metrics.Memory_conflict forwarded;
    let latency =
      if forwarded <> 0 then 1
      else if is_branch then branch_time
      else Array.unsafe_get lat fu
    in
    let completion = ref (!start + latency) in
    let d = Array.unsafe_get p.Packed.dest i in
    if d >= 0 then begin
      if serial_waw then completion := max !completion (reg_avail.(d) + 1);
      reg_avail.(d) <- !completion
    end;
    if kind = Packed.kind_store then
      Int_table.set store_token (Array.unsafe_get p.Packed.addr i) (!start + 1)
    else if is_branch then branch_resolved := !completion;
    (match metrics with
    | Some m ->
        ev_start.(i) <- !start;
        ev_comp.(i) <- !completion;
        ev_why.(i) <- !why;
        if Packed.shared_unit.(fu) then
          Metrics.record_fu_busy m (Fu.of_index fu) 1
    | None -> ());
    if !completion > !finish then finish := !completion
  done;
  let finish = !finish in
  (match metrics with
  | Some m when finish > 0 ->
      Metrics.record_instructions m n;
      let counts = Array.make finish 0 in
      let cause_at = Array.make finish None in
      let inflight_diff = Array.make (finish + 1) 0 in
      for i = n - 1 downto 0 do
        let s = ev_start.(i) in
        counts.(s) <- counts.(s) + 1;
        cause_at.(s) <- ev_why.(i);
        inflight_diff.(s) <- inflight_diff.(s) + 1;
        inflight_diff.(ev_comp.(i)) <- inflight_diff.(ev_comp.(i)) - 1
      done;
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

let resource_time ~config (trace : Trace.t) =
  let counts = Array.make Fu.count 0 in
  Array.iter
    (fun (e : Trace.entry) ->
      counts.(Fu.index e.fu) <- counts.(Fu.index e.fu) + 1)
    trace;
  let worst = ref 0 in
  List.iter
    (fun fu ->
      let c = counts.(Fu.index fu) in
      if c > 0 && Fu.is_shared_unit fu then
        (* c operations through a pipelined unit: the last one starts at
           cycle c-1 and completes one latency later. (The paper's prose
           says "c plus the latency", which overcounts by one cycle; we use
           the exact bound so that the limit provably dominates every
           simulator.) *)
        let time =
          c - 1
          +
          if Fu.equal fu Fu.Branch then Config.branch_time config
          else Config.latency config fu
        in
        worst := max !worst time)
    Fu.all;
  !worst

(* Metrics runs never accelerate: the stall attribution is a post-pass
   over per-instruction event arrays, which has no incremental counter
   state the steady-state driver could snapshot at boundaries. *)
let packed_path ?metrics ~accel ~config ~serial_waw (trace : Trace.t) =
  if accel && metrics = None then
    (Steady.run trace (fun ~metrics ~probe p ->
         {
           Mfu_sim.Sim_types.cycles =
             dataflow_path_packed ?metrics ?probe ~config ~serial_waw p;
           instructions = p.Packed.n;
         }))
      .Mfu_sim.Sim_types.cycles
  else
    dataflow_path_packed ?metrics ~config ~serial_waw (Packed.cached trace)

let critical_path ?metrics ?(reference = false) ?(accel = true) ~config trace =
  if reference then dataflow_path ?metrics ~config ~serial_waw:false trace
  else packed_path ?metrics ~accel ~config ~serial_waw:false trace

let analyze ?metrics ?(reference = false) ?(accel = true) ~config
    (trace : Trace.t) =
  let n = Array.length trace in
  if n = 0 then
    { instructions = 0; pseudo_dataflow = 0.; serial_dataflow = 0.; resource = 0. }
  else
    let path ?metrics ~serial_waw trace =
      if reference then dataflow_path ?metrics ~config ~serial_waw trace
      else packed_path ?metrics ~accel ~config ~serial_waw trace
    in
    let rate time = float_of_int n /. float_of_int (max 1 time) in
    {
      instructions = n;
      pseudo_dataflow = rate (path ?metrics ~serial_waw:false trace);
      serial_dataflow = rate (path ?metrics:None ~serial_waw:true trace);
      resource = rate (resource_time ~config trace);
    }

let actual t = min t.pseudo_dataflow t.resource
let actual_serial t = min t.serial_dataflow t.resource

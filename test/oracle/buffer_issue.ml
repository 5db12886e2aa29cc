(* The original Hashtbl-and-list buffer walker, the differential oracle
   for the packed fast path of {!Mfu_sim.Buffer_issue}. *)

module Config = Mfu_isa.Config
module Fu = Mfu_isa.Fu
module Reg = Mfu_isa.Reg
module Trace = Mfu_exec.Trace
module Sim_types = Mfu_sim.Sim_types
module Metrics = Sim_types.Metrics

type policy = Mfu_sim.Buffer_issue.policy = In_order | Out_of_order
type alignment = Mfu_sim.Buffer_issue.alignment = Dynamic | Static

type state = {
  config : Config.t;
  trace : Trace.t;
  stations : int;
  alignment : alignment;
  metrics : Metrics.t option;
  bus : Sim_types.bus_model;
  reg_ready : int array;
  fu_last_used : int array; (* cycle of last dispatch into each (pipelined) unit *)
  bus_reserved : (int, unit) Hashtbl.t; (* key: cycle * 8 + bus *)
  mutable base : int;  (* trace index of the first buffer entry *)
  mutable hi : int;    (* trace index one past the last buffer entry *)
  issued : bool array; (* per buffer slot, length [stations] *)
  mutable stall_until : int;  (* no issue before this cycle (branches) *)
  mutable finish : int;
}

(* The issue station an entry occupies: its position in the buffer for a
   dynamically filled buffer, its static address modulo the line size for a
   statically aligned one. *)
let station_of st pos =
  match st.alignment with
  | Dynamic -> pos - st.base
  | Static -> st.trace.(pos).Trace.static_index mod st.stations

(* One past the last trace index of the buffer window starting at [from_]:
   the next [stations] dynamic entries, or — statically aligned — the
   entries of the aligned static block, ending early after a taken branch
   (the following entries belong to the next fetch). *)
let window_end st from_ =
  let n = Array.length st.trace in
  match st.alignment with
  | Dynamic -> min (from_ + st.stations) n
  | Static ->
      if from_ >= n then n
      else begin
        let block = st.trace.(from_).Trace.static_index / st.stations in
        let q = ref from_ in
        let continue_ = ref true in
        while !continue_ && !q < n do
          let e = st.trace.(!q) in
          if e.Trace.static_index / st.stations <> block then continue_ := false
          else begin
            incr q;
            match e.Trace.kind with
            | Trace.Taken_branch -> continue_ := false
            | _ -> ()
          end
        done;
        !q
      end

let mem_addr (e : Trace.entry) =
  match e.kind with Trace.Load a | Trace.Store a -> Some a | _ -> None

let bus_key ~cycle ~bus = (cycle * 8) + bus

let bus_free st ~cycle ~bus = not (Hashtbl.mem st.bus_reserved (bus_key ~cycle ~bus))

(* Find a free bus at [cycle] for the instruction in buffer slot [slot], or
   None if the interconnect blocks the issue. *)
let pick_bus st ~slot ~cycle =
  match st.bus with
  | Sim_types.N_bus ->
      if bus_free st ~cycle ~bus:slot then Some slot else None
  | Sim_types.One_bus -> if bus_free st ~cycle ~bus:0 then Some 0 else None
  | Sim_types.X_bar ->
      let rec scan b =
        if b >= st.stations then None
        else if bus_free st ~cycle ~bus:b then Some b
        else scan (b + 1)
      in
      scan 0

let latency_of st (e : Trace.entry) =
  if Trace.is_branch e then Config.branch_time st.config
  else Config.latency st.config e.fu

(* Hazard and resource checks common to both policies (everything except
   ordering constraints within the buffer). Returns the reserved bus. *)
let can_issue_globally st (e : Trace.entry) ~slot ~t =
  let srcs_ready =
    List.for_all (fun r -> st.reg_ready.(Reg.index r) <= t) e.srcs
  in
  let dest_ready =
    match e.dest with
    | None -> true
    | Some d -> st.reg_ready.(Reg.index d) <= t
  in
  let fu_ok =
    (not (Fu.is_shared_unit e.fu)) || st.fu_last_used.(Fu.index e.fu) <> t
  in
  if not (srcs_ready && dest_ready && fu_ok) then None
  else if not (Trace.produces_result e) then Some (-1)
  else
    let completion = t + latency_of st e in
    match pick_bus st ~slot ~cycle:completion with
    | Some b -> Some b
    | None -> None

let do_issue st (e : Trace.entry) ~pos ~bus ~t =
  let latency = latency_of st e in
  let completion = t + latency in
  (match st.metrics with
  | Some m ->
      Metrics.record_instructions m 1;
      if Fu.is_shared_unit e.fu then Metrics.record_fu_busy m e.fu 1
  | None -> ());
  (match e.dest with
  | Some d -> st.reg_ready.(Reg.index d) <- completion
  | None -> ());
  st.fu_last_used.(Fu.index e.fu) <- t;
  if bus >= 0 then Hashtbl.replace st.bus_reserved (bus_key ~cycle:completion ~bus) ();
  st.issued.(pos - st.base) <- true;
  st.finish <- max st.finish completion;
  if Trace.is_branch e then begin
    st.stall_until <- t + Config.branch_time st.config;
    match e.kind with
    | Trace.Taken_branch ->
        (* Squash: the machine refetches from the target; in the trace the
           target path is simply the next entries, so the new buffer starts
           right after the branch. *)
        st.base <- pos + 1;
        st.hi <- window_end st (pos + 1);
        Array.fill st.issued 0 st.stations false
    | _ -> ()
  end

(* In-order issue pass for cycle [t]: issue from the first unissued entry
   while each can issue; stop at the first blocked instruction. Returns the
   number of instructions issued this cycle. *)
let issue_in_order st ~t =
  let continue_ = ref true in
  let issued_now = ref 0 in
  while !continue_ do
    (* first unissued position *)
    let rec first p = if p < st.hi && st.issued.(p - st.base) then first (p + 1) else p in
    let pos = first st.base in
    if
      pos >= st.hi || t < st.stall_until
      || !issued_now >= st.stations
    then continue_ := false
    else
      let e = st.trace.(pos) in
      match can_issue_globally st e ~slot:(station_of st pos) ~t with
      | None -> continue_ := false
      | Some bus ->
          do_issue st e ~pos ~bus ~t;
          incr issued_now;
          if Trace.is_branch e then continue_ := false
  done;
  !issued_now

(* Out-of-order issue pass for cycle [t]: scan the buffer oldest first,
   tracking the destinations, sources and memory addresses of older
   unissued entries; issue every entry with no hazard against them.
   Returns the number of instructions issued this cycle. *)
let issue_out_of_order st ~t =
  if t < st.stall_until then 0
  else begin
    let issued_now = ref 0 in
    let older_dests = ref [] in
    let older_mem = ref [] in
    let older_unissued = ref false in
    let blocked_by_branch = ref false in
    let pos = ref st.base in
    while (not !blocked_by_branch) && !pos < st.hi do
      let p = !pos in
      if not st.issued.(p - st.base) then begin
        let e = st.trace.(p) in
        let raw_waw =
          List.exists
            (fun d ->
              List.exists (Reg.equal d) e.srcs
              || match e.dest with Some d' -> Reg.equal d d' | None -> false)
            !older_dests
        in
        let mem_conflict =
          match mem_addr e with
          | None -> false
          | Some a ->
              let is_store = Trace.is_store e in
              List.exists
                (fun (a', store') -> a = a' && (is_store || store'))
                !older_mem
        in
        let branch_ok = (not (Trace.is_branch e)) || not !older_unissued in
        let can =
          (not raw_waw) && (not mem_conflict) && branch_ok
          && !issued_now < st.stations
        in
        let issued_here =
          if can then
            match can_issue_globally st e ~slot:(station_of st p) ~t with
            | Some bus ->
                do_issue st e ~pos:p ~bus ~t;
                incr issued_now;
                true
            | None -> false
          else false
        in
        if issued_here then begin
          if Trace.is_branch e then blocked_by_branch := true
          (* taken-branch squash resets base/hi; stop scanning *)
        end
        else begin
          older_unissued := true;
          if Trace.is_branch e then blocked_by_branch := true
          else begin
            (match e.dest with
            | Some d -> older_dests := d :: !older_dests
            | None -> ());
            match mem_addr e with
            | Some a -> older_mem := (a, Trace.is_store e) :: !older_mem
            | None -> ()
          end
        end
      end;
      incr pos
    done;
    !issued_now
  end

(* Why the issue stage made no progress at cycle [t]: the binding
   constraint of the oldest unissued instruction, mirroring the checks of
   [can_issue_globally] in priority order. Only called on zero-issue
   cycles, so every same-cycle structural state is clean and the oldest
   unissued entry has no older unissued hazards. *)
let diagnose st ~t =
  if t < st.stall_until then Metrics.Branch
  else begin
    let rec first p =
      if p < st.hi && st.issued.(p - st.base) then first (p + 1) else p
    in
    let pos = first st.base in
    if pos >= st.hi then Metrics.Buffer_refill
    else begin
      let e = st.trace.(pos) in
      if List.exists (fun r -> st.reg_ready.(Reg.index r) > t) e.srcs then
        Metrics.Raw
      else
        match e.dest with
        | Some d when st.reg_ready.(Reg.index d) > t -> Metrics.Waw
        | _ ->
            if
              Fu.is_shared_unit e.fu
              && st.fu_last_used.(Fu.index e.fu) = t
            then Metrics.Fu_busy
            else if
              Trace.produces_result e
              && pick_bus st ~slot:(station_of st pos)
                   ~cycle:(t + latency_of st e)
                 = None
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

let all_issued st =
  let rec go p = p >= st.hi || (st.issued.(p - st.base) && go (p + 1)) in
  go st.base

let simulate ?metrics ?(alignment = Dynamic) ~config ~policy ~stations ~bus
    (trace : Trace.t) =
  let n = Array.length trace in
  let st =
    {
      config;
      trace;
      stations;
      alignment;
      metrics;
      bus;
      reg_ready = Array.make Reg.count 0;
      fu_last_used = Array.make Fu.count (-1);
      bus_reserved = Hashtbl.create 1024;
      base = 0;
      hi = 0;
      issued = Array.make stations false;
      stall_until = 0;
      finish = 0;
    }
  in
  st.hi <- window_end st 0;
  let t = ref 0 in
  let guard = ref (200 * (n + 100)) in
  while not (st.hi >= n && all_issued st) do
    (* refill a drained buffer *)
    if all_issued st && st.hi < n then begin
      st.base <- st.hi;
      st.hi <- window_end st st.base;
      Array.fill st.issued 0 stations false
    end;
    (match metrics with
    | Some m -> Metrics.record_occupancy m (unissued_in_window st)
    | None -> ());
    let issued =
      match policy with
      | In_order -> issue_in_order st ~t:!t
      | Out_of_order -> issue_out_of_order st ~t:!t
    in
    (match metrics with
    | Some m ->
        if issued > 0 then Metrics.record_issue ~width:issued m 1
        else Metrics.record_stall m (diagnose st ~t:!t) 1
    | None -> ());
    incr t;
    decr guard;
    if !guard <= 0 then failwith "Buffer_issue.simulate: no progress"
  done;
  let cycles = max st.finish !t in
  (match metrics with
  | Some m -> Metrics.record_stall m Metrics.Drain (cycles - !t)
  | None -> ());
  { Sim_types.cycles; instructions = n }

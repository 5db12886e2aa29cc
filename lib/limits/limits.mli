(** Performance limits of a dynamic trace (Section 4; Table 2).

    All limits are expressed as issue rates (instructions per cycle); the
    underlying quantity is a best-case execution time.

    - {b Pseudo-dataflow limit}: the trace executes as a dataflow graph
      with unlimited resources. An instruction starts when its operands
      are produced (register RAW and memory store->load dependences) and
      not before the most recent older branch has resolved (control
      dependences serialize loop iterations); it finishes after its
      functional-unit latency. The limit is [instructions / critical path].
    - {b Serial dataflow limit}: additionally, instructions that write the
      same architectural register must finish in program order — the
      best any machine without result buffering (register renaming) can
      do when WAW hazards arise; readers then see the delayed completion.
    - {b Resource limit}: with the base machine's single copy of each
      (pipelined) functional unit, a unit used [c] times cannot finish
      before [c + latency] cycles; the limit is
      [instructions / max_u (count_u + latency_u)].
    - {b Actual limit}: per trace, the smaller of a dataflow limit and the
      resource limit. *)

type t = {
  instructions : int;
  pseudo_dataflow : float;  (** unlimited-resource dataflow issue rate *)
  serial_dataflow : float;  (** dataflow rate with in-order WAW completion *)
  resource : float;         (** busiest-functional-unit bound *)
}

val analyze :
  ?metrics:Mfu_sim.Sim_types.Metrics.t ->
  ?reference:bool ->
  ?accel:bool ->
  config:Mfu_isa.Config.t ->
  Mfu_exec.Trace.t ->
  t
(** Compute all limits of a trace under a machine configuration (the
    memory and branch latencies matter; bus and issue structure do not).

    When [metrics] is given, the {e pseudo-dataflow} walk (only) is
    instrumented: a cycle in which k >= 1 instructions begin execution is
    an issue cycle of width k; an empty cycle is attributed to whatever
    delays the next instruction to start — [Branch] for control
    dependences, [Raw] for register dependences, [Memory_conflict] for
    store->load token waits — and the cycles between the last start and the
    critical-path end are [Drain]. Functional-unit busy counts book one
    acceptance cycle per operation through a shared (pipelined) unit; the
    occupancy histogram records in-flight instructions per cycle (the
    dataflow analogue of a buffer fill). The returned limits are
    unchanged.

    [reference] (default [false]) selects the original entry-record walk
    instead of the {!Mfu_exec.Packed} fast path; both produce
    byte-identical limits and metrics — the flag exists for the
    differential test suite and as the benchmark baseline.

    [accel] (default [true]) enables exact steady-state fast-forward
    ({!Mfu_sim.Steady}) on metrics-free fast-path walks (the stall
    attribution is a post-pass with no boundary-snapshottable state, so
    metrics runs always walk in full); results are bit-identical either
    way. The store-token table is append-only under a non-zero address
    stride, so telescoping engages on store-free or zero-stride loops
    and falls back otherwise. Ignored with [reference]. *)

val actual : t -> float
(** [min pseudo_dataflow resource] — the paper's "Pure" actual limit. *)

val actual_serial : t -> float
(** [min serial_dataflow resource] — the paper's "Serial" actual limit. *)

val critical_path :
  ?metrics:Mfu_sim.Sim_types.Metrics.t ->
  ?reference:bool ->
  ?accel:bool ->
  config:Mfu_isa.Config.t ->
  Mfu_exec.Trace.t ->
  int
(** Length in cycles of the pseudo-dataflow critical path (the denominator
    of the pseudo-dataflow limit). [metrics] instruments the walk exactly
    as in {!analyze}. *)

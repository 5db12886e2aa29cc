(** Multiple issue units over an instruction buffer (Sections 5.1, 5.2;
    Tables 3-6).

    The machine has [stations] issue units examining an instruction buffer
    of the same size, filled with the next [stations] dynamic instructions.
    The buffer refills only when every instruction in it has issued — or
    immediately after a taken branch, which squashes the stale entries and
    refetches from the target. Functional units are CRAY-like (all
    pipelined, accepting one new operation per cycle each), and results
    are delivered to the register file over the configured result-bus
    interconnect; an instruction only issues when a bus slot is free at
    its completion cycle.

    - [In_order]: instructions issue in program order; the first
      instruction that cannot issue blocks all later ones, even if their
      resources are available.
    - [Out_of_order]: any buffered instruction may issue once it has no
      RAW/WAW hazard against older unissued buffer entries (and no
      same-address memory conflict); branches issue only when oldest, and
      nothing issues past an unissued branch (no speculation).

    Both policies enforce RAW and WAW against in-flight instructions via
    register reservation, and a branch blocks the issue stage for the
    configured branch time after (and including) its issue cycle. *)

type policy = In_order | Out_of_order

val policy_to_string : policy -> string

(** How the instruction buffer is filled.

    - [Dynamic]: the buffer holds the next [stations] dynamic
      instructions, whatever their addresses (the default; smooth curves).
    - [Static]: the buffer behaves like a line of an instruction cache —
      it covers an aligned block of [stations] *static* program positions,
      and an instruction occupies the station given by its static address
      modulo [stations]. This reproduces the paper's "sawtooth" artefact:
      as the station count changes, branches land in different buffer
      positions, sometimes alone in a line. *)
type alignment = Dynamic | Static

val alignment_to_string : alignment -> string

val simulate :
  ?metrics:Sim_types.Metrics.t ->
  ?alignment:alignment ->
  ?accel:bool ->
  config:Mfu_isa.Config.t ->
  policy:policy ->
  stations:int ->
  bus:Sim_types.bus_model ->
  Mfu_exec.Trace.t ->
  Sim_types.result
(** Replay a trace. [alignment] defaults to [Dynamic]; [stations] must be
    >= 1. @raise Invalid_argument otherwise.

    When [metrics] is given, each simulated cycle that issues [k >= 1]
    instructions books one issue cycle of width [k]; a zero-issue cycle is
    attributed to the binding constraint of the oldest unissued buffer
    entry ([Branch] while the issue stage is blocked by a branch, then
    [Raw]/[Waw]/[Fu_busy]/[Result_bus] in the priority order of the issue
    checks), and the completion tail after the last issue is [Drain]. The
    occupancy histogram records the number of unissued buffer entries at
    the start of every cycle. The result is unchanged.

    [accel] (default [true]) enables exact steady-state fast-forward
    ({!Steady}); results and metrics are bit-identical either way. *)

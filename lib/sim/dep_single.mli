(** Single-issue-unit dependency-resolution schemes (Section 3.3).

    The paper notes that even with one issue unit, the issue rate improves
    substantially if instructions are allowed to leave the issue stage
    despite hazards, citing the CDC 6600 scoreboard and the IBM 360/91
    (Tomasulo) as prior schemes and quoting ~0.72 (scalar) / ~0.81
    (vectorizable) for a single-issue machine with the RUU scheme on
    M11BR5. These two models complete that design space:

    - [Scoreboard] (CDC 6600 flavour): an instruction issues as soon as
      its destination register is not already reserved by an in-flight
      writer — RAW hazards no longer block issue (operands are awaited at
      the functional unit), but WAW hazards still do.
    - [Tomasulo] (IBM 360/91 flavour): reservation stations and tag
      renaming; neither RAW nor WAW blocks issue. Reservation stations are
      unbounded (the paper's idealization), functional units are CRAY-like
      (pipelined, one new operation per cycle), and all results return
      over a single common data bus, one per cycle, as in the 360/91.

    Both machines issue at most one instruction per cycle in program
    order, keep the CRAY branch discipline (a branch waits for A0 and then
    blocks the issue stage for the branch time), and order same-address
    memory references. *)

type scheme = Scoreboard | Tomasulo

val scheme_to_string : scheme -> string

val simulate :
  ?metrics:Sim_types.Metrics.t ->
  ?accel:bool ->
  config:Mfu_isa.Config.t ->
  scheme ->
  Mfu_exec.Trace.t ->
  Sim_types.result
(** Replay a trace. When [metrics] is given, issue-stage cycles are
    attributed: a branch waiting for its condition register books [Raw]
    stalls and its blockage [Branch] stalls; a [Scoreboard] destination
    reservation books [Waw] stalls ([Tomasulo] never stalls at issue except
    for branches); the completion tail is [Drain]. Operand and common-data-
    bus waits happen downstream of the issue stage in these schemes and do
    not appear as issue stalls. The result is unchanged.

    [accel] (default [true]) enables exact steady-state fast-forward
    ({!Steady}); results and metrics are bit-identical either way. *)

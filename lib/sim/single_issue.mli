(** Single-issue-unit machines: the four organizations of Table 1.

    All four share the issue discipline of Section 3 — one instruction per
    cycle at most, issued in program order, blocked by RAW and WAW hazards
    at the issue stage (dependencies are enforced by issue, not resolved
    downstream) — and differ only in how much overlap the execution stage
    allows:

    - [Simple]: a two-stage serial pipe; an instruction enters execution
      only when the previous instruction has left it. No overlap at all,
      hence no hazard checks are even needed.
    - [Serial_memory]: instructions in distinct functional units overlap,
      but every unit — including memory — serves one request at a time.
    - [Non_segmented]: memory is interleaved (pipelined, one new request
      per cycle); functional units remain unpipelined (the CDC 6600
      arrangement).
    - [Cray_like]: all functional units and memory are fully segmented and
      accept one new operation per cycle (the CRAY arrangement). *)

type organization = Simple | Serial_memory | Non_segmented | Cray_like

val all_organizations : organization list
(** In the paper's row order. *)

val organization_to_string : organization -> string

val simulate :
  ?metrics:Sim_types.Metrics.t ->
  ?memory:Memory_system.t ->
  ?reference:bool ->
  ?accel:bool ->
  config:Mfu_isa.Config.t ->
  organization ->
  Mfu_exec.Trace.t ->
  Sim_types.result
(** Replay a trace through the machine. Branch instructions block the
    issue stage for the configured branch time and additionally wait for
    A0; two-parcel instructions occupy the issue stage one extra cycle.

    [memory] (default {!Memory_system.ideal}) refines the interleaved
    memory of the [Non_segmented] and [Cray_like] organizations with bank
    conflicts; it has no effect on [Simple] and [Serial_memory], whose
    memory serves one request at a time anyway.

    When [metrics] is given, every cycle is attributed: issue-stage waits
    become [Raw]/[Waw]/[Fu_busy]/[Memory_conflict] stalls (the binding
    constraint, in that priority order; under [Simple] the busy execution
    stage counts as [Fu_busy]), the blocked cycles after a branch issues
    are [Branch], and the completion tail after the last issue is [Drain].
    The result is unchanged.

    [reference] (default [false]) selects the original entry-record
    implementation instead of the {!Mfu_exec.Packed} fast path; both
    produce byte-identical results and metrics — the flag exists for the
    differential test suite and as the benchmark baseline.

    [accel] (default [true]) enables exact steady-state fast-forward
    ({!Steady}) on the fast path: once the machine state provably repeats
    across loop iterations, the remaining periods are telescoped in
    closed form. Results and metrics are bit-identical either way.
    Acceleration engages only under the [Ideal] memory model ([Banked]
    bank residues are not invariant under the address translation the
    telescoping uses) and is ignored with [reference]. *)

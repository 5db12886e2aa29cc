(** The Register Update Unit machine (Section 5.3; Tables 7 and 8).

    Dependency resolution per Sohi & Vajapeyam: instructions issue in
    program order into the RUU (up to [issue_units] per cycle) where they
    wait for operands; register instance counters let multiple in-flight
    writers of one architectural register coexist, so WAW hazards never
    block issue. Entries dispatch to the (fully pipelined, CRAY-like)
    functional units when their operands arrive — results bypass into
    waiting RUU entries as they return — and commit to the register file
    in order from the head, preserving precise interrupts.

    Issue blocks only when (i) the RUU is full, or (ii) a branch is
    encountered. Branch handling is selectable — the paper's machine is
    [Stall]; the other policies are extensions quantifying what the
    paper's no-prediction assumption costs:

    - [Stall]: the branch waits for A0 to be produced, then blocks the
      issue stage for the configured branch time (the paper's model);
    - [Oracle]: a perfect predictor; issue resumes one cycle after every
      branch;
    - [Static_taken]: predict every branch taken; correct predictions
      resume issue after one cycle, mispredictions pay the full [Stall]
      cost (wrong-path instructions are not simulated — a standard
      trace-driven approximation);
    - [Bimodal n]: 2-bit saturating counters indexed by the branch's
      static address modulo [n].

    Bus models:
    - [N_bus] (restricted): RUU slot [k] belongs to bank [k mod N]; each
      bank owns one RUU->FU dispatch bus and one FU->RUU result bus, and
      commit retires up to [N] entries per cycle.
    - [One_bus]: one dispatch per cycle, one result return per cycle, one
      commit per cycle.
    - [X_bar]: up to [N] dispatches and [N] result returns per cycle with
      no bank binding. *)

(** Branch-handling policy of the issue stage. *)
type branch_handling = Stall | Oracle | Static_taken | Bimodal of int

val branch_handling_to_string : branch_handling -> string

val simulate :
  ?metrics:Sim_types.Metrics.t ->
  ?branches:branch_handling ->
  ?reference:bool ->
  ?accel:bool ->
  config:Mfu_isa.Config.t ->
  issue_units:int ->
  ruu_size:int ->
  bus:Sim_types.bus_model ->
  Mfu_exec.Trace.t ->
  Sim_types.result
(** Replay a trace. [branches] defaults to [Stall] (the paper's machine).
    @raise Invalid_argument if [issue_units < 1], [ruu_size < issue_units],
    or a [Bimodal] table size is < 1.

    When [metrics] is given, each cycle that issues [k >= 1] instructions
    into the RUU books one issue cycle of width [k]; a zero-issue cycle is
    [Branch] while the issue stage is blocked by a branch, [Raw] when the
    head branch waits for its condition register, [Buffer_refill] when the
    RUU is full, and [Drain] once the trace is exhausted (including the
    completion tail). Functional-unit utilization counts dispatches; the
    occupancy histogram records the RUU fill at the start of every cycle.
    The result is unchanged.

    [reference] (default [false]) selects the original entry-record
    implementation instead of the {!Mfu_exec.Packed} fast path; both
    produce byte-identical results and metrics — the flag exists for the
    differential test suite and as the benchmark baseline.

    [accel] (default [true]) enables exact steady-state fast-forward
    ({!Steady}) on the fast path; results and metrics are bit-identical
    either way. Ignored with [reference]. *)

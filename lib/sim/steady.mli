(** Exact steady-state fast-forward, shared by every simulator.

    Loop traces are periodic after warm-up ({!Mfu_exec.Packed.period}).
    Each simulator's fast path accepts an optional {!probe} and, at every
    iteration boundary, reports its complete machine state as a
    fingerprint normalized by the current cycle and the probe's address
    offset. {!run} drives the simulation once with such a probe; when the
    normalized state repeats at two boundaries, the probe answers with a
    number of entries to jump over, and the walker advances its trace
    cursor past them and keeps walking, reading every later memory
    address lowered by {!shift}. The skipped whole periods are telescoped
    in closed form — cycles and every {!Sim_types.Metrics} counter scale
    linearly per period. The result is bit-identical to full simulation;
    when no repeat is found within the probe budget the walk simply
    completes and {e is} the full simulation, so fallback costs only the
    fingerprint computation. *)

type probe = {
  period : int;  (** trace entries per loop iteration *)
  stride : int;  (** address advance per iteration *)
  mutable next_pos : int;
      (** trace index of the next boundary to fingerprint; [max_int]
          once probing is disabled *)
  mutable addr_off : int;
      (** subtract from live in-flight addresses when fingerprinting the
          boundary at [next_pos] *)
  mutable fire : pos:int -> time:int -> fp:int list -> int;
      (** report the normalized state fingerprint at boundary [pos]
          (= [next_pos]) and the current cycle. Returns how many trace
          entries to jump over (0: none); the walker advances its
          cursor by that many and keeps walking. Advances
          [next_pos]/[addr_off], and disables probing after a jump. *)
}

val shift : probe -> int -> int
(** [shift pr skip] is the address translation of a jump over [skip]
    entries: the walker subtracts it from every memory address it
    reads after the jump. *)

val missed : probe -> int -> unit
(** [missed pr pos] skips boundaries a cycle-stepped simulator jumped
    over ([pos > next_pos] at the top of a cycle) so probing resumes at
    the next boundary ahead. Purely a detection delay, never an error. *)

type stats = {
  telescoped : int;  (** runs that skipped periods in closed form *)
  fallback : int;
      (** runs with a detected period but no state repeat that could
          skip — completed in full *)
  aperiodic : int;  (** runs on traces with no detectable period *)
  gated : int;
      (** runs completed unprobed because no state repeat the simulator
          allows ([?min_repeat]) can fit in the periodic region *)
}

val stats : unit -> stats
(** Process-wide counters over every {!run} since {!reset_stats}.
    Observability only — results never depend on them. *)

val stats_summary : stats -> string
(** ["telescoped A, fallback B, aperiodic C, gated D"], for one-line
    reports on stderr. *)

val reset_stats : unit -> unit

val run :
  ?metrics:Sim_types.Metrics.t ->
  ?lookahead:int ->
  ?min_repeat:(Mfu_exec.Packed.t -> Mfu_exec.Packed.period -> int) ->
  Mfu_exec.Packed.t ->
  (metrics:Sim_types.Metrics.t option ->
  probe:probe option ->
  Mfu_exec.Packed.t ->
  Sim_types.result) ->
  Sim_types.result
(** [run ?metrics packed sim] where [sim ~metrics ~probe packed] is the
    simulator's packed fast path. Returns a result bit-identical to
    [sim ~metrics ~probe:None packed], telescoping whole periods when the
    machine state provably repeats. [sim] is called exactly once.

    [lookahead] (default 0) is how many trace entries past its current
    position the simulator may inspect (an instruction buffer holding
    the next [stations] entries, a multi-entry issue stage). That many
    entries' worth of trailing periods stay out of the jump, because the
    final periods see the epilogue (or the end of the trace) through the
    lookahead window and are not translations of the steady body's
    behavior.

    [min_repeat packed period] (default 1) is the smallest boundary
    distance [c] at which the simulator's fingerprints can repeat. When
    [c] lies beyond the probe budget, or fewer than [c] whole periods
    remain after boundary [c] and the lookahead margin, no repeat can
    skip and the run is simulated unprobed (counted as [gated]); the
    result is the same either way. *)

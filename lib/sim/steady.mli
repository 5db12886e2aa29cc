(** Exact steady-state fast-forward, shared by every simulator.

    Loop traces are periodic after warm-up ({!Mfu_exec.Packed.period}).
    Each simulator's fast path accepts an optional {!probe} and, at every
    iteration boundary, reports its complete machine state as a
    fingerprint normalized by the current cycle and the probe's address
    offset. {!run} drives the simulation once with such a probe; when the
    normalized state repeats at two boundaries, the remaining whole
    periods are telescoped in closed form — cycles, instruction counts
    and every {!Sim_types.Metrics} counter scale linearly per period —
    and only a short splice (warm-up prefix + address-shifted final
    periods) is re-simulated. The result is bit-identical to full
    simulation; when no repeat is found within the probe budget the
    detection run simply completes and {e is} the full simulation, so
    fallback costs only the fingerprint computation. *)

exception Stop
(** Raised by {!probe.fire} to abandon the detection run once a state
    repeat has been found. Handled inside {!run}; simulator loops must
    let it escape. *)

type probe = {
  period : int;  (** trace entries per loop iteration *)
  stride : int;  (** address advance per iteration *)
  mutable next_pos : int;
      (** trace index of the next boundary to fingerprint; [max_int]
          once probing is disabled *)
  mutable addr_off : int;
      (** subtract from live in-flight addresses when fingerprinting the
          boundary at [next_pos] *)
  mutable fire : pos:int -> time:int -> fp:int list -> unit;
      (** report the normalized state fingerprint at boundary [pos]
          (= [next_pos]) and the current cycle; may raise {!Stop}.
          Advances [next_pos]/[addr_off]. *)
}

val missed : probe -> int -> unit
(** [missed pr pos] skips boundaries a cycle-stepped simulator jumped
    over ([pos > next_pos] at the top of a cycle) so probing resumes at
    the next boundary ahead. Purely a detection delay, never an error. *)

type stats = {
  telescoped : int;  (** runs that skipped periods in closed form *)
  fallback : int;
      (** runs with a detected period but no state repeat (or too few
          periods to be worth skipping) — completed in full *)
  aperiodic : int;  (** runs on traces with no detectable period *)
  gated : int;
      (** runs completed unprobed because no state repeat the simulator
          allows ([?min_repeat]) could be worth telescoping *)
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
    machine state provably repeats. The splice is built with
    {!Mfu_exec.Packed.splice}.

    [lookahead] (default 0) is how many trace entries past its current
    position the simulator may inspect (an instruction buffer holding
    the next [stations] entries, a multi-entry issue stage). That many
    entries' worth of trailing periods stay out of the telescoped span,
    because the final periods see the epilogue (or the end of the trace)
    through the lookahead window and are not translations of the steady
    body's behavior.

    [min_repeat packed period] (default 1) is the smallest boundary
    distance at which the simulator's fingerprints can repeat. When even
    a repeat at that distance from the first boundary could not be
    telescoped, or lies beyond the probe budget, the run skips probing
    altogether (counted as [gated]); the result is the same either way. *)

(** Exact steady-state fast-forward, shared by every simulator.

    Loop traces are periodic over regions ({!Mfu_exec.Packed.regions}).
    Each simulator's fast path accepts an optional {!probe} and, at every
    iteration boundary of the region being probed, reports its complete
    machine state as a fingerprint normalized by the current cycle and
    the probe's address offset. {!run} drives the simulation once with
    such a probe; when the normalized state repeats at two boundaries of
    a region, the probe answers with a number of entries to jump over,
    and the walker advances its trace cursor past them and keeps walking,
    reading every later memory address lowered by the probe's cumulative
    {!probe.bias}. Probing then resumes at the next region. The skipped
    whole periods are telescoped in closed form — cycles and every
    {!Sim_types.Metrics} counter scale linearly per period. The result is
    bit-identical to full simulation; a region with no repeat within the
    probe budget is simply walked, so fallback costs only the fingerprint
    computation. *)

type probe = {
  mutable next_pos : int;
      (** trace index of the next boundary to fingerprint; [max_int]
          once probing is over (a walker may set it so to stop) *)
  mutable addr_off : int;
      (** subtract from live in-flight addresses when fingerprinting the
          boundary at [next_pos] *)
  mutable bias : int;
      (** subtract from every memory address read: the address shift of
          every jump so far, accumulated *)
  mutable fire : pos:int -> time:int -> fp:int list -> int;
      (** report the normalized state fingerprint at boundary [pos]
          (= [next_pos]) and the current cycle. Returns how many trace
          entries to jump over (0: none); the walker advances its cursor
          by that many, reloads [bias] and keeps walking. Advances
          [next_pos] and [addr_off], to the next region after a jump. *)
  mutable missed : int -> unit;
      (** [missed pos] skips boundaries a cycle-stepped simulator jumped
          over ([pos >= next_pos] at the top of a cycle), across region
          ends, so probing resumes at the next boundary ahead. Purely a
          detection delay, never an error. *)
}

type stats = {
  telescoped : int;  (** regions whose walk skipped periods in closed form *)
  fallback : int;
      (** regions probed without finding a state repeat that could
          skip, or left unprobed because the walker stopped probing —
          walked in full *)
  aperiodic : int;  (** runs on traces with no periodic region *)
  gated : int;
      (** regions walked unprobed because no state repeat the simulator
          allows ([?min_repeat]) can fit in them *)
}
(** Counts of periodic regions, except [aperiodic], which counts runs: a
    run adds one to [aperiodic], or one to one of the other three per
    region of its trace. *)

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
    [sim ~metrics ~probe:None packed], telescoping whole periods of each
    region where the machine state provably repeats. [sim] is called
    exactly once.

    [lookahead] (default 0) is how many trace entries past its current
    position the simulator may inspect (an instruction buffer holding
    the next [stations] entries, a multi-entry issue stage). That many
    entries' worth of each region's trailing periods stay out of its
    jump, because the final periods see what follows the region (or the
    end of the trace) through the lookahead window and are not
    translations of the steady body's behavior.

    [min_repeat packed region] (default 1) is the smallest boundary
    distance [c] at which the simulator's fingerprints can repeat in
    that region. When [c] lies beyond the probe budget, or fewer than [c]
    whole periods remain after boundary [c] and the lookahead margin, no
    repeat can skip and the region is walked unprobed (counted as
    [gated]); the result is the same either way. *)

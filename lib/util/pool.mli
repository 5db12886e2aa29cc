(** A fixed-size worker pool over OCaml 5 domains with deterministic
    result ordering.

    [map f xs] distributes the elements of [xs] over [jobs] domains via an
    atomic self-scheduling counter (idle workers steal the next unclaimed
    index), writes each result into its input slot, and returns the results
    in input order. For a pure [f] the output is therefore bit-identical to
    [List.map f xs] regardless of the number of workers — the determinism
    contract the golden-table tests enforce.

    The worker count comes from, in decreasing priority: the [?jobs]
    argument, the process-wide {!set_jobs} override, the [MFU_JOBS]
    environment variable, and finally {!Domain.recommended_domain_count}.
    A count of 1 (or an invalid [MFU_JOBS]) runs purely sequentially on
    the calling domain — no domain is spawned. If spawning a domain fails
    mid-way, the pool degrades gracefully: the domains that did spawn plus
    the calling domain drain the queue, so [map] still returns complete
    results. *)

val parse_jobs : string -> (int, string) result
(** Validate a worker-count string as [MFU_JOBS] does: trimmed, it must be
    an integer of at least 1; counts above 64 clamp to 64. [Error] carries
    a human-readable reason ("is empty", "is not a number", "must be at
    least 1"). *)

val default_jobs : unit -> int
(** Worker count implied by the environment: [MFU_JOBS] when set and valid
    per {!parse_jobs} (clamped to 1..64). An invalid value — non-numeric,
    zero, negative, or empty — emits a one-time warning on stderr and
    falls back to sequential execution (a count of 1) rather than failing
    or silently picking a parallel default. With [MFU_JOBS] unset,
    [Domain.recommended_domain_count ()]. *)

val set_jobs : int option -> unit
(** Process-wide override of the worker count, taking precedence over
    [MFU_JOBS]. [set_jobs None] restores environment control. Used by the
    CLI [--jobs] flag and by tests that compare sequential and parallel
    runs in one process. *)

val current_jobs : unit -> int
(** The worker count the next [map] without [?jobs] will use. *)

val inflight : unit -> int
(** Number of {!map}/{!try_map} calls currently executing — the pool
    occupancy figure the serve daemon's [/stats] endpoint reports. *)

val try_map :
  ?jobs:int -> ?chunk:int -> ('a -> 'b) -> 'a list -> ('b, exn) result list
(** Like {!map} but captures per-element exceptions: an exception raised by
    one job never loses the results of the others. Results are in input
    order.

    [chunk] is the number of consecutive elements a worker claims per bump
    of the scheduling counter. It defaults to an automatic heuristic
    (roughly eight chunks per worker, at least 1) that amortizes counter
    contention on large inputs while keeping enough chunks for stealing to
    balance uneven job times. Results are written by input index, so the
    chunk size affects scheduling only — never values or ordering.
    @raise Invalid_argument if [chunk < 1]. *)

val map : ?jobs:int -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map] with deterministic ordering. If any job raised, the
    exception of the earliest failing element (in input order, independent
    of scheduling) is re-raised after all jobs have finished. [chunk] as in
    {!try_map}. *)

(** Process-wide, domain-safe memoization of dynamic instruction traces.

    Backs {!Livermore.trace} and {!Livermore.scheduled_trace} (and any
    other trace producer keyed the same way): a trace is generated at most
    once per process per (loop number, size signature, kind) key, no matter
    how many worker domains of {!Mfu_util.Pool} request it concurrently.
    Repeated lookups return the same physical array, so callers may rely on
    pointer equality for cheap identity checks.

    The cache is unbounded: entries live until {!clear}. *)

type kind = Raw | Scheduled

val find_or_generate :
  number:int ->
  sizes:string ->
  kind:kind ->
  (unit -> Mfu_exec.Trace.t) ->
  Mfu_exec.Trace.t
(** [find_or_generate ~number ~sizes ~kind gen] returns the cached trace
    for the key, running [gen] under the cache lock on the first request.
    Concurrent requesters block until the trace exists and then share it.
    [gen] must not re-enter the cache (the lock is not reentrant). *)

type stats = { hits : int; misses : int; entries : int }

val stats : unit -> stats
(** Lifetime hit/miss counters and the current entry count. *)

val clear : unit -> unit
(** Drop all entries and reset the counters. Traces already handed out
    remain valid; subsequent lookups regenerate. *)

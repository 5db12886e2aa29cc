(** Server counters behind [/stats].

    Monotonic counters are atomics bumped from any client thread;
    per-loop-family compute time is a small mutex-guarded table. The
    snapshot taken by {!to_json} is not a consistent cut across all
    counters — each is individually exact, which is all an
    observability endpoint needs. *)

type t

val create : unit -> t

val incr_requests : t -> unit
val incr_queries : t -> unit
val incr_errors : t -> unit
val add_store_hits : t -> int -> unit
val add_cache_hits : t -> int -> unit
val add_cache_misses : t -> int -> unit
val add_computed : t -> int -> unit
val add_inflight_hits : t -> int -> unit
val add_lease_deferred : t -> int -> unit
val add_lease_stolen : t -> int -> unit
val add_rejected_points : t -> int -> unit

val record_compute : t -> family:string -> seconds:float -> unit
(** Attribute one point's wall-clock simulation time to its family label
    ({!Mfu_explore.Axes.family_key}). *)

val to_json :
  t ->
  in_flight:int ->
  dedups:int ->
  pool_inflight:int ->
  cache_entries:int ->
  cache_capacity:int ->
  store:Mfu_explore.Store.stats ->
  Mfu_util.Json.t
(** The [/stats] document. Gauges the metrics object cannot observe on
    its own (in-flight table size, pool occupancy, result-cache fill,
    store footprint) are passed in by the server at snapshot time. *)

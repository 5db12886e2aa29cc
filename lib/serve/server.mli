(** The sweep-as-a-service daemon.

    A {!start}ed server owns one listening socket (Unix-domain or TCP),
    one open result store, one in-process {!Inflight} dedup table, and
    (optionally) a cross-process {!Mfu_explore.Lease} handle. Each
    accepted connection is served by its own thread, speaking
    keep-alive HTTP/1.1 with bounded parsing and read deadlines.

    Routes:
    - [POST /v1/query] with body [{"spec": "<axes spec>"}] — resolve
      every point the spec enumerates and stream one newline-delimited
      JSON ["point"] event per result {e as it lands}, closing with a
      ["summary"] event. Specs enumerating more than [max_points]
      points are rejected up front with [413] and a precise error.
    - [GET /v1/point?spec=...] — the spec must enumerate exactly one
      point; replies with that single point document.
    - [GET /stats] — live counters (see {!Metrics}).
    - [GET /healthz] — liveness probe.

    Scheduling: per query, store hits stream immediately; misses are
    claimed in the {!Inflight} table (one owner computes, concurrent
    requesters wait and are counted as dedups), owned points are
    ordered by {!Mfu_explore.Axes.rank} and cut into chunks of 8
    consecutive points, each chunk one job on the {!Mfu_util.Pool}
    domains, and every computed result is
    published to the store with {!Mfu_explore.Sweep.meta_of_point} —
    byte-identical to what [sweep.exe] writes — before waiters are
    woken. With leases enabled, keys owned by another process settle by
    that owner's entry appearing, or by steal-on-expiry.

    Back-pressure: events traverse a bounded {!Bqueue} per client; a
    slow reader blocks the producer at [queue_capacity] buffered
    events instead of growing the heap. *)

type addr = Unix_sock of string | Tcp of string * int

val addr_of_string : string -> (addr, string) result
(** ["unix:/path/to.sock"], or ["HOST:PORT"] (numeric port; host may be
    a name or dotted quad). *)

val addr_to_string : addr -> string

val sockaddr_of : addr -> Unix.sockaddr
(** Resolve to a connectable/bindable socket address.
    @raise Failure if a TCP host name does not resolve. *)

type config = {
  store_dir : string;
  listen : addr;
  jobs : int option;  (** pool workers; [None] = pool default *)
  max_points : int;  (** admission cap per query *)
  lease : bool;  (** cross-process work claims next to the store *)
  lease_ttl : float;
  request_timeout : float;  (** per-read socket deadline, seconds *)
  queue_capacity : int;  (** per-client buffered events *)
  guided : bool;
      (** order each query's cache-miss computations by
          {!Mfu_explore.Axes.rank} (surrogate-predicted
          Pareto-optimality) instead of axis-enumeration order, so
          streaming clients see the promising corners of the design
          space first. Purely a service-order policy: every admitted
          point is still computed, and store bytes are unchanged. *)
  cache_entries : int;
      (** capacity of the decoded-result LRU consulted before every
          store lookup; 0 disables it. Hits are reported both in query
          summaries ([cache_hits]) and on [/stats]. *)
}

val default_config : store_dir:string -> listen:addr -> config
(** [max_points = 4096], [lease = true],
    [lease_ttl = 60.], [request_timeout = 30.],
    [queue_capacity = 256], [guided = true], [cache_entries = 8192]. *)

type t

val start : config -> t
(** Bind, listen, and spawn the accept thread. Also re-enables the
    process-wide pool if a previous {!stop} drained it, and ignores
    [SIGPIPE] (connection writes surface as [EPIPE] instead).
    @raise Unix.Unix_error if the address cannot be bound. *)

val bound_addr : t -> addr
(** The actual listening address — for [Tcp (host, 0)] the port the
    kernel picked, which is how tests reach an ephemeral server. *)

val store : t -> Mfu_explore.Store.t
(** The server's open store handle. *)

val inflight_table : t -> Inflight.t
(** The in-process dedup table. Exposed so tests can hold a key's
    flight open deterministically (claim it, enroll real clients as
    waiters, then publish) instead of racing a fast simulation. *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, let in-flight requests finish
    (idle keep-alive connections are shut down), then drain the domain
    pool and refresh the store manifest. Idempotent. *)

val run : config -> unit
(** {!start}, then block until [SIGTERM]/[SIGINT], then {!stop} —
    the body of [serve.exe]. *)

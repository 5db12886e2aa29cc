(** The sweep-as-a-service daemon.

    A {!start}ed server owns one listening socket (Unix-domain or TCP),
    one open result store, one in-process {!Inflight} dedup table, and
    one cross-process {!Mfu_explore.Lease} handle. Each
    accepted connection is served by its own thread, speaking
    keep-alive HTTP/1.1 with bounded parsing and read deadlines.

    Routes:
    - [POST /v1/query] with body [{"spec": "<axes spec>"}] — resolve
      every point the spec enumerates and stream one newline-delimited
      JSON ["point"] event per result {e as it lands}, closing with a
      ["summary"] event. Specs enumerating more than [max_points]
      points are rejected up front with [413] and a precise error,
      counted by {!Mfu_explore.Axes.count} before any point is built.
    - [GET /v1/point?spec=...] — the spec must enumerate exactly one
      point (counted the same way); replies with that single point
      document.
    - [GET /stats] — live counters (see {!Metrics}).
    - [GET /healthz] — liveness probe.

    Scheduling: a query resolves its points through the sweep's
    pipeline ({!Mfu_explore.Sweep.lookup}, then
    {!Mfu_explore.Sweep.resolve}, which claims leases, simulates on the
    {!Mfu_util.Pool} domains, publishes on the {!Mfu_util.Writer} domain
    byte-identically to [sweep.exe], settles keys another process
    holds, and drains). Only these steps are the server's own: store
    hits stream first; each miss is claimed in the {!Inflight} table
    (one owner computes, concurrent requesters wait and are counted as
    dedups); owned misses are resolved in {!Mfu_explore.Axes.rank}
    order, each simulation timed for [/stats]; the writer retires each
    stored point's flight and streams its event, so a streamed computed
    point is on disk and at [MFU_JOBS=1] events keep the ranked order;
    a point given up on gets an ["aborted"] event; then the query waits
    for the keys other threads own, and sends its summary after every
    publication has run.

    Slow readers: events traverse a {!Bqueue} per client, which never
    blocks its pusher, so a client that stops reading holds up no other
    query's publication. It buffers at most the admission cap plus one
    event lines, until the connection's send deadline
    ([request_timeout]) fails the write and closes the queue. *)

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
  lease_ttl : float;  (** lifetime of a cross-process work claim *)
  request_timeout : float;  (** per-read and per-write socket deadline *)
}

val default_config : store_dir:string -> listen:addr -> config
(** [max_points = 4096], [lease_ttl = 60.], [request_timeout = 30.]
    (seconds). *)

type t

val start : config -> t
(** Open the store and its lease directory, bind, listen, and spawn
    the accept thread. Also ignores [SIGPIPE] (connection writes
    surface as [EPIPE] instead).
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
(** Graceful shutdown: stop accepting, shut every connection down in
    both directions, and join every connection thread — each joins its
    query's producer, which returns only after its pool jobs and
    publications have run — then refresh the store manifest. A stream
    in progress ends at stop while its producer finishes, so every point
    its query computes is still published. The process-wide pool stays
    usable. Idempotent. *)

val run : config -> unit
(** {!start}, then block until [SIGTERM]/[SIGINT], then {!stop} —
    the body of [serve.exe]. *)

(** Blocking queue — the per-client event channel.

    The scheduler pushes result events, the connection thread pops them
    and writes chunks. A push never blocks: a query's events are
    admission-capped (at most [max_points + 1]), and they are pushed
    from the process-wide writer domain, which must never wait on one
    client's socket. Closing tears the pipeline down from either side:
    pushes into a closed queue are dropped (so producers finish quickly
    after a client disconnect), and pops drain what remains, then
    return [None]. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> bool
(** Enqueue without blocking; [false] (without enqueueing) once the
    queue is closed. *)

val pop : 'a t -> 'a option
(** Block while the queue is empty and open; [None] once it is closed
    {e and} drained. *)

val close : 'a t -> unit
(** Idempotent. After the queue drains, wakes every blocked popper. *)

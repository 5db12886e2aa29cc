(** One background domain that runs submitted closures in FIFO order.

    Publishing a computed result (a store write, then whatever may only
    happen once the entry is on disk) is kernel work that the calling
    domain need not wait for: it submits the publication and goes on
    simulating the next point while the writer domain performs it.

    Closures are grouped in {e batches}, one per caller that must know
    when its publications are done ([Sweep.run], one query of the serve
    daemon). All batches share one process-wide writer domain: it is
    spawned by the first {!submit} while a batch is open and joined by
    the {!drain} that closes the last open batch. A process that opens
    batches but submits nothing never starts a domain.

    Closures run one at a time, in submission order across all batches,
    so a single submitter sees its closures' effects in the order it
    submitted them. *)

type batch

val batch : unit -> batch
(** Open a batch. Every batch must be {!drain}ed. *)

val submit : batch -> (unit -> unit) -> unit
(** Queue a closure on the writer domain and return at once. An
    exception the closure raises is kept for {!drain}; later closures
    still run. If no domain can be spawned, the closure runs on the
    caller before [submit] returns.
    @raise Invalid_argument if the batch was already drained. *)

val drain : batch -> unit
(** Wait until every closure submitted to the batch has run, close the
    batch (joining the writer domain if it was the last open batch),
    then re-raise the first exception one of its closures raised.
    Draining a drained batch does nothing. *)

val started : unit -> int
(** Writer domains spawned so far in this process. *)

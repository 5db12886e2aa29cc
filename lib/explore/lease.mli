(** Work-queue leases for multi-process store draining.

    Several [serve.exe] / [sweep.exe] processes pointed at one store
    should not duplicate simulations. A {e lease} is a claim on one
    [mfu-point/v1] key, held as a file in a work-queue directory next to
    the store:

    {v
    <store>.leases/<md5-of-key>.lease    mfu-lease/v1 JSON
    v}

    A lease names its owner (pid + a random token) and a deadline, not
    its key: the file name is the key's digest. Acquisition is a hard
    link ([link(2)], atomic, failing with [EEXIST] exactly as
    [O_CREAT | O_EXCL] would) from one complete staged lease,
    [stage.<token>.<n>.tmp] in the same directory, to
    [<digest>.lease]. One call links a whole batch of keys to one
    staged inode (a fresh one every 1000 links) and unlinks the staged
    name before it returns, so a cold batch of N keys costs one new
    inode, not N. Since a lease only ever appears whole, a reader never
    sees a half-written fresh lease.

    An expired lease is {e stolen} — atomically replaced via temp +
    rename, which moves the name only and leaves the other keys linked
    to the old inode alone — rather than trusted, so a worker killed
    mid-computation only delays its keys by one TTL instead of wedging
    them forever.

    A holder proves ownership on release by bytes, not by parsing: every
    lease it writes begins with one prefix — schema, pid and token, up
    to the deadline's value — and it unlinks a name only while the file
    still begins with that prefix. A lease stolen by another holder
    carries another token, so it is never unlinked.

    A worker killed between publishing a key and releasing it leaves
    that key's lease behind for good: no sweep needs the key any more,
    so none steals it. {!collect_expired} removes such leftovers; a
    leased {!Sweep.run} calls it once at its end.

    Leases are an {e optimization}, not a correctness mechanism: if a
    steal races a slow-but-alive owner, both compute the point and both
    publish, which is safe because [mfu-point/v1] publication is
    idempotent (both write identical results; {!Store.put} renames
    complete files). Correctness never depends on lease exclusivity —
    only throughput does. *)

type t
(** A lease holder: the directory plus this process's identity. One [t]
    per process per store is the intended shape; the steal counter is
    per-[t]. *)

val default_dir : store_root:string -> string
(** ["<store-root>.leases"] — next to (not inside) the store, so store
    directories stay byte-comparable across serving and batch runs. *)

val create : ?ttl:float -> dir:string -> unit -> t
(** Open (and create) the lease directory, which must be on a file
    system with hard links. [ttl] (default 60 s) is the lifetime written
    into every lease this holder acquires. *)

val ttl : t -> float

type outcome =
  | Acquired  (** this holder now owns the key (fresh or stolen) *)
  | Held of { pid : int; expires_in : float }
      (** another live lease owns it; retry after [expires_in] *)

val try_acquire_many : t -> string list -> outcome list
(** Try to claim each key, linking every fresh lease to one staged file
    (whose deadline they all share); the outcomes come back in key
    order. A key that already has a lease falls back to reading it: an
    expired, vanished or unparseable one is stolen, our own live one is
    re-acquired, a foreign live one is [Held]. No staged file is left
    behind, even on an exception. Never blocks. *)

val try_acquire : t -> key:string -> outcome
(** [try_acquire_many] on one key. *)

val release : t -> key:string -> unit
(** Drop the claim if this holder still owns it — the file still begins
    with this holder's prefix; a lease meanwhile stolen by someone else
    is left untouched. Reads the lease file but parses nothing.
    Safe to call on keys never acquired or already released. *)

val collect_expired : t -> int
(** Read the lease directory once and remove every expired lease (and
    every torn one) by the steal-then-release path: each is replaced by
    a fresh lease of this holder, then released. Live leases are never
    touched; staged files are not leases and are left to their writers.
    Returns the number removed; they do not count in {!stolen}. *)

val stolen : t -> int
(** Number of expired/torn leases this holder has stolen so far. *)

val acquired : t -> int
(** Number of keys acquired so far (steals and re-acquisitions
    included). *)

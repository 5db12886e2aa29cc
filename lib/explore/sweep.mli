(** Resumable sweep driver over the domain pool.

    [run] takes a job list from {!Axes.enumerate} and brings the store
    to a state where every point has an entry, computing only what is
    missing: points whose key already has a valid entry are skipped
    (when resuming), corrupt entries are quarantined by the store and
    recomputed. Unguided, the missing points go through {!resolve}, the
    point-resolution pipeline the serve daemon's queries share. The
    returned results are the ones the run already holds — a validated
    store hit, or a result it computed and published — never read back:
    a warm run reads each stored entry once, a cold run reads none, and
    a run that computes nothing starts no writer domain. *)

type stats = {
  total : int;  (** points requested *)
  computed : int;
      (** exact simulator invocations actually performed — in guided
          mode this includes the surrogate's calibration runs, so
          [computed / total] is the honest exact-simulation fraction *)
  reused : int;  (** points served from the store without simulating *)
  quarantined : int;  (** corrupt entries found (then recomputed) *)
  inferred : int;
      (** points published from an equivalence or window-saturation
          certificate instead of a simulation (always 0 unguided) *)
  pruned : int;
      (** points skipped because their machine was provably dominated
          in its loop-class context (always 0 without [frontier_stop]) *)
  deferred : int;
      (** points another lease-holding process computed while we waited
          (always 0 without [lease]) *)
  stolen : int;
      (** expired/torn leases this run stole (always 0 without [lease]) *)
  published : int;  (** entries the writer domain published for this run *)
  writer_s : float;  (** seconds the writer spent publishing them *)
  drain_wait_s : float;
      (** seconds the caller waited for the writer after the last
          simulation *)
}

type guided = { frontier_stop : bool }
(** Guided-mode policy. With [frontier_stop] the sweep stops simulating a
    machine's loop-class cells once a fully-simulated machine dominates
    its surrogate upper confidence bound — see {!run}. *)

val meta_of_point : Axes.point -> (string * Mfu_util.Json.t) list
(** The human-consumption ["meta"] block of every entry a sweep or a
    server publishes. Exposed so tests that stand in for another
    process publish byte-identical entries. *)

val keyed : Axes.point list -> (Axes.point * string) list
(** Pair every point with its {!Axes.key} (generating and memoizing
    traces as needed), rejecting duplicates.

    @raise Invalid_argument on a duplicate key. *)

val lookup :
  store:Store.t ->
  (Axes.point * string) list ->
  ((Axes.point * string) * Mfu_sim.Sim_types.result) list
  * (Axes.point * string) list
  * int
(** One validated {!Store.lookup} per keyed point: the hits with their
    results and the misses, both in input order, and how many misses
    were corrupt entries the store quarantined. *)

type resolution = {
  results : (string * Mfu_sim.Sim_types.result) list;
      (** each settled key's result, in no particular order *)
  computed : int;  (** points simulated and stored here *)
  deferred : int;  (** held keys whose owner stored them meanwhile *)
  taken_over : int;  (** held keys stolen on expiry and computed here *)
  aborted : int;  (** points given up on *)
  failure : exn option;  (** why the first of them was, in order *)
}

val resolve :
  ?jobs:int ->
  ?lease:Lease.t ->
  ?simulate:(Axes.point -> Mfu_sim.Sim_types.result) ->
  ?order:((Axes.point * string) list -> (Axes.point * string) list) ->
  ?settled:
    ([ `Computed | `Deferred ] ->
    Axes.point ->
    string ->
    Mfu_sim.Sim_types.result ->
    unit) ->
  ?aborted:(Axes.point -> string -> exn -> unit) ->
  store:Store.t ->
  (Axes.point * string) list ->
  resolution
(** Bring keyed misses into the store — the one pipeline behind {!run}
    and the serve daemon's queries:

    + with a [lease], claim every key in one {!Lease.try_acquire_many};
      keys another live process holds are set aside;
    + put the claimed points in [order] (default: as given); each
      {!Mfu_util.Pool} worker claims 8 consecutive points at a time
      (fewer when that would leave a worker idle), runs [simulate]
      (default {!Axes.run}) on each in turn, yields its domain's
      runtime lock, and hands the point's publication to the
      {!Mfu_util.Writer} domain;
    + the writer publishes each point in the order handed over: its
      store entry (with {!meta_of_point}), its lease release, then
      [settled `Computed];
    + on the calling thread, settle the set-aside keys: by the owner's
      entry appearing ([settled `Deferred]), or by stealing the lease
      once it expires and computing the point here (published as
      above);
    + wait for every publication before returning.

    A point that cannot be settled — its simulation raised or its entry
    failed to store — has its lease released and goes to [aborted] with
    the exception, on the writer domain or the calling one. An exception a
    callback or the lease layer raises is re-raised once every
    submitted publication has run. *)

val run :
  ?jobs:int ->
  ?resume:bool ->
  ?lease:Lease.t ->
  ?progress:(done_:int -> total:int -> unit) ->
  ?guided:guided ->
  store:Store.t ->
  Axes.point list ->
  (Axes.point * Mfu_sim.Sim_types.result) list * stats
(** [resume] defaults to [true]; with [resume:false] every point is
    recomputed and its entry rewritten (the store stays consistent
    either way). Keys (and hence traces) are prepared on the calling
    domain, points are looked up, and the misses are {!resolve}d.
    Every publication has run when [run] returns, so a sweep killed at
    any moment loses at most the points that were mid-flight or
    computed but not yet written, none of which any lease released; a
    rerun with resume recomputes only those. [progress] is called after
    each point this run settles (published, or stored by a lease's
    owner), with the number settled so far and the number this run has
    to settle (reused points are not reported) — from the writer domain
    or the calling one, so it must be thread-safe (an atomic counter
    plus [eprintf] is fine). Refreshes the store manifest on
    completion.

    [lease] enables multi-process draining as {!resolve} describes:
    [deferred] counts the keys another process stored while we waited,
    [stolen] every expired or torn lease this run stole. At the end the
    lease directory is read once and every expired lease left in it —
    a killed worker's, for keys it published but never released — is
    collected ({!Lease.collect_expired}). Safe against every
    interleaving because publication is idempotent; leases only remove
    duplicated work, they are not needed for correctness.

    [guided] switches to the surrogate-guided driver. Points are
    simulated best-first in {!Axes.rank} order, and three certificates
    replace simulations with published inferences or skips:

    - {e equivalence}: an RUU with one issue unit is simulated once and
      its result published for all three interconnects (structural);
      RUUs with 2-4 issue units on the shared bus share one
      representative (empirical, pinned by the differential suite);
    - {e window saturation}: when a simulated RUU cell's occupancy
      histogram proves the window never gated a dispatch, every deeper
      window of the same chain inherits its result byte-for-byte (under
      the banked N-bus only across sizes the issue width divides);
    - {e dominance pruning} (with [frontier_stop]): once every loop of
      a machine's class context is either resolved or predictable, the
      machine is skipped as soon as some fully-simulated machine beats
      its upper confidence bound — surrogate prediction inflated by the
      family's committed worst-case error {!Mfu_model.max_bound} —
      strictly in both cost and rate. Exact ties are never decided by
      the model, so as long as the committed bounds hold, the Pareto
      frontier over the returned results is byte-identical to a full
      sweep's.

    Inferred and pruned points are tallied in [stats]; [computed]
    counts every exact simulator invocation including the model's
    calibration runs. With [frontier_stop] the returned list covers only
    the points that resolved — a subset of the request, unlike the
    unguided contract. Guided runs do not compose with [lease].

    @raise Invalid_argument if [guided] is combined with [lease], or if
    the same key appears twice in the job list (the deduplication
    contract of {!Axes.enumerate} protects concurrent writers). The
    first exception a simulation or a publication raised, in point
    order, is re-raised once every submitted publication has run. *)

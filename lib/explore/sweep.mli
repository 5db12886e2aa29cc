(** Resumable sweep driver over the domain pool.

    [run] takes a job list from {!Axes.enumerate} and brings the store
    to a state where every point has an entry, computing only what is
    missing: points whose key already has a valid entry are skipped
    (when resuming), corrupt entries are quarantined by the store and
    recomputed, and each freshly computed result is published atomically
    {e as soon as it finishes} — so a sweep killed at any moment loses
    at most the points that were mid-flight, and a rerun with resume
    recomputes only those. The returned results are re-read from disk,
    not taken from memory: what the caller analyses is exactly what the
    store persisted. *)

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
}

type guided = { budget : int option; frontier_stop : bool }
(** Guided-mode policy. [budget] caps the exact simulations this run
    may perform (calibration included; [None] = unlimited); with
    [frontier_stop] the sweep stops simulating a machine's loop-class
    cells once a fully-simulated machine dominates its surrogate upper
    confidence bound — see {!run}. *)

val meta_of_point : Axes.point -> (string * Mfu_util.Json.t) list
(** The human-consumption ["meta"] block {!run} attaches to every entry
    it publishes. Exposed so other publishers (the serve daemon) produce
    byte-identical store entries — the CI smoke job diffs a served store
    against a swept one. *)

val keyed : Axes.point list -> (Axes.point * string) list
(** Pair every point with its {!Axes.key} (generating and memoizing
    traces as needed), rejecting duplicates.

    @raise Invalid_argument on a duplicate key. *)

val misses : store:Store.t -> (Axes.point * string) list -> (Axes.point * string) list * int
(** The store-miss iteration shared by {!run} and the serve scheduler:
    validated lookup of every key, returning the points that need
    computing (corrupt entries quarantine and count as missing) and the
    number quarantined. *)

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
    either way). [progress] is called after each computed point with
    the number of points computed so far and the number this run has to
    compute (reused points are not reported) — from worker domains when
    the pool is parallel, so it must be thread-safe (an atomic counter
    plus [eprintf] is fine). Keys (and hence traces) are prepared on
    the calling domain before fanning out. Refreshes the store manifest
    on completion.

    [lease] enables multi-process draining: before computing, each
    missing key is claimed through {!Lease.try_acquire}; keys held by
    another live process are set aside, computed work is published and
    only then released, and the set-aside keys settle afterwards —
    normally by the owner's entry appearing in the store (counted in
    [deferred]), otherwise by stealing the lease once it expires and
    recomputing here (counted in [stolen]). Safe against every
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
    calibration runs. With [budget] the run stops launching simulations
    once the budget is spent, and with [frontier_stop] (or a spent
    budget) the returned list covers only the points that resolved — a
    subset of the request, unlike the unguided contract. Guided runs do
    not compose with [lease].

    @raise Invalid_argument if [guided] is combined with [lease], or if
    the same key appears twice in the job list (the deduplication
    contract of {!Axes.enumerate} protects concurrent writers). *)

(** A struct-of-arrays compiled form of {!Trace.t} for the simulator hot
    paths.

    The boxed {!Trace.entry} records (variant register names, source
    lists, option destinations) are flattened once per trace into parallel
    [int array]s and a [Bytes] kind tag, so the per-entry work of a
    simulator inner loop is a handful of unboxed array reads with no
    pattern matching, no list traversal and no allocation. Sources use a
    CSR layout: entry [i]'s source register indices are
    [src_idx.(src_off.(i)) .. src_idx.(src_off.(i+1) - 1)].

    Kinds are small integers ({!kind_plain} .. {!kind_untaken}); registers
    and functional units appear as their {!Mfu_isa.Reg.index} /
    {!Mfu_isa.Fu.index}. A destination of [-1] means the instruction
    writes no register; [addr] is [-1] for non-memory instructions. *)

type period = {
  p_start : int;  (** first entry of the periodic region *)
  p_len : int;  (** entries per period *)
  p_stride : int;  (** uniform address stride between consecutive periods *)
  p_periods : int;  (** complete periods in the region *)
}
(** A periodic region: entries [p_start + i] and [p_start + i + p_len]
    are identical in every field for
    [i] in [\[0, (p_periods-1)*p_len)], except that memory addresses
    advance by exactly [p_stride] per period (the same stride for every
    memory entry of the body — mixed strides end the region, because only
    a uniform stride makes one period a pure address translation of the
    previous, which is what exact steady-state telescoping needs: a walker
    jumps over [K] whole periods by advancing its cursor [K*p_len] entries
    and lowering every later address by [K*p_stride]). Iteration
    boundaries are [p_start + m*p_len] for [m] in [\[0, p_periods\]]. *)

type t = private {
  n : int;  (** instruction count *)
  fu : int array;  (** {!Mfu_isa.Fu.index} per entry *)
  dest : int array;  (** destination {!Mfu_isa.Reg.index}, or -1 *)
  src_off : int array;  (** length [n+1]: CSR offsets into [src_idx] *)
  src_idx : int array;  (** source register indices, all entries *)
  kind : Bytes.t;  (** kind tag per entry, one of the [kind_*] codes *)
  addr : int array;  (** effective address for loads/stores, else -1 *)
  parcels : int array;
  vl : int array;
  static_index : int array;
  max_srcs : int;  (** largest per-entry source count in this trace *)
  memo : memo;  (** what is derived from the pack once and kept with it *)
}

and memo

val kind_plain : int
val kind_load : int
val kind_store : int
val kind_taken : int
val kind_untaken : int

val of_trace : Trace.t -> t
(** Flatten a trace. O(n); performed once per trace by {!cached}. *)

val regions : t -> period list
(** The maximal periodic regions of a trace, in trace order: [[]] for
    traces with no two congruent periods anywhere (straight-line code,
    data-dependent address streams, non-counting loops). Candidate period
    lengths come from taken-branch (backedge) spacing, and the scan
    resumes at each region's end, so loops in sequence and the outer
    passes of a nest each bring their own region. Runs once per pack and
    is kept with it. *)

val labels : t -> horizon:int -> int array
(** [labels t ~horizon] names each memory address only as far as a
    window of [horizon] non-branch entries can tell: two accesses to one
    address whose distance (the non-branch entries from the first up to
    the second) is below [horizon] share a label when either is a store,
    and labels are shared along chains of such pairs. A label is the
    first trace index of its class; non-memory entries keep [-1]. So a
    shared label implies a shared address, and every read-after-write,
    write-after-read and write-after-write pair that a window of
    [horizon] non-branch entries can hold shares its label. *)

val relabel : t -> horizon:int -> t
(** [relabel t ~horizon] is [t] with [addr] replaced by
    [labels t ~horizon] when that raises the total length of the
    periodic regions ({!regions}), and [t] itself otherwise. Every other
    array is shared with [t]. Memoized on [t]: horizons that yield the
    same labelling return the same pack. *)

val cached : Trace.t -> t
(** Memoized {!of_trace}, keyed by the {e physical identity} of the trace
    array — the contract {!Mfu_loops.Trace_cache} provides (one shared
    array per workload). Domain-safe; bounded (oldest entries are evicted
    beyond 64 distinct traces), so unknown traces stay correct and merely
    repack. *)

val cache_clear : unit -> unit
(** Drop all cached packs (for tests). *)

val length : t -> int
val kind : t -> int -> int
val is_branch : t -> int -> bool
val is_load : t -> int -> bool
val is_store : t -> int -> bool
val is_mem : t -> int -> bool
val produces_result : t -> int -> bool

val latency_table : Mfu_isa.Config.t -> int array
(** Per-{!Mfu_isa.Fu.index} latency of a configuration, for O(1) lookup in
    the inner loops. *)

val max_latency : Mfu_isa.Config.t -> int
(** The largest functional-unit or branch latency of a configuration —
    the horizon that sizes the ring-buffer result buses. *)

val shared_unit : bool array
(** Per-{!Mfu_isa.Fu.index} [Fu.is_shared_unit], precomputed. *)

(** The 14 Lawrence Livermore Loops (McMahon, 1972), written in the kernel
    language and paired with deterministic input data.

    The paper splits the loops into the 5 "scalar" loops (5, 6, 11, 13, 14)
    and the 9 "vectorizable" loops (1, 2, 3, 4, 7, 8, 9, 10, 12); all are
    executed as scalar code. Default problem sizes are scaled down from the
    original benchmark so that each loop's dynamic trace has on the order
    of 10^3–10^4 instructions; sizes are parameters so larger studies can
    be run. *)

type classification = Scalar | Vectorizable

val classification_to_string : classification -> string

type loop = {
  number : int;                       (** 1..14 *)
  title : string;                     (** e.g. "hydro fragment" *)
  classification : classification;
  kernel : Mfu_kern.Ast.kernel;
  inputs : Mfu_kern.Ast.inputs;
}

val loop1 : ?n:int -> unit -> loop
(** hydro fragment *)

val loop2 : ?n:int -> unit -> loop
(** incomplete Cholesky conjugate gradient; [n] must be a power of two *)

val loop3 : ?n:int -> unit -> loop
(** inner product *)

val loop4 : ?n:int -> unit -> loop
(** banded linear equations *)

val loop5 : ?n:int -> unit -> loop
(** tri-diagonal elimination, below diagonal *)

val loop6 : ?n:int -> unit -> loop
(** general linear recurrence equations *)

val loop7 : ?n:int -> unit -> loop
(** equation of state fragment *)

val loop8 : ?n:int -> unit -> loop
(** ADI integration *)

val loop9 : ?n:int -> unit -> loop
(** integrate predictors *)

val loop10 : ?n:int -> unit -> loop
(** difference predictors *)

val loop11 : ?n:int -> unit -> loop
(** first sum *)

val loop12 : ?n:int -> unit -> loop
(** first difference *)

val loop13 : ?n:int -> unit -> loop
(** 2-D particle in cell *)

val loop14 : ?n:int -> unit -> loop
(** 1-D particle in cell *)

val all : unit -> loop list
(** All 14 loops at default sizes (times the process {!scale}), in
    numeric order. Memoized: repeated calls return the same list. *)

val set_scale : int -> unit
(** Multiply every default problem size by this factor for all
    subsequently built collections ({!all}, {!scalar_loops}, ...). Loop
    2's size is rounded up to the next power of two (its FFT-style
    halving requires one); loop 6's factor is square-rooted, because its
    trace grows quadratically in the problem size and would otherwise
    dwarf the rest of the workload. Affects only the process-wide
    default collections — {!scaled} builds any (loop, scale) point
    independently.

    Must be called before the first {!all}.
    @raise Invalid_argument for a scale < 1, or when the collections have
    already been built at a different scale. *)

val scale : unit -> int
(** The process-wide workload scale factor (default 1). *)

val scaled : ?scale:int -> int -> loop
(** [scaled ~scale number]: loop [number] with its default problem size
    multiplied by [scale] (default 1), independent of {!set_scale}, with
    the same loop-2 and loop-6 adjustments. Memoized per (loop, scale).
    @raise Invalid_argument unless [1 <= number <= 14] and [scale >= 1]. *)

val loop : int -> loop
(** [loop n] from {!all}. @raise Invalid_argument unless 1 <= n <= 14. *)

val scalar_loops : unit -> loop list
(** Loops 5, 6, 11, 13, 14 — the paper's scalar class. *)

val vectorizable_loops : unit -> loop list
(** Loops 1, 2, 3, 4, 7, 8, 9, 10, 12. *)

val of_class : classification -> loop list

val compiled : loop -> Mfu_kern.Codegen.compiled
(** Compile a loop's kernel (memoized per loop identity). *)

val trace : loop -> Mfu_exec.Trace.t
(** Execute the compiled loop on its inputs and return the dynamic trace.
    Memoized process-wide in the domain-safe {!Trace_cache}: each trace is
    generated once per process and repeated lookups return the same
    physical array, even under concurrent access from {!Mfu_util.Pool}
    worker domains. *)

val trace_digest : loop -> string
(** [Mfu_exec.Trace_io.digest (trace l)]: the workload identity in every
    [mfu-point/v1] key. The 14 paper-sized digests are also computed when
    the explore library is built (see [Mfu_explore.Axes.key]). *)

val scheduled_trace : loop -> Mfu_exec.Trace.t
(** Like {!trace}, but the compiled program is first passed through the
    basic-block list scheduler ({!Mfu_asm.Scheduler}) with CRAY-1 M11BR5
    latencies — the paper's "software code scheduling" alternative.
    Memoized in {!Trace_cache} like {!trace}. *)

(** Minimal JSON construction, serialization, and parsing.

    Just enough of an emitter for the metrics, benchmark, and result-store
    schemas — build a {!t} and render it — plus a parser able to re-read
    anything {!to_string} writes (the content-addressed result store reads
    its entries back for validation and resume).

    Non-finite float policy: JSON has no NaN or infinity, so {!to_string}
    renders them as [null]; parsing therefore never produces a non-finite
    {!Float}, and a value containing one does not round-trip (it comes
    back as {!Null}). Writers that must preserve non-finite values are
    expected to encode them explicitly (e.g. as strings) before
    serializing. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Render. [indent] (default 2) is the number of spaces per nesting
    level; [~indent:0] emits the compact single-line form. Strings are
    escaped per RFC 8259; non-finite floats render as [null] (JSON has no
    NaN or infinity). *)

val to_channel : ?indent:int -> out_channel -> t -> unit
(** [to_string] followed by a newline, written to the channel. *)

val of_int_array : int array -> t
(** An [int array] as a JSON list — the histogram shape used by the
    metrics schema. *)

val of_string : string -> (t, string) result
(** Parse one JSON value (any amount of surrounding whitespace is
    allowed; trailing non-whitespace is an error). Numbers parse as
    {!Int} unless they contain a fraction or exponent part (or overflow
    [int]), in which case they parse as {!Float} — matching what
    {!to_string} emits. String escapes cover the RFC 8259 set; [\uXXXX]
    code points are decoded to UTF-8. [Error] carries a byte offset and
    reason. One pass over [text], allocating only the values: a string
    without escapes is one [String.sub]. *)

val member : string -> t -> t option
(** [member k j] is the value of field [k] when [j] is an object that has
    one, else [None]. *)

val to_int : t -> int option
val to_str : t -> string option

val to_float : t -> float option
(** Accepts {!Int} too (a JSON number without a fraction part parses as
    {!Int}), so readers of float fields survive round-tripping through
    whole numbers. *)

val to_bool : t -> bool option
val to_list : t -> t list option

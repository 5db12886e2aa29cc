(** Byte-level mutation of valid inputs, for fuzzing parsers that read
    untrusted bytes. *)

val mutate : string -> string QCheck.Gen.t
(** One mutation of the text: a byte replaced by any byte, a byte
    inserted, a byte deleted, or the text truncated. *)

val mutated : string list -> string QCheck.Gen.t
(** One of the texts with one to three {!mutate}s applied. *)

(** Oracle for {!Mfu_util.Json.of_string}: the same grammar, values and
    [Error] strings, one [char option] per byte. The production parser
    returns exactly what this one returns on every input. *)

val of_string : string -> (Mfu_util.Json.t, string) result

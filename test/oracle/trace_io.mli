(** Oracle for {!Mfu_exec.Trace_io.to_string}: the same text, formatted
    with [Printf]. The production serializer's output is byte-identical
    to this one's; the [mfu-point/v1] keys of every store depend on it. *)

val to_string : Mfu_exec.Trace.t -> string

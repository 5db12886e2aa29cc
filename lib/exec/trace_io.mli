(** Plain-text serialization of dynamic traces.

    The paper's methodology stores instruction traces once and replays
    them through many machine models; this module lets traces be written
    to disk and reloaded, so expensive workload generation and timing
    studies can be decoupled.

    Format: a header line [mfu-trace 1], then one line per entry:

    {v
    <static_index> <unit> <dest|-> <src,src,...|-> <parcels> <kind> <vl>
    v}

    where <kind> is [plain], [load@ADDR], [store@ADDR], [taken] or
    [untaken], and <vl> is the entry's vector length (1 for a scalar
    instruction). {!to_string} always writes all seven fields;
    {!of_string} also reads a six-field line, as [vl = 1]. The format is
    stable and diff-friendly. *)

val to_string : Trace.t -> string

val digest : Trace.t -> string
(** The hex MD5 of {!to_string}: the [trace=] field of every
    [mfu-point/v1] key. *)

val of_string : string -> (Trace.t, string) result
(** Errors carry the offending line number. *)

val write_file : string -> Trace.t -> unit
(** @raise Sys_error on I/O failure. *)

val read_file : string -> (Trace.t, string) result
(** Returns [Error] for both parse failures and I/O failures. *)

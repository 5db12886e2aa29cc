(** The [mfu-serve/v1] wire schema: JSON documents exchanged between
    the daemon and its clients.

    A query reply is a chunked stream of newline-delimited JSON events —
    one ["point"] event per result as it lands (store hit, freshly
    computed, or settled by another client's in-flight computation), an
    ["aborted"] event for any point the server had to give up on (a
    failed computation or store write, a wedged in-flight owner) so the
    stream never silently omits a requested point, terminated by exactly one
    ["summary"] event. Errors are plain JSON objects with an ["error"]
    field and an HTTP error status. All construction and parsing lives
    here so the server, the client library, and the tests agree on one
    schema by construction. *)

val version : string
(** ["mfu-serve/v1"], sent as the [server] header and in summaries. *)

type source = Store | Computed | Inflight

val source_to_string : source -> string

type point_event = {
  key : string;
  machine : string;
  config : string;
  loop : int;
  scale : int;
  cycles : int;
  instructions : int;
  source : source;
}

type aborted_event = {
  ab_key : string;
  ab_machine : string;
  ab_config : string;
  ab_loop : int;
  ab_scale : int;
  reason : string;
}
(** A point the server could not settle within this query — the stream
    emits one of these instead of dropping the point silently. *)

type summary = {
  total : int;
  store_hits : int;
  computed : int;
  inflight_hits : int;
  quarantined : int;
  lease_deferred : int;
  lease_stolen : int;
  aborted : int;
}

type event =
  | Point of point_event
  | Aborted of aborted_event
  | Summary of summary

val point_event :
  point:Mfu_explore.Axes.point ->
  key:string ->
  result:Mfu_sim.Sim_types.result ->
  source:source ->
  point_event

val aborted_event :
  point:Mfu_explore.Axes.point ->
  key:string ->
  reason:string ->
  aborted_event

val event_to_json : event -> Mfu_util.Json.t
val event_of_json : Mfu_util.Json.t -> (event, string) result
(** Fields an event does not define are ignored, so a summary from an
    older server that still carries [cache_hits] decodes. *)

val event_line : event -> string
(** Compact JSON followed by ["\n"] — one chunk of a query stream. *)

val error_body : string -> string
(** Compact [{"error": msg}] document for non-200 replies. *)

val error_of_body : string -> string option
(** Extract [msg] back out of an {!error_body} document. *)

val query_body : spec:string -> string
(** POST [/v1/query] request body: [{"spec": spec}]. *)

val spec_of_query_body : string -> (string, string) result

module Json = Mfu_util.Json
module Axes = Mfu_explore.Axes
module Config = Mfu_isa.Config
module Sim_types = Mfu_sim.Sim_types

let version = "mfu-serve/v1"

type source = Store | Computed | Inflight

let source_to_string = function
  | Store -> "store"
  | Computed -> "computed"
  | Inflight -> "inflight"

let source_of_string = function
  | "store" -> Ok Store
  | "computed" -> Ok Computed
  | "inflight" -> Ok Inflight
  | s -> Error (Printf.sprintf "unknown source %S" s)

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

let point_event ~point ~key ~result ~source =
  {
    key;
    machine = Axes.machine_to_string point.Axes.machine;
    config = Config.name point.Axes.config;
    loop = point.Axes.loop;
    scale = point.Axes.scale;
    cycles = result.Sim_types.cycles;
    instructions = result.Sim_types.instructions;
    source;
  }

let aborted_event ~point ~key ~reason =
  {
    ab_key = key;
    ab_machine = Axes.machine_to_string point.Axes.machine;
    ab_config = Config.name point.Axes.config;
    ab_loop = point.Axes.loop;
    ab_scale = point.Axes.scale;
    reason;
  }

let event_to_json = function
  | Point p ->
      Json.Obj
        [
          ("event", Json.String "point");
          ("key", Json.String p.key);
          ("machine", Json.String p.machine);
          ("config", Json.String p.config);
          ("loop", Json.Int p.loop);
          ("scale", Json.Int p.scale);
          ("cycles", Json.Int p.cycles);
          ("instructions", Json.Int p.instructions);
          ("source", Json.String (source_to_string p.source));
        ]
  | Aborted a ->
      Json.Obj
        [
          ("event", Json.String "aborted");
          ("key", Json.String a.ab_key);
          ("machine", Json.String a.ab_machine);
          ("config", Json.String a.ab_config);
          ("loop", Json.Int a.ab_loop);
          ("scale", Json.Int a.ab_scale);
          ("reason", Json.String a.reason);
        ]
  | Summary s ->
      Json.Obj
        [
          ("event", Json.String "summary");
          ("schema", Json.String version);
          ("total", Json.Int s.total);
          ("store_hits", Json.Int s.store_hits);
          ("computed", Json.Int s.computed);
          ("inflight_hits", Json.Int s.inflight_hits);
          ("quarantined", Json.Int s.quarantined);
          ("lease_deferred", Json.Int s.lease_deferred);
          ("lease_stolen", Json.Int s.lease_stolen);
          ("aborted", Json.Int s.aborted);
        ]

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let ( let* ) = Result.bind

let event_of_json j =
  let* ev = field "event" Json.to_str j in
  match ev with
  | "point" ->
      let* key = field "key" Json.to_str j in
      let* machine = field "machine" Json.to_str j in
      let* config = field "config" Json.to_str j in
      let* loop = field "loop" Json.to_int j in
      let* scale = field "scale" Json.to_int j in
      let* cycles = field "cycles" Json.to_int j in
      let* instructions = field "instructions" Json.to_int j in
      let* source_s = field "source" Json.to_str j in
      let* source = source_of_string source_s in
      Ok
        (Point
           { key; machine; config; loop; scale; cycles; instructions; source })
  | "aborted" ->
      let* ab_key = field "key" Json.to_str j in
      let* ab_machine = field "machine" Json.to_str j in
      let* ab_config = field "config" Json.to_str j in
      let* ab_loop = field "loop" Json.to_int j in
      let* ab_scale = field "scale" Json.to_int j in
      let* reason = field "reason" Json.to_str j in
      Ok (Aborted { ab_key; ab_machine; ab_config; ab_loop; ab_scale; reason })
  | "summary" ->
      let* total = field "total" Json.to_int j in
      let* store_hits = field "store_hits" Json.to_int j in
      let* computed = field "computed" Json.to_int j in
      let* inflight_hits = field "inflight_hits" Json.to_int j in
      let* quarantined = field "quarantined" Json.to_int j in
      let* lease_deferred = field "lease_deferred" Json.to_int j in
      let* lease_stolen = field "lease_stolen" Json.to_int j in
      let* aborted = field "aborted" Json.to_int j in
      Ok
        (Summary
           {
             total;
             store_hits;
             computed;
             inflight_hits;
             quarantined;
             lease_deferred;
             lease_stolen;
             aborted;
           })
  | other -> Error (Printf.sprintf "unknown event %S" other)

let event_line ev = Json.to_string ~indent:0 (event_to_json ev) ^ "\n"

let error_body msg =
  Json.to_string ~indent:0 (Json.Obj [ ("error", Json.String msg) ])

let error_of_body body =
  match Json.of_string body with
  | Ok j -> Option.bind (Json.member "error" j) Json.to_str
  | Error _ -> None

let query_body ~spec =
  Json.to_string ~indent:0 (Json.Obj [ ("spec", Json.String spec) ])

let spec_of_query_body body =
  match Json.of_string body with
  | Error e -> Error ("request body is not JSON: " ^ e)
  | Ok j -> (
      match Option.bind (Json.member "spec" j) Json.to_str with
      | Some s -> Ok s
      | None -> Error "request body lacks a string \"spec\" field")

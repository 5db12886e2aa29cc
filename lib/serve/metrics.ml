module Json = Mfu_util.Json

type family = { mutable seconds : float; mutable points : int }

type t = {
  started : float;
  requests : int Atomic.t;
  queries : int Atomic.t;
  errors : int Atomic.t;
  store_hits : int Atomic.t;
  cache_hits : int Atomic.t;
  cache_misses : int Atomic.t;
  computed : int Atomic.t;
  inflight_hits : int Atomic.t;
  lease_deferred : int Atomic.t;
  lease_stolen : int Atomic.t;
  rejected_points : int Atomic.t;
  families_lock : Mutex.t;
  families : (string, family) Hashtbl.t;
}

let create () =
  {
    started = Unix.gettimeofday ();
    requests = Atomic.make 0;
    queries = Atomic.make 0;
    errors = Atomic.make 0;
    store_hits = Atomic.make 0;
    cache_hits = Atomic.make 0;
    cache_misses = Atomic.make 0;
    computed = Atomic.make 0;
    inflight_hits = Atomic.make 0;
    lease_deferred = Atomic.make 0;
    lease_stolen = Atomic.make 0;
    rejected_points = Atomic.make 0;
    families_lock = Mutex.create ();
    families = Hashtbl.create 16;
  }

let add a n = ignore (Atomic.fetch_and_add a n)
let incr_requests t = add t.requests 1
let incr_queries t = add t.queries 1
let incr_errors t = add t.errors 1
let add_store_hits t n = add t.store_hits n
let add_cache_hits t n = add t.cache_hits n
let add_cache_misses t n = add t.cache_misses n
let add_computed t n = add t.computed n
let add_inflight_hits t n = add t.inflight_hits n
let add_lease_deferred t n = add t.lease_deferred n
let add_lease_stolen t n = add t.lease_stolen n
let add_rejected_points t n = add t.rejected_points n

let record_compute t ~family ~seconds =
  Mutex.protect t.families_lock (fun () ->
      let f =
        match Hashtbl.find_opt t.families family with
        | Some f -> f
        | None ->
            let f = { seconds = 0.; points = 0 } in
            Hashtbl.add t.families family f;
            f
      in
      f.seconds <- f.seconds +. seconds;
      f.points <- f.points + 1)

let families_json t =
  Mutex.protect t.families_lock (fun () ->
      Hashtbl.fold
        (fun name f acc ->
          ( name,
            Json.Obj
              [
                ("seconds", Json.Float f.seconds);
                ("points", Json.Int f.points);
              ] )
          :: acc)
        t.families []
      |> List.sort (fun (a, _) (b, _) -> compare a b))

let to_json t ~in_flight ~dedups ~pool_inflight ~cache_entries ~cache_capacity
    ~store:(s : Mfu_explore.Store.stats) =
  Json.Obj
    [
      ("schema", Json.String "mfu-serve-stats/v1");
      ("uptime_seconds", Json.Float (Unix.gettimeofday () -. t.started));
      ("requests", Json.Int (Atomic.get t.requests));
      ("queries", Json.Int (Atomic.get t.queries));
      ("errors", Json.Int (Atomic.get t.errors));
      ("store_hits", Json.Int (Atomic.get t.store_hits));
      ("cache_hits", Json.Int (Atomic.get t.cache_hits));
      ("cache_misses", Json.Int (Atomic.get t.cache_misses));
      ("computed", Json.Int (Atomic.get t.computed));
      ("inflight_hits", Json.Int (Atomic.get t.inflight_hits));
      ("inflight_dedups", Json.Int dedups);
      ("in_flight", Json.Int in_flight);
      ("lease_deferred", Json.Int (Atomic.get t.lease_deferred));
      ("lease_stolen", Json.Int (Atomic.get t.lease_stolen));
      ("rejected_points", Json.Int (Atomic.get t.rejected_points));
      ("pool_inflight", Json.Int pool_inflight);
      ( "cache",
        Json.Obj
          [
            ("entries", Json.Int cache_entries);
            ("capacity", Json.Int cache_capacity);
          ] );
      ( "store",
        Json.Obj
          [
            ("entries", Json.Int s.entries);
            ("bytes", Json.Int s.bytes);
            ("loose", Json.Int s.loose_entries);
            ("packed", Json.Int s.packed_entries);
            ("segments", Json.Int s.segment_count);
            ("segment_bytes", Json.Int s.segment_bytes);
            ("shadowed", Json.Int s.shadowed_records);
            ("quarantined", Json.Int s.quarantined_count);
          ] );
      ("compute_by_family", Json.Obj (families_json t));
    ]

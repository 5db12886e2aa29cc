(* The result server end to end, over real sockets: cold queries
   compute and stream, warm queries are pure store hits, concurrent
   clients asking for the same miss trigger exactly one simulation
   (the in-flight dedup contract), oversized specs are rejected at
   admission, and the bounded per-client queue applies back-pressure.

   Servers listen on 127.0.0.1 with port 0 (or a Unix-domain socket in
   a temp dir) so tests never collide. *)

module Axes = Mfu_explore.Axes
module Store = Mfu_explore.Store
module Sweep = Mfu_explore.Sweep
module Server = Mfu_serve.Server
module Client = Mfu_serve.Client
module Protocol = Mfu_serve.Protocol
module Inflight = Mfu_serve.Inflight
module Bqueue = Mfu_serve.Bqueue
module Json = Mfu_util.Json
module Http = Mfu_util.Http

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let temp_dir () =
  let path = Filename.temp_file "mfu_serve" "" in
  Sys.remove path;
  path

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* A started server on an ephemeral TCP port over a fresh store,
   cleaned up whatever the test does. *)
let with_server ?(configure = fun c -> c) f =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      rm_rf (dir ^ ".leases"))
    (fun () ->
      let cfg =
        configure
          {
            (Server.default_config ~store_dir:dir
               ~listen:(Server.Tcp ("127.0.0.1", 0)))
            with
            jobs = Some 2;
            lease = false;
            request_timeout = 5.;
          }
      in
      let t = Server.start cfg in
      Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f t))

let with_client t f =
  let c = Client.connect ~timeout:30. (Server.bound_addr t) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let spec_2pts = "units=1,2;size=10;bus=nbus;config=m11br5;loops=5"
let spec_1pt = "units=1;size=10;bus=nbus;config=m11br5;loops=5"

let summ = Alcotest.of_pp (fun ppf (s : Protocol.summary) ->
    Format.fprintf ppf
      "{total=%d; store=%d; cache=%d; computed=%d; inflight=%d; quar=%d; \
       def=%d; stolen=%d; aborted=%d}"
      s.Protocol.total s.Protocol.store_hits s.Protocol.cache_hits
      s.Protocol.computed s.Protocol.inflight_hits s.Protocol.quarantined
      s.Protocol.lease_deferred s.Protocol.lease_stolen s.Protocol.aborted)

let query_ok ?on_event c ~spec =
  match Client.query ?on_event c ~spec with
  | Ok s -> s
  | Error e -> Alcotest.failf "query failed: %s" e

let test_cold_then_warm () =
  with_server (fun t ->
      with_client t (fun c ->
          let sources = ref [] in
          let on_event = function
            | Protocol.Point p -> sources := p.Protocol.source :: !sources
            | Protocol.Aborted _ | Protocol.Summary _ -> ()
          in
          let cold = query_ok ~on_event c ~spec:spec_2pts in
          Alcotest.check summ "cold: everything computed"
            {
              Protocol.total = 2;
              store_hits = 0;
              cache_hits = 0;
              computed = 2;
              inflight_hits = 0;
              quarantined = 0;
              lease_deferred = 0;
              lease_stolen = 0;
              aborted = 0;
            }
            cold;
          Alcotest.(check bool) "cold events say computed" true
            (List.for_all (fun s -> s = Protocol.Computed) !sources);
          sources := [];
          (* Same connection, second query: pure store hits. *)
          let warm = query_ok ~on_event c ~spec:spec_2pts in
          Alcotest.check summ "warm: everything from the store"
            {
              Protocol.total = 2;
              store_hits = 2;
              cache_hits = 2;
              computed = 0;
              inflight_hits = 0;
              quarantined = 0;
              lease_deferred = 0;
              lease_stolen = 0;
              aborted = 0;
            }
            warm;
          Alcotest.(check bool) "warm events say store" true
            (List.for_all (fun s -> s = Protocol.Store) !sources)))

let test_served_results_are_exact () =
  with_server (fun t ->
      with_client t (fun c ->
          let got = ref [] in
          let on_event = function
            | Protocol.Point p -> got := p :: !got
            | Protocol.Aborted _ | Protocol.Summary _ -> ()
          in
          ignore (query_ok ~on_event c ~spec:spec_2pts);
          let points =
            match Axes.of_string spec_2pts with
            | Ok a -> Axes.enumerate a
            | Error e -> Alcotest.fail e
          in
          Alcotest.(check int) "one event per point" (List.length points)
            (List.length !got);
          List.iter
            (fun p ->
              let key = Axes.key p in
              let expected = Axes.run p in
              match
                List.find_opt (fun e -> e.Protocol.key = key) !got
              with
              | None -> Alcotest.failf "no event for %s" key
              | Some e ->
                  Alcotest.(check int) "cycles" expected.Mfu_sim.Sim_types.cycles
                    e.Protocol.cycles;
                  Alcotest.(check int) "instructions"
                    expected.Mfu_sim.Sim_types.instructions
                    e.Protocol.instructions)
            points))

(* Cold misses stream best-first: with one worker, the computed events
   of a multi-loop query arrive in exactly {!Axes.rank} order, not
   grouped by loop. *)
let test_cold_stream_in_rank_order () =
  let spec = "units=1-2;size=10,40;loops=1,3,5,7" in
  with_server
    ~configure:(fun c -> { c with Server.jobs = Some 1 })
    (fun t ->
      with_client t (fun c ->
          let got = ref [] in
          let on_event = function
            | Protocol.Point p when p.Protocol.source = Protocol.Computed ->
                got := p.Protocol.key :: !got
            | Protocol.Point _ | Protocol.Aborted _ | Protocol.Summary _ -> ()
          in
          ignore (query_ok ~on_event c ~spec);
          let points =
            match Axes.of_string spec with
            | Ok a -> Axes.enumerate a
            | Error e -> Alcotest.fail e
          in
          let ranked = List.map (fun (p, _) -> Axes.key p) (Axes.rank points) in
          Alcotest.(check int) "every point computed" (List.length points)
            (List.length !got);
          Alcotest.(check (list string)) "computed in rank order" ranked
            (List.rev !got)))

let points_of spec =
  match Axes.of_string spec with
  | Ok a -> Axes.enumerate a
  | Error e -> Alcotest.fail e

(* The keys of a query's computed events, in arrival order. *)
let computed_keys c ~spec =
  let got = ref [] in
  let on_event = function
    | Protocol.Point p when p.Protocol.source = Protocol.Computed ->
        got := p.Protocol.key :: !got
    | Protocol.Point _ | Protocol.Aborted _ | Protocol.Summary _ -> ()
  in
  let summary = query_ok ~on_event c ~spec in
  (summary, List.rev !got)

(* Only the misses are ranked: after one loop of the grid is warm, the
   rest of a multi-loop query streams in the rank order of what is
   still missing, and the warm points come from the store. *)
let test_partial_warm_streams_misses_in_rank_order () =
  let warm_spec = "units=1-2;size=10,40;loops=5" in
  let spec = "units=1-2;size=10,40;loops=1,3,5,7" in
  with_server
    ~configure:(fun c -> { c with Server.jobs = Some 1 })
    (fun t ->
      with_client t (fun c ->
          ignore (query_ok c ~spec:warm_spec);
          let summary, got = computed_keys c ~spec in
          let warm = List.map Axes.key (points_of warm_spec) in
          let misses =
            List.filter
              (fun p -> not (List.mem (Axes.key p) warm))
              (points_of spec)
          in
          Alcotest.(check int) "warm points from the store"
            (List.length warm) summary.Protocol.store_hits;
          Alcotest.(check (list string)) "misses computed in rank order"
            (List.map (fun (p, _) -> Axes.key p) (Axes.rank misses))
            got))

(* Without the surrogate, service order is enumeration order. *)
let test_unguided_streams_in_enumeration_order () =
  let spec = "units=1-2;size=10,40;loops=1,3,5,7" in
  with_server
    ~configure:(fun c -> { c with Server.jobs = Some 1; guided = false })
    (fun t ->
      with_client t (fun c ->
          let _, got = computed_keys c ~spec in
          Alcotest.(check (list string)) "computed in enumeration order"
            (List.map Axes.key (points_of spec))
            got))

(* The acceptance criterion: N clients requesting the same miss
   concurrently trigger exactly one simulation. Deterministically: the
   test claims the key's flight first (becoming the owner), fires N
   real clients — every one of them enrolls as a waiter, which is what
   the dedup counter counts — then publishes the entry. No client ever
   computes; each settles from the owner's publication. *)
let test_concurrent_clients_dedup () =
  with_server (fun t ->
      let point =
        match Axes.of_string spec_1pt with
        | Ok a -> (
            match Axes.enumerate a with
            | [ p ] -> p
            | ps -> Alcotest.failf "expected 1 point, got %d" (List.length ps))
        | Error e -> Alcotest.fail e
      in
      let key = Axes.key point in
      let table = Server.inflight_table t in
      (match Inflight.claim table ~key with
      | `Owner -> ()
      | `Waiter -> Alcotest.fail "test could not own the flight");
      let n = 5 in
      let summaries = Array.make n None in
      let clients =
        Array.init n (fun i ->
            Thread.create
              (fun () ->
                with_client t (fun c ->
                    summaries.(i) <- Some (Client.query c ~spec:spec_1pt)))
              ())
      in
      (* Every producer thread has enrolled once the dedup counter
         reaches n (counted per waiter enrollment). *)
      let deadline = Unix.gettimeofday () +. 10. in
      while Inflight.dedups table < n && Unix.gettimeofday () < deadline do
        Thread.delay 0.01
      done;
      Alcotest.(check int) "all clients deduped against one flight" n
        (Inflight.dedups table);
      Alcotest.(check int) "one flight in the table" 1
        (Inflight.active table);
      (* Publish exactly as the compute path would, then retire the
         flight. *)
      Store.put
        ~meta:(Sweep.meta_of_point point)
        (Server.store t) ~key (Axes.run point);
      Inflight.publish table ~key;
      Array.iter Thread.join clients;
      Array.iter
        (fun s ->
          match s with
          | Some (Ok s) ->
              Alcotest.check summ "waiter settled by the owner's publication"
                {
                  Protocol.total = 1;
                  store_hits = 0;
                  cache_hits = 0;
                  computed = 0;
                  inflight_hits = 1;
                  quarantined = 0;
                  lease_deferred = 0;
                  lease_stolen = 0;
                  aborted = 0;
                }
                s
          | Some (Error e) -> Alcotest.failf "client failed: %s" e
          | None -> Alcotest.fail "client never finished")
        summaries)

let test_oversized_spec_rejected () =
  with_server
    ~configure:(fun c -> { c with max_points = 10 })
    (fun t ->
      with_client t (fun c ->
          (match Client.query c ~spec:"table7" with
          | Ok _ -> Alcotest.fail "960-point spec must be rejected"
          | Error e ->
              Alcotest.(check bool) "names the sizes" true
                (contains ~sub:"960" e && contains ~sub:"10" e));
          (* The connection survives the rejection (keep-alive). *)
          let s = query_ok c ~spec:spec_1pt in
          Alcotest.(check int) "still serving" 1 s.Protocol.total))

let test_point_endpoint () =
  with_server (fun t ->
      with_client t (fun c ->
          (match Client.point c ~spec:spec_1pt with
          | Error e -> Alcotest.failf "point failed: %s" e
          | Ok p ->
              let point =
                match Axes.of_string spec_1pt with
                | Ok a -> List.hd (Axes.enumerate a)
                | Error e -> Alcotest.fail e
              in
              let expected = Axes.run point in
              Alcotest.(check int) "cycles" expected.Mfu_sim.Sim_types.cycles
                p.Protocol.cycles;
              Alcotest.(check bool) "first resolution computed" true
                (p.Protocol.source = Protocol.Computed));
          (match Client.point c ~spec:spec_1pt with
          | Error e -> Alcotest.failf "second point failed: %s" e
          | Ok p ->
              Alcotest.(check bool) "second resolution from the store" true
                (p.Protocol.source = Protocol.Store));
          match Client.point c ~spec:spec_2pts with
          | Ok _ -> Alcotest.fail "two-point spec must be rejected"
          | Error e ->
              Alcotest.(check bool) "mentions enumeration" true
                (contains ~sub:"exactly one" e)))

let test_bad_spec_is_400 () =
  with_server (fun t ->
      with_client t (fun c ->
          match Client.query c ~spec:"loops=nonsense" with
          | Ok _ -> Alcotest.fail "bad spec must fail"
          | Error e ->
              Alcotest.(check bool) "HTTP 400 with reason" true
                (contains ~sub:"HTTP 400" e)))

let test_stats_endpoint () =
  with_server (fun t ->
      with_client t (fun c ->
          ignore (query_ok c ~spec:spec_1pt);
          ignore (query_ok c ~spec:spec_1pt);
          match Client.stats c with
          | Error e -> Alcotest.failf "stats failed: %s" e
          | Ok doc ->
              let int_field name =
                match Option.bind (Json.member name doc) Json.to_int with
                | Some v -> v
                | None -> Alcotest.failf "missing field %s" name
              in
              Alcotest.(check (option string)) "schema"
                (Some "mfu-serve-stats/v1")
                (Option.bind (Json.member "schema" doc) Json.to_str);
              Alcotest.(check int) "computed once" 1 (int_field "computed");
              Alcotest.(check int) "one store hit" 1 (int_field "store_hits");
              Alcotest.(check bool) "uptime present" true
                (Option.bind (Json.member "uptime_seconds" doc) Json.to_float
                <> None);
              let store =
                match Json.member "store" doc with
                | Some s -> s
                | None -> Alcotest.fail "missing store block"
              in
              Alcotest.(check (option int)) "one entry" (Some 1)
                (Option.bind (Json.member "entries" store) Json.to_int)))

(* /stats attributes compute time per {!Axes.family_key}: a cold query
   over several families and loops reports exactly those labels, and
   their point counts add up to what was computed. *)
let test_stats_compute_by_family () =
  let spec =
    "org=cray; dep=tomasulo; units=1-2; size=10; config=m11br5; loops=1,5"
  in
  let points = points_of spec in
  with_server (fun t ->
      with_client t (fun c ->
          let summary = query_ok c ~spec in
          match Client.stats c with
          | Error e -> Alcotest.failf "stats failed: %s" e
          | Ok doc ->
              let families =
                match Json.member "compute_by_family" doc with
                | Some (Json.Obj fields) -> fields
                | _ -> Alcotest.fail "missing compute_by_family object"
              in
              Alcotest.(check (list string)) "family labels"
                (List.sort_uniq compare (List.map Axes.family_key points))
                (List.map fst families);
              let points_of_family (name, f) =
                match Option.bind (Json.member "points" f) Json.to_int with
                | Some n -> n
                | None -> Alcotest.failf "%s: missing points" name
              in
              Alcotest.(check int) "points add up" summary.Protocol.computed
                (List.fold_left (fun acc f -> acc + points_of_family f) 0
                   families);
              Alcotest.(check int) "every point computed"
                (List.length points) summary.Protocol.computed))

let test_unix_socket () =
  let dir = temp_dir () in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let sock = Filename.concat dir "serve.sock" in
      let store_dir = Filename.concat dir "store" in
      let cfg =
        {
          (Server.default_config ~store_dir
             ~listen:(Server.Unix_sock sock))
          with
          jobs = Some 1;
          lease = false;
        }
      in
      let t = Server.start cfg in
      Fun.protect
        ~finally:(fun () -> Server.stop t)
        (fun () ->
          with_client t (fun c ->
              Alcotest.(check bool) "healthz over unix socket" true
                (Client.healthz c);
              let s = query_ok c ~spec:spec_1pt in
              Alcotest.(check int) "serves over unix socket" 1
                s.Protocol.computed));
      Alcotest.(check bool) "socket file removed on stop" false
        (Sys.file_exists sock))

(* Serving must leave the store byte-identical to a plain sweep of the
   same spec — the CI smoke job enforces this on table7; here the same
   invariant on a small spec. *)
let test_store_bytes_match_sweep () =
  with_server (fun t ->
      with_client t (fun c -> ignore (query_ok c ~spec:spec_2pts));
      let swept = temp_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf swept)
        (fun () ->
          let store = Store.open_ swept in
          let points =
            match Axes.of_string spec_2pts with
            | Ok a -> Axes.enumerate a
            | Error e -> Alcotest.fail e
          in
          ignore (Sweep.run ~jobs:1 ~store points);
          let served_root = Store.root (Server.store t) in
          List.iter
            (fun p ->
              let key = Axes.key p in
              let read root =
                let path =
                  Store.entry_path (Store.open_ root) ~key
                in
                let ic = open_in_bin path in
                Fun.protect
                  ~finally:(fun () -> close_in ic)
                  (fun () ->
                    really_input_string ic (in_channel_length ic))
              in
              Alcotest.(check string) "entry bytes identical" (read swept)
                (read served_root))
            points))

(* A query long enough to span several compute chunks, the last one
   partial, at two workers: every point is computed exactly once and
   the store matches a plain sweep byte for byte. *)
let test_multi_chunk_store_bytes_match_sweep () =
  let spec = "units=1-4;size=10,20,40;bus=nbus;config=m11br5;loops=1,5,7" in
  let points = points_of spec in
  Alcotest.(check bool) "spans several chunks" true
    (List.length points > 16 && List.length points mod 8 <> 0);
  with_server (fun t ->
      let summary = with_client t (fun c -> query_ok c ~spec) in
      Alcotest.(check int) "all computed" (List.length points)
        summary.Protocol.computed;
      Alcotest.(check int) "none aborted" 0 summary.Protocol.aborted;
      let swept = temp_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf swept)
        (fun () ->
          ignore (Sweep.run ~jobs:1 ~store:(Store.open_ swept) points);
          let read root key =
            let path = Store.entry_path (Store.open_ root) ~key in
            let ic = open_in_bin path in
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          let served_root = Store.root (Server.store t) in
          List.iter
            (fun p ->
              let key = Axes.key p in
              Alcotest.(check string) "entry bytes identical"
                (read swept key) (read served_root key))
            points))

(* Serving straight off a packed store: sweep + compact a store before
   the server ever opens it, then check the first query is pure store
   hits (decoded segment records, no recomputation) and the second is
   answered from the hot-entry cache. *)
let test_serve_from_packed_store () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      rm_rf (dir ^ ".leases"))
    (fun () ->
      let store = Store.open_ dir in
      let points =
        match Axes.of_string spec_2pts with
        | Ok a -> Axes.enumerate a
        | Error e -> Alcotest.fail e
      in
      (* an earlier test's Server.stop may have drained the pool *)
      Mfu_util.Pool.resume ();
      let _ = Sweep.run ~jobs:1 ~store points in
      let c = Store.compact store in
      Alcotest.(check int) "both points packed" 2 c.Store.folded;
      let cfg =
        {
          (Server.default_config ~store_dir:dir
             ~listen:(Server.Tcp ("127.0.0.1", 0)))
          with
          jobs = Some 2;
          lease = false;
          request_timeout = 5.;
        }
      in
      let t = Server.start cfg in
      Fun.protect
        ~finally:(fun () -> Server.stop t)
        (fun () ->
          with_client t (fun cl ->
              let first = query_ok cl ~spec:spec_2pts in
              Alcotest.check summ "first query: pure packed store hits"
                {
                  Protocol.total = 2;
                  store_hits = 2;
                  cache_hits = 0;
                  computed = 0;
                  inflight_hits = 0;
                  quarantined = 0;
                  lease_deferred = 0;
                  lease_stolen = 0;
                  aborted = 0;
                }
                first;
              let second = query_ok cl ~spec:spec_2pts in
              Alcotest.(check int) "second query served from the cache" 2
                second.Protocol.cache_hits;
              Alcotest.(check int) "cache hits still count as store hits" 2
                second.Protocol.store_hits;
              (* the server's stats expose the packed layout *)
              match Client.stats cl with
              | Error e -> Alcotest.failf "stats failed: %s" e
              | Ok doc ->
                  let member k j = Option.get (Json.member k j) in
                  let store_doc = member "store" doc in
                  Alcotest.(check int) "stats: packed entries" 2
                    (Option.get (Json.to_int (member "packed" store_doc)));
                  Alcotest.(check int) "stats: no loose entries" 0
                    (Option.get (Json.to_int (member "loose" store_doc)));
                  Alcotest.(check bool) "stats: cache hits recorded" true
                    (Option.get (Json.to_int (member "cache_hits" doc)) >= 2))))

(* connect_retry rides out a server that binds late, and still fails
   cleanly when nobody ever listens. *)
let test_connect_retry () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      rm_rf (dir ^ ".leases"))
    (fun () ->
      Sys.mkdir dir 0o755;
      let sock = Filename.concat dir "late.sock" in
      let addr = Server.Unix_sock sock in
      (* nobody listening: exhaustion re-raises the transient error *)
      (match Client.connect_retry ~retries:1 ~base_delay:0.01 addr with
      | _ -> Alcotest.fail "connected to nothing"
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
          ());
      (* server binds ~150 ms after the client starts dialing *)
      let server = ref None in
      let binder =
        Thread.create
          (fun () ->
            Thread.delay 0.15;
            let cfg =
              {
                (Server.default_config
                   ~store_dir:(Filename.concat dir "store") ~listen:addr)
                with
                jobs = Some 1;
                lease = false;
                request_timeout = 5.;
              }
            in
            server := Some (Server.start cfg))
          ()
      in
      Fun.protect
        ~finally:(fun () ->
          Thread.join binder;
          Option.iter Server.stop !server)
        (fun () ->
          let c = Client.connect_retry ~timeout:30. ~retries:8 addr in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              Alcotest.(check bool) "healthy once the bind lands" true
                (Client.healthz c))))

(* The bounded queue under pressure: with capacity 2, a producer's
   third push blocks until the consumer pops, and closing releases
   everyone. *)
let test_bqueue_backpressure () =
  let q = Bqueue.create ~capacity:2 in
  let pushed = Atomic.make 0 in
  let producer =
    Thread.create
      (fun () ->
        for i = 1 to 4 do
          if Bqueue.push q i then Atomic.incr pushed
        done)
      ()
  in
  let deadline = Unix.gettimeofday () +. 5. in
  while Atomic.get pushed < 2 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Thread.delay 0.05;
  Alcotest.(check int) "producer blocked at capacity" 2 (Atomic.get pushed);
  Alcotest.(check (option int)) "fifo pop" (Some 1) (Bqueue.pop q);
  Alcotest.(check (option int)) "fifo pop" (Some 2) (Bqueue.pop q);
  Alcotest.(check (option int)) "fifo pop" (Some 3) (Bqueue.pop q);
  Alcotest.(check (option int)) "fifo pop" (Some 4) (Bqueue.pop q);
  Thread.join producer;
  Alcotest.(check int) "all pushes landed" 4 (Atomic.get pushed);
  Bqueue.close q;
  Alcotest.(check (option int)) "closed and drained" None (Bqueue.pop q);
  Alcotest.(check bool) "push after close is dropped" false (Bqueue.push q 9)

let test_bqueue_close_releases_producer () =
  let q = Bqueue.create ~capacity:1 in
  Alcotest.(check bool) "first push fits" true (Bqueue.push q 1);
  let result = ref None in
  let producer =
    Thread.create (fun () -> result := Some (Bqueue.push q 2)) ()
  in
  Thread.delay 0.05;
  Bqueue.close q;
  Thread.join producer;
  Alcotest.(check (option bool)) "blocked push released as dropped"
    (Some false) !result;
  Alcotest.(check (option int)) "buffered item still drains" (Some 1)
    (Bqueue.pop q);
  Alcotest.(check (option int)) "then closed" None (Bqueue.pop q)

let test_inflight_unit () =
  let t = Inflight.create () in
  Alcotest.(check bool) "first claim owns" true
    (Inflight.claim t ~key:"k" = `Owner);
  Alcotest.(check bool) "second claim waits" true
    (Inflight.claim t ~key:"k" = `Waiter);
  Alcotest.(check int) "dedup counted" 1 (Inflight.dedups t);
  Alcotest.(check int) "one active" 1 (Inflight.active t);
  let woken = Atomic.make 0 in
  let waiters =
    List.init 3 (fun _ ->
        Thread.create
          (fun () ->
            match Inflight.wait t ~key:"k" with
            | `Published -> Atomic.incr woken
            | `Aborted -> ())
          ())
  in
  Thread.delay 0.05;
  Inflight.publish t ~key:"k";
  List.iter Thread.join waiters;
  Alcotest.(check int) "all waiters woken with success" 3 (Atomic.get woken);
  Alcotest.(check int) "flight retired" 0 (Inflight.active t);
  Alcotest.(check bool) "retired key waits as published" true
    (Inflight.wait t ~key:"k" = `Published);
  (* Abort path. *)
  ignore (Inflight.claim t ~key:"j");
  let aborted = Atomic.make false in
  let w =
    Thread.create
      (fun () ->
        match Inflight.wait t ~key:"j" with
        | `Aborted -> Atomic.set aborted true
        | `Published -> ())
      ()
  in
  Thread.delay 0.05;
  Inflight.abort t ~key:"j";
  Thread.join w;
  Alcotest.(check bool) "waiter sees the abort" true (Atomic.get aborted);
  (* Timeout path: a wedged owner does not hang waiters forever. *)
  ignore (Inflight.claim t ~key:"w");
  Alcotest.(check bool) "timed-out wait reports aborted" true
    (Inflight.wait ~timeout:0.1 t ~key:"w" = `Aborted)

(* The write-side deadline: a peer that stops reading must fail the
   writer with ETIMEDOUT once the socket buffer fills, not block it
   forever (the review case: one stalled client wedging the pool). *)
let test_write_timeout () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ a; b ])
    (fun () ->
      Http.set_send_timeout a 0.2;
      let big = String.make (8 * 1024 * 1024) 'x' in
      match Http.respond a big with
      | () -> Alcotest.fail "write into a full socket must time out"
      | exception Unix.Unix_error (Unix.ETIMEDOUT, _, _) -> ())

(* A chunked request body would desync keep-alive framing if treated as
   Content-Length 0; the server must refuse it outright. *)
let test_transfer_encoding_rejected () =
  with_server (fun t ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Server.sockaddr_of (Server.bound_addr t));
          let req =
            "POST /v1/query HTTP/1.1\r\nHost: x\r\n\
             Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"
          in
          ignore (Unix.write_substring fd req 0 (String.length req));
          let reader = Http.reader ~timeout:5. fd in
          match Http.read_response_head reader with
          | Ok resp -> Alcotest.(check int) "rejected" 400 resp.Http.status
          | Error e ->
              Alcotest.failf "no response: %s" (Http.error_to_string e)))

(* A wedged in-flight owner (claims the key, never publishes or aborts)
   must not hang waiters' requests forever: the settle loop is bounded
   by request_timeout and the point comes back as an aborted event. *)
let test_wedged_owner_bounded () =
  with_server
    ~configure:(fun c -> { c with request_timeout = 0.5 })
    (fun t ->
      let point =
        match Axes.of_string spec_1pt with
        | Ok a -> List.hd (Axes.enumerate a)
        | Error e -> Alcotest.fail e
      in
      let key = Axes.key point in
      let table = Server.inflight_table t in
      (match Inflight.claim table ~key with
      | `Owner -> ()
      | `Waiter -> Alcotest.fail "test could not own the flight");
      let aborts = ref [] in
      let on_event = function
        | Protocol.Aborted a -> aborts := a :: !aborts
        | Protocol.Point _ | Protocol.Summary _ -> ()
      in
      let s =
        with_client t (fun c -> query_ok ~on_event c ~spec:spec_1pt)
      in
      Alcotest.(check int) "point aborted, request not hung" 1
        s.Protocol.aborted;
      Alcotest.(check int) "nothing computed" 0 s.Protocol.computed;
      (match !aborts with
      | [ a ] ->
          Alcotest.(check string) "names the key" key a.Protocol.ab_key;
          Alcotest.(check bool) "reason blames the owner" true
            (contains ~sub:"owner" a.Protocol.reason)
      | l ->
          Alcotest.failf "expected 1 aborted event, got %d" (List.length l));
      Inflight.abort table ~key)

let test_protocol_roundtrip () =
  let p =
    {
      Protocol.key = "mfu-point/v1 some key";
      machine = "ruu(units=1,size=10,bus=N-Bus,branches=stall)";
      config = "M11BR5";
      loop = 5;
      scale = 1;
      cycles = 123;
      instructions = 45;
      source = Protocol.Inflight;
    }
  in
  let a =
    {
      Protocol.ab_key = "mfu-point/v1 some key";
      ab_machine = "ruu(units=1,size=10,bus=N-Bus,branches=stall)";
      ab_config = "M11BR5";
      ab_loop = 5;
      ab_scale = 1;
      reason = "in-flight owner did not settle within 5s; try again";
    }
  in
  let s =
    {
      Protocol.total = 9;
      store_hits = 4;
      cache_hits = 2;
      computed = 3;
      inflight_hits = 2;
      quarantined = 1;
      lease_deferred = 1;
      lease_stolen = 0;
      aborted = 1;
    }
  in
  List.iter
    (fun ev ->
      let line = Protocol.event_line ev in
      match
        Result.bind (Json.of_string line) Protocol.event_of_json
      with
      | Ok ev' -> Alcotest.(check bool) "round-trips" true (ev = ev')
      | Error e -> Alcotest.failf "round-trip failed: %s" e)
    [ Protocol.Point p; Protocol.Aborted a; Protocol.Summary s ];
  Alcotest.(check (option string)) "error body round-trips" (Some "boom")
    (Protocol.error_of_body (Protocol.error_body "boom"))

let () =
  Alcotest.run "serve"
    [
      ( "building blocks",
        [
          Alcotest.test_case "bqueue back-pressure" `Quick
            test_bqueue_backpressure;
          Alcotest.test_case "bqueue close releases producer" `Quick
            test_bqueue_close_releases_producer;
          Alcotest.test_case "inflight dedup table" `Quick test_inflight_unit;
          Alcotest.test_case "protocol round-trip" `Quick
            test_protocol_roundtrip;
          Alcotest.test_case "stalled reader times the writer out" `Quick
            test_write_timeout;
        ] );
      ( "server",
        [
          Alcotest.test_case "cold then warm" `Quick test_cold_then_warm;
          Alcotest.test_case "served results are exact" `Quick
            test_served_results_are_exact;
          Alcotest.test_case "cold misses stream in rank order" `Quick
            test_cold_stream_in_rank_order;
          Alcotest.test_case "partially warm query ranks only misses" `Quick
            test_partial_warm_streams_misses_in_rank_order;
          Alcotest.test_case "unguided query streams in enumeration order"
            `Quick test_unguided_streams_in_enumeration_order;
          Alcotest.test_case "concurrent clients dedup to one simulation"
            `Quick test_concurrent_clients_dedup;
          Alcotest.test_case "wedged owner bounded by request timeout"
            `Quick test_wedged_owner_bounded;
          Alcotest.test_case "chunked request body rejected" `Quick
            test_transfer_encoding_rejected;
          Alcotest.test_case "oversized spec rejected" `Quick
            test_oversized_spec_rejected;
          Alcotest.test_case "single-point endpoint" `Quick
            test_point_endpoint;
          Alcotest.test_case "bad spec is 400" `Quick test_bad_spec_is_400;
          Alcotest.test_case "stats endpoint" `Quick test_stats_endpoint;
          Alcotest.test_case "stats compute by family" `Quick
            test_stats_compute_by_family;
          Alcotest.test_case "unix-domain socket" `Quick test_unix_socket;
          Alcotest.test_case "store bytes match a plain sweep" `Quick
            test_store_bytes_match_sweep;
          Alcotest.test_case "multi-chunk store bytes match a plain sweep"
            `Quick test_multi_chunk_store_bytes_match_sweep;
          Alcotest.test_case "serves a packed store, caches warm hits"
            `Quick test_serve_from_packed_store;
          Alcotest.test_case "connect retry rides out a late bind" `Quick
            test_connect_retry;
        ] );
    ]

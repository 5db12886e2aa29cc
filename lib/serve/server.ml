module Axes = Mfu_explore.Axes
module Store = Mfu_explore.Store
module Sweep = Mfu_explore.Sweep
module Lease = Mfu_explore.Lease
module Http = Mfu_util.Http
module Json = Mfu_util.Json
module Pool = Mfu_util.Pool

type addr = Unix_sock of string | Tcp of string * int

let addr_of_string s =
  match String.length s with
  | 0 -> Error "empty listen address"
  | _ when String.length s > 5 && String.sub s 0 5 = "unix:" ->
      Ok (Unix_sock (String.sub s 5 (String.length s - 5)))
  | _ -> (
      match String.rindex_opt s ':' with
      | None -> Error (Printf.sprintf "%S: expected unix:PATH or HOST:PORT" s)
      | Some i -> (
          let host = String.sub s 0 i in
          let port = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt port with
          | Some p when p >= 0 && p < 65536 ->
              Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
          | _ -> Error (Printf.sprintf "%S: invalid port %S" s port)))

let addr_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let sockaddr_of = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
      let inet =
        match Unix.inet_addr_of_string host with
        | a -> a
        | exception Failure _ -> (
            match Unix.gethostbyname host with
            | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
                failwith (Printf.sprintf "cannot resolve host %S" host)
            | { Unix.h_addr_list; _ } -> h_addr_list.(0))
      in
      Unix.ADDR_INET (inet, port)

type config = {
  store_dir : string;
  listen : addr;
  jobs : int option;
  max_points : int;
  lease : bool;
  lease_ttl : float;
  request_timeout : float;
  queue_capacity : int;
  guided : bool;
  cache_entries : int;
}

let default_config ~store_dir ~listen =
  {
    store_dir;
    listen;
    jobs = None;
    max_points = 4096;
    lease = true;
    lease_ttl = 60.;
    request_timeout = 30.;
    queue_capacity = 256;
    guided = true;
    cache_entries = 8192;
  }

type conn = { fd : Unix.file_descr; thread : Thread.t option ref }

type t = {
  cfg : config;
  store : Store.t;
  cache : Cache.t;
  lease : Lease.t option;
  inflight : Inflight.t;
  metrics : Metrics.t;
  listen_fd : Unix.file_descr;
  bound : addr;
  stopping : bool Atomic.t;
  stopped : bool Atomic.t;
  conns_lock : Mutex.t;
  conns : (int, conn) Hashtbl.t;
  mutable next_conn : int;
  mutable accept_thread : Thread.t option;
}

(* ------------------------------------------------------------------ *)
(* Query resolution                                                   *)

type tally = {
  mutable store_hits : int;
  mutable cache_hits : int;
  mutable computed : int;
  mutable inflight_hits : int;
  mutable quarantined : int;
  mutable lease_deferred : int;
  mutable lease_stolen : int;
  mutable aborted : int;
}

let release_lease st ~key =
  match st.lease with Some l -> Lease.release l ~key | None -> ()

(* Simulate one point, attributing its wall time to its family on
   [/stats]. *)
let simulate st point =
  let t0 = Unix.gettimeofday () in
  let r = Axes.run point in
  Metrics.record_compute st.metrics ~family:(Axes.family_key point)
    ~seconds:(Unix.gettimeofday () -. t0);
  r

(* Simulate one point on the calling thread, publish it (store entry
   bytes identical to sweep.exe's), release any lease, and wake
   in-process waiters. On failure the claim is aborted so waiters can
   take over instead of hanging. *)
let compute_single st point key =
  match
    let r = simulate st point in
    Store.put ~meta:(Sweep.meta_of_point point) st.store ~key r;
    r
  with
  | r ->
      release_lease st ~key;
      Inflight.publish st.inflight ~key;
      r
  | exception e ->
      release_lease st ~key;
      Inflight.abort st.inflight ~key;
      raise e

(* Resolve a keyed, deduplicated point list against the store, the
   in-process inflight table, and the cross-process lease layer,
   calling [emit] once per settled point (possibly from pool worker
   domains) and returning the per-query tallies. *)
let process st ~emit keyed =
  let tally =
    {
      store_hits = 0;
      cache_hits = 0;
      computed = 0;
      inflight_hits = 0;
      quarantined = 0;
      lease_deferred = 0;
      lease_stolen = 0;
      aborted = 0;
    }
  in
  let emit_point point key result source =
    (* Every settled point warms the LRU, whatever path settled it. *)
    Cache.add st.cache key result;
    emit (Protocol.Point (Protocol.point_event ~point ~key ~result ~source))
  in
  (* A point this query gives up on still gets an event: the stream
     must account for every requested point, never silently omit one. *)
  let emit_abort point key reason =
    tally.aborted <- tally.aborted + 1;
    emit (Protocol.Aborted (Protocol.aborted_event ~point ~key ~reason))
  in
  (* Pass 1: stream store hits as they are found, consulting the
     decoded-result LRU before touching the store. A cache hit counts
     as a store hit on the wire (same provenance, same bytes) and is
     additionally tallied as such. *)
  let misses = ref [] in
  List.iter
    (fun ((p, k) as pk) ->
      match Cache.find st.cache k with
      | Some r ->
          tally.store_hits <- tally.store_hits + 1;
          tally.cache_hits <- tally.cache_hits + 1;
          emit_point p k r Protocol.Store
      | None -> (
          match Store.lookup st.store ~key:k with
          | `Hit r ->
              tally.store_hits <- tally.store_hits + 1;
              emit_point p k r Protocol.Store
          | `Corrupt ->
              tally.quarantined <- tally.quarantined + 1;
              misses := pk :: !misses
          | `Miss -> misses := pk :: !misses))
    keyed;
  let misses = List.rev !misses in
  (* Pass 2: claim each miss; one owner per key process-wide. *)
  let owned, waiting =
    List.partition
      (fun (_p, k) -> Inflight.claim st.inflight ~key:k = `Owner)
      misses
  in
  (* Pass 3: of the keys we own in-process, set aside those another
     process holds a live lease on. *)
  let mine, held =
    match st.lease with
    | None -> (owned, [])
    | Some l ->
        List.partition
          (fun (_p, k) ->
            match Lease.try_acquire l ~key:k with
            | Lease.Acquired -> true
            | Lease.Held _ -> false)
          owned
  in
  (* Pass 4: compute what is ours on the pool, best predicted machines
     first: the surrogate's Pareto-optimality ranking decides service
     order, so a client streaming a large query sees the interesting
     corners of the design space land early instead of axis-enumeration
     order. Ranking prices points from memoized calibration runs, so the
     reorder costs a few exact reference simulations on the first query
     per context and nothing after. *)
  let mine =
    if st.cfg.guided && List.compare_length_with mine 1 > 0 then begin
      let order = Hashtbl.create (List.length mine) in
      List.iteri
        (fun i (p, _) -> Hashtbl.replace order p i)
        (Axes.rank (List.map fst mine));
      List.stable_sort
        (fun (p, _) (q, _) ->
          compare (Hashtbl.find order p) (Hashtbl.find order q))
        mine
    end
    else mine
  in
  (* One pool job per 8 consecutive ranked points, which simulates them
     and then publishes and streams them: a job per point measured slower
     on a cold table7 query, the time outside simulation growing. *)
  let rec chunks_of_8 = function
    | [] -> []
    | pks ->
        let rec take k acc = function
          | x :: tl when k > 0 -> take (k - 1) (x :: acc) tl
          | rest -> (List.rev acc, rest)
        in
        let chunk, rest = take 8 [] pks in
        chunk :: chunks_of_8 rest
  in
  let chunks = chunks_of_8 mine in
  (match
     Pool.try_map ?jobs:st.cfg.jobs
       (fun chunk ->
         let results = List.map (fun (p, _) -> simulate st p) chunk in
         List.iter2
           (fun (p, k) r ->
             Store.put ~meta:(Sweep.meta_of_point p) st.store ~key:k r;
             release_lease st ~key:k;
             Inflight.publish st.inflight ~key:k;
             emit_point p k r Protocol.Computed)
           chunk results;
         List.length chunk)
       chunks
   with
  | results ->
      List.iter2
        (fun chunk result ->
          match result with
          | Ok n -> tally.computed <- tally.computed + n
          | Error e ->
              (* A simulation failed, or publishing did part-way through
                 the chunk (aborting an already published flight is a
                 no-op). Let waiters take over, and tell this client
                 which points it lost. *)
              let reason =
                "chunk computation failed: " ^ Printexc.to_string e
              in
              List.iter
                (fun (p, k) ->
                  release_lease st ~key:k;
                  Inflight.abort st.inflight ~key:k;
                  (* Points the chunk published (and streamed) before
                     failing are settled, not lost. *)
                  match Store.lookup st.store ~key:k with
                  | `Hit _ -> tally.computed <- tally.computed + 1
                  | `Miss | `Corrupt -> emit_abort p k reason)
                chunk)
        chunks results
  | exception Pool.Draining ->
      List.iter
        (fun (p, k) ->
          release_lease st ~key:k;
          Inflight.abort st.inflight ~key:k;
          emit_abort p k "server compute pool is draining (shutdown)")
        mine);
  (* Pass 5: keys another thread of this process owns — wait for its
     flight, then read the published entry. If the owner aborted, take
     over. The whole settle is bounded by one request_timeout per
     point: a wedged owner that never retires its flight (wait times
     out, the store misses, claim still says `Waiter`) must not spin
     this loop forever. *)
  List.iter
    (fun (p, k) ->
      let deadline = Unix.gettimeofday () +. st.cfg.request_timeout in
      let rec settle () =
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0. then
          emit_abort p k
            (Printf.sprintf
               "in-flight owner did not settle within %gs; try again"
               st.cfg.request_timeout)
        else
          match Inflight.wait ~timeout:remaining st.inflight ~key:k with
          | `Published | `Aborted -> (
              match Store.lookup st.store ~key:k with
              | `Hit r ->
                  tally.inflight_hits <- tally.inflight_hits + 1;
                  emit_point p k r Protocol.Inflight
              | `Miss | `Corrupt -> (
                  match Inflight.claim st.inflight ~key:k with
                  | `Owner ->
                      let r = compute_single st p k in
                      tally.computed <- tally.computed + 1;
                      emit_point p k r Protocol.Computed
                  | `Waiter -> settle ()))
      in
      settle ())
    waiting;
  (* Pass 6: keys another process holds a lease on — settle by its
     entry appearing, or steal on expiry and compute here. *)
  List.iter
    (fun (p, k) ->
      let l = Option.get st.lease in
      let rec settle () =
        match Store.lookup st.store ~key:k with
        | `Hit r ->
            tally.lease_deferred <- tally.lease_deferred + 1;
            Metrics.add_lease_deferred st.metrics 1;
            release_lease st ~key:k;
            Inflight.publish st.inflight ~key:k;
            emit_point p k r Protocol.Store
        | `Miss | `Corrupt -> (
            match Lease.try_acquire l ~key:k with
            | Lease.Acquired ->
                let r = compute_single st p k in
                tally.lease_stolen <- tally.lease_stolen + 1;
                tally.computed <- tally.computed + 1;
                Metrics.add_lease_stolen st.metrics 1;
                emit_point p k r Protocol.Computed
            | Lease.Held { expires_in; _ } ->
                Unix.sleepf (Float.max 0.01 (Float.min 0.05 expires_in));
                settle ())
      in
      settle ())
    held;
  Metrics.add_store_hits st.metrics tally.store_hits;
  Metrics.add_cache_hits st.metrics tally.cache_hits;
  Metrics.add_cache_misses st.metrics (List.length keyed - tally.cache_hits);
  Metrics.add_computed st.metrics tally.computed;
  Metrics.add_inflight_hits st.metrics tally.inflight_hits;
  tally

let summary_of_tally total (t : tally) =
  {
    Protocol.total;
    store_hits = t.store_hits;
    cache_hits = t.cache_hits;
    computed = t.computed;
    inflight_hits = t.inflight_hits;
    quarantined = t.quarantined;
    lease_deferred = t.lease_deferred;
    lease_stolen = t.lease_stolen;
    aborted = t.aborted;
  }

(* ------------------------------------------------------------------ *)
(* Routes                                                             *)

let respond_error st fd status msg =
  Metrics.incr_errors st.metrics;
  Http.respond ~status fd (Protocol.error_body msg)

let parse_spec spec =
  match Axes.of_string spec with
  | Error e -> Error (Printf.sprintf "bad axes spec: %s" e)
  | Ok axes -> Ok (Axes.enumerate axes)

let handle_query st fd (req : Http.request) =
  match
    Result.bind (Protocol.spec_of_query_body req.Http.body) parse_spec
  with
  | Error e -> respond_error st fd 400 e
  | Ok points ->
      let total = List.length points in
      if total > st.cfg.max_points then begin
        Metrics.add_rejected_points st.metrics total;
        respond_error st fd 413
          (Printf.sprintf
             "spec enumerates %d points, above this server's admission cap \
              of %d; narrow the spec or run several queries"
             total st.cfg.max_points)
      end
      else begin
        Metrics.incr_queries st.metrics;
        let keyed = Sweep.keyed points in
        let queue = Bqueue.create ~capacity:st.cfg.queue_capacity in
        let emit ev = ignore (Bqueue.push queue (Protocol.event_line ev)) in
        (* The producer resolves points and feeds the bounded queue;
           this thread writes chunks. The producer always runs to
           completion — even after the client vanishes — because it
           owns inflight claims other threads may be waiting on
           (pushes to a closed queue just fall away). *)
        let producer =
          Thread.create
            (fun () ->
              Fun.protect
                ~finally:(fun () -> Bqueue.close queue)
                (fun () ->
                  let tally = process st ~emit keyed in
                  emit (Protocol.Summary (summary_of_tally total tally))))
            ()
        in
        (try
           Http.respond_chunked_start fd;
           let rec drain () =
             match Bqueue.pop queue with
             | Some line ->
                 Http.write_chunk fd line;
                 drain ()
             | None -> Http.write_chunk_end fd
           in
           drain ()
         with Unix.Unix_error _ | Sys_error _ -> Bqueue.close queue);
        Thread.join producer
      end

let handle_point st fd (req : Http.request) =
  match List.assoc_opt "spec" req.Http.query with
  | None -> respond_error st fd 400 "missing \"spec\" query parameter"
  | Some spec -> (
      match parse_spec spec with
      | Error e -> respond_error st fd 400 e
      | Ok [ point ] ->
          Metrics.incr_queries st.metrics;
          let keyed = Sweep.keyed [ point ] in
          let tally = process st ~emit:(fun _ -> ()) keyed in
          let _, key = List.hd keyed in
          (* Re-read from disk: the reply is exactly what the store
             persisted, and the source is whatever path settled it. *)
          (match Store.lookup st.store ~key with
          | `Hit result ->
              let source =
                if tally.computed > 0 then Protocol.Computed
                else if tally.inflight_hits > 0 then Protocol.Inflight
                else Protocol.Store
              in
              let ev =
                Protocol.Point
                  (Protocol.point_event ~point ~key ~result ~source)
              in
              Http.respond fd
                (Json.to_string ~indent:0 (Protocol.event_to_json ev))
          | `Miss | `Corrupt ->
              respond_error st fd 500 "point failed to resolve")
      | Ok points ->
          respond_error st fd 400
            (Printf.sprintf
               "spec must enumerate exactly one point, enumerates %d"
               (List.length points)))

let handle_stats st fd =
  let doc =
    Metrics.to_json st.metrics
      ~in_flight:(Inflight.active st.inflight)
      ~dedups:(Inflight.dedups st.inflight)
      ~pool_inflight:(Pool.inflight ())
      ~cache_entries:(Cache.length st.cache)
      ~cache_capacity:(Cache.capacity st.cache)
      ~store:(Store.stats st.store)
  in
  Http.respond fd (Json.to_string ~indent:0 doc)

let dispatch st fd (req : Http.request) =
  match (req.Http.meth, req.Http.path) with
  | "GET", "/healthz" -> Http.respond fd "{\"ok\":true}"
  | "GET", "/stats" -> handle_stats st fd
  | "GET", "/v1/point" -> handle_point st fd req
  | "POST", "/v1/query" -> handle_query st fd req
  | meth, path ->
      respond_error st fd 404 (Printf.sprintf "no route %s %s" meth path)

(* ------------------------------------------------------------------ *)
(* Connection and accept loops                                        *)

let handle_conn st fd =
  let reader = Http.reader ~timeout:st.cfg.request_timeout fd in
  (* Deadline both directions: a client that stops *reading* a chunked
     stream must fail the write (closing the event queue and unblocking
     any pool workers pushing into it) rather than wedge this thread in
     write(2) forever. *)
  Http.set_send_timeout fd st.cfg.request_timeout;
  let rec loop () =
    if not (Atomic.get st.stopping) then
      match Http.read_request reader with
      | Error (`Closed | `Timeout) -> ()
      | Error (`Too_large _ as e) ->
          (try respond_error st fd 413 (Http.error_to_string e)
           with Unix.Unix_error _ | Sys_error _ -> ())
      | Error (`Malformed _ as e) ->
          (try respond_error st fd 400 (Http.error_to_string e)
           with Unix.Unix_error _ | Sys_error _ -> ())
      | Ok req ->
          Metrics.incr_requests st.metrics;
          dispatch st fd req;
          loop ()
  in
  try loop () with
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
  | Sys_error _ ->
      ()
  | _ -> Metrics.incr_errors st.metrics

let register_conn st fd =
  Mutex.protect st.conns_lock (fun () ->
      let id = st.next_conn in
      st.next_conn <- id + 1;
      Hashtbl.replace st.conns id { fd; thread = ref None };
      id)

let spawn_conn st fd =
  let id = register_conn st fd in
  let thread =
    Thread.create
      (fun () ->
        Fun.protect
          ~finally:(fun () ->
            Mutex.protect st.conns_lock (fun () -> Hashtbl.remove st.conns id);
            try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () -> handle_conn st fd))
      ()
  in
  Mutex.protect st.conns_lock (fun () ->
      match Hashtbl.find_opt st.conns id with
      | Some c -> c.thread := Some thread
      | None -> (* the connection already finished *) ())

let accept_loop st =
  while not (Atomic.get st.stopping) do
    match Unix.accept ~cloexec:true st.listen_fd with
    | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ ->
        (* The listener broke (or was closed by [stop]); bail out. *)
        Atomic.set st.stopping true
    | fd, _peer ->
        if Atomic.get st.stopping then (
          try Unix.close fd with Unix.Unix_error _ -> ())
        else spawn_conn st fd
  done

let start cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* A previous server's [stop] drains the process-wide pool; a new
     server (the test suites start several) reopens it. *)
  if Pool.draining () then Pool.resume ();
  let store = Store.open_ cfg.store_dir in
  let lease =
    if cfg.lease then
      Some
        (Lease.create ~ttl:cfg.lease_ttl
           ~dir:(Lease.default_dir ~store_root:cfg.store_dir)
           ())
    else None
  in
  let domain =
    match cfg.listen with Unix_sock _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET
  in
  let listen_fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (match cfg.listen with
  | Tcp _ -> Unix.setsockopt listen_fd Unix.SO_REUSEADDR true
  | Unix_sock path -> (
      (* A dead server's socket file would make bind fail. *)
      try Unix.unlink path with Unix.Unix_error _ -> ()));
  Unix.bind listen_fd (sockaddr_of cfg.listen);
  Unix.listen listen_fd 64;
  let bound =
    match (cfg.listen, Unix.getsockname listen_fd) with
    | Tcp (host, _), Unix.ADDR_INET (_, port) -> Tcp (host, port)
    | other, _ -> other
  in
  let st =
    {
      cfg;
      store;
      cache = Cache.create ~capacity:cfg.cache_entries;
      lease;
      inflight = Inflight.create ();
      metrics = Metrics.create ();
      listen_fd;
      bound;
      stopping = Atomic.make false;
      stopped = Atomic.make false;
      conns_lock = Mutex.create ();
      conns = Hashtbl.create 16;
      next_conn = 0;
      accept_thread = None;
    }
  in
  st.accept_thread <- Some (Thread.create accept_loop st);
  st

let bound_addr t = t.bound
let store t = t.store
let inflight_table t = t.inflight

let stop t =
  if Atomic.compare_and_set t.stopped false true then begin
    Atomic.set t.stopping true;
    (* Wake the blocked accept with a throwaway connection. *)
    (try
       let fd =
         Unix.socket ~cloexec:true
           (match t.bound with
           | Unix_sock _ -> Unix.PF_UNIX
           | Tcp _ -> Unix.PF_INET)
           Unix.SOCK_STREAM 0
       in
       Fun.protect
         ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
         (fun () -> Unix.connect fd (sockaddr_of t.bound))
     with _ -> ());
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (match t.bound with
    | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Tcp _ -> ());
    (* In-flight requests finish; idle keep-alive reads see EOF. *)
    let conns =
      Mutex.protect t.conns_lock (fun () ->
          Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [])
    in
    List.iter
      (fun c ->
        try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE
        with Unix.Unix_error _ -> ())
      conns;
    List.iter
      (fun c -> match !(c.thread) with Some th -> Thread.join th | None -> ())
      conns;
    Pool.drain ();
    Store.refresh_manifest t.store
  end

let run cfg =
  let t = start cfg in
  let stop_requested = Atomic.make false in
  let request _ = Atomic.set stop_requested true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request);
  Sys.set_signal Sys.sigint (Sys.Signal_handle request);
  Printf.eprintf "[serve] %s listening on %s, store %s\n%!" Protocol.version
    (addr_to_string (bound_addr t))
    cfg.store_dir;
  while not (Atomic.get stop_requested) do
    Thread.delay 0.2
  done;
  Printf.eprintf "[serve] draining\n%!";
  stop t;
  Printf.eprintf "[serve] stopped\n%!"

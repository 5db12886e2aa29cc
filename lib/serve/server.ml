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
  lease_ttl : float;
  request_timeout : float;
}

let default_config ~store_dir ~listen =
  {
    store_dir;
    listen;
    jobs = None;
    max_points = 4096;
    lease_ttl = 60.;
    request_timeout = 30.;
  }

type conn = { fd : Unix.file_descr; thread : Thread.t option ref }

type t = {
  cfg : config;
  store : Store.t;
  lease : Lease.t;
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

(* Resolve owned misses through the sweep's pipeline, with what only a
   server does: each simulation timed for its family on [/stats], the
   misses served best predicted machine first — a client streaming a
   large query sees the interesting corners of the design space land
   early — each settled point's waiters woken and its event streamed,
   and each point given up on reported. *)
let resolve st ~emit_point ~emit_abort pks =
  let simulate p =
    let t0 = Unix.gettimeofday () in
    let r = Axes.run p in
    Metrics.record_compute st.metrics ~family:(Axes.family_key p)
      ~seconds:(Unix.gettimeofday () -. t0);
    r
  in
  let order pks =
    if List.compare_length_with pks 1 <= 0 then pks
    else
      let key = Hashtbl.create (List.length pks) in
      List.iter (fun (p, k) -> Hashtbl.replace key p k) pks;
      List.map
        (fun (p, _) -> (p, Hashtbl.find key p))
        (Axes.rank (List.map fst pks))
  in
  let settled how p k r =
    Inflight.publish st.inflight ~key:k;
    emit_point p k r
      (match how with
      | `Computed -> Protocol.Computed
      | `Deferred -> Protocol.Store)
  in
  let aborted p k e =
    Inflight.abort st.inflight ~key:k;
    emit_abort p k ("chunk computation failed: " ^ Printexc.to_string e)
  in
  Sweep.resolve ?jobs:st.cfg.jobs ~lease:st.lease ~simulate ~order ~settled
    ~aborted ~store:st.store pks

(* Resolve a keyed, deduplicated point list against the store, the
   in-process inflight table, and the cross-process lease layer,
   calling [emit] once per settled point (possibly from the writer
   domain) and returning the query's summary. *)
let process st ~emit keyed =
  let emit_point point key result source =
    emit (Protocol.Point (Protocol.point_event ~point ~key ~result ~source))
  in
  (* A point this query gives up on still gets an event: the stream
     must account for every requested point, never silently omit one. *)
  let emit_abort point key reason =
    emit (Protocol.Aborted (Protocol.aborted_event ~point ~key ~reason))
  in
  let hits, misses, quarantined = Sweep.lookup ~store:st.store keyed in
  List.iter (fun ((p, k), r) -> emit_point p k r Protocol.Store) hits;
  (* One owner per missing key process-wide: what another thread of
     this process owns, this query waits for. *)
  let owned, waiting =
    List.partition
      (fun (_p, k) -> Inflight.claim st.inflight ~key:k = `Owner)
      misses
  in
  let resolved = ref [ resolve st ~emit_point ~emit_abort owned ] in
  let inflight_hits = ref 0 in
  let timed_out = ref 0 in
  (* Keys another thread of this process owns: wait for its flight,
     then read the published entry. If the owner aborted, take over.
     The whole settle is bounded by one request_timeout per point: a
     wedged owner that never retires its flight (wait times out, the
     store misses, claim still says `Waiter`) must not spin this loop
     forever. *)
  List.iter
    (fun ((p, k) as pk) ->
      let deadline = Unix.gettimeofday () +. st.cfg.request_timeout in
      let rec settle () =
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0. then begin
          incr timed_out;
          emit_abort p k
            (Printf.sprintf
               "in-flight owner did not settle within %gs; try again"
               st.cfg.request_timeout)
        end
        else
          match Inflight.wait ~timeout:remaining st.inflight ~key:k with
          | `Published | `Aborted -> (
              match Store.lookup st.store ~key:k with
              | `Hit r ->
                  incr inflight_hits;
                  emit_point p k r Protocol.Inflight
              | `Miss | `Corrupt -> (
                  match Inflight.claim st.inflight ~key:k with
                  | `Owner ->
                      resolved :=
                        resolve st ~emit_point ~emit_abort [ pk ] :: !resolved
                  | `Waiter -> settle ()))
      in
      settle ())
    waiting;
  let sum f = List.fold_left (fun n r -> n + f r) 0 !resolved in
  let s =
    {
      Protocol.total = List.length keyed;
      store_hits = List.length hits;
      computed = sum (fun r -> r.Sweep.computed);
      inflight_hits = !inflight_hits;
      quarantined;
      lease_deferred = sum (fun r -> r.Sweep.deferred);
      lease_stolen = sum (fun r -> r.Sweep.taken_over);
      aborted = !timed_out + sum (fun r -> r.Sweep.aborted);
    }
  in
  Metrics.add_store_hits st.metrics s.store_hits;
  Metrics.add_computed st.metrics s.computed;
  Metrics.add_inflight_hits st.metrics s.inflight_hits;
  Metrics.add_lease_deferred st.metrics s.lease_deferred;
  Metrics.add_lease_stolen st.metrics s.lease_stolen;
  s

(* ------------------------------------------------------------------ *)
(* Routes                                                             *)

let respond_error st fd status msg =
  Metrics.incr_errors st.metrics;
  Http.respond ~status fd (Protocol.error_body msg)

(* A spec's axes and its point count, which {!Axes.count} takes from
   the axis lengths: a handler checks the count before it enumerates,
   so a spec naming more points than memory holds builds none of them. *)
let parse_spec spec =
  match Axes.of_string spec with
  | Error e -> Error (Printf.sprintf "bad axes spec: %s" e)
  | Ok axes -> Ok (axes, Axes.count axes)

let handle_query st fd (req : Http.request) =
  match
    Result.bind (Protocol.spec_of_query_body req.Http.body) parse_spec
  with
  | Error e -> respond_error st fd 400 e
  | Ok (axes, total) ->
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
        let keyed = Sweep.keyed (Axes.enumerate axes) in
        let queue = Bqueue.create () in
        let emit ev = ignore (Bqueue.push queue (Protocol.event_line ev)) in
        (* The producer resolves points and feeds the queue; this thread
           writes chunks. The producer always runs to completion — even
           after the client vanishes — because it owns inflight claims
           other threads may be waiting on (pushes to a closed queue
           just fall away). It is joined on every exit, so once this
           connection's thread ends, its query has no pool job or
           publication left. *)
        let producer =
          Thread.create
            (fun () ->
              Fun.protect
                ~finally:(fun () -> Bqueue.close queue)
                (fun () ->
                  emit (Protocol.Summary (process st ~emit keyed))))
            ()
        in
        Fun.protect
          ~finally:(fun () ->
            Bqueue.close queue;
            Thread.join producer)
          (fun () ->
            try
              Http.respond_chunked_start fd;
              let rec drain () =
                match Bqueue.pop queue with
                | Some line ->
                    Http.write_chunk fd line;
                    drain ()
                | None -> Http.write_chunk_end fd
              in
              drain ()
            with Unix.Unix_error _ | Sys_error _ -> ())
      end

let handle_point st fd (req : Http.request) =
  match List.assoc_opt "spec" req.Http.query with
  | None -> respond_error st fd 400 "missing \"spec\" query parameter"
  | Some spec -> (
      match parse_spec spec with
      | Error e -> respond_error st fd 400 e
      | Ok (axes, 1) -> (
          Metrics.incr_queries st.metrics;
          (* The reply is the one event [process] emitted for the point:
             its result and the source of whatever path settled it. *)
          let settled = ref None in
          let emit ev = settled := Some ev in
          ignore
            (process st ~emit (Sweep.keyed (Axes.enumerate axes))
              : Protocol.summary);
          match !settled with
          | Some (Protocol.Point _ as ev) ->
              Http.respond fd
                (Json.to_string ~indent:0 (Protocol.event_to_json ev))
          | Some (Protocol.Aborted _ | Protocol.Summary _) | None ->
              respond_error st fd 500 "point failed to resolve")
      | Ok (_, total) ->
          respond_error st fd 400
            (Printf.sprintf
               "spec must enumerate exactly one point, enumerates %d" total))

let handle_stats st fd =
  let doc =
    Metrics.to_json st.metrics
      ~in_flight:(Inflight.active st.inflight)
      ~dedups:(Inflight.dedups st.inflight)
      ~pool_inflight:(Pool.inflight ())
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
     stream must fail the write (closing the event queue, which drops
     the rest of the query's events) rather than wedge this thread in
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
  let store = Store.open_ cfg.store_dir in
  let lease =
    Lease.create ~ttl:cfg.lease_ttl
      ~dir:(Lease.default_dir ~store_root:cfg.store_dir)
      ()
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
    (* Both directions: idle reads see EOF, and a write blocked on a
       client that stopped reading fails now, not at its deadline. *)
    let conns =
      Mutex.protect t.conns_lock (fun () ->
          Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [])
    in
    List.iter
      (fun c ->
        try Unix.shutdown c.fd Unix.SHUTDOWN_ALL
        with Unix.Unix_error _ -> ())
      conns;
    List.iter
      (fun c -> match !(c.thread) with Some th -> Thread.join th | None -> ())
      conns;
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

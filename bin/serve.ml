(* The sweep-as-a-service daemon: serve a result store over mfu-serve/v1.

   All operational chatter goes to stderr; the process runs until
   SIGTERM/SIGINT, then drains gracefully (in-flight requests finish,
   the pool quiesces, the store manifest is refreshed). *)

module Server = Mfu_serve.Server

open Cmdliner

let run listen store_dir jobs max_points no_lease lease_ttl
    request_timeout queue_capacity =
  match Server.addr_of_string listen with
  | Error e -> `Error (false, e)
  | Ok addr ->
      let cfg = Server.default_config ~store_dir ~listen:addr in
      Server.run
        {
          cfg with
          jobs;
          max_points;
          lease = not no_lease;
          lease_ttl;
          request_timeout;
          queue_capacity;
        };
      `Ok ()

let listen =
  let doc =
    "Listen address: $(b,unix:PATH) for a Unix-domain socket or \
     $(b,HOST:PORT) for TCP (port 0 picks an ephemeral port)."
  in
  Arg.(
    value
    & opt string "127.0.0.1:8464"
    & info [ "l"; "listen" ] ~docv:"ADDR" ~doc)

let store_dir =
  let doc = "Result-store directory to serve (created if missing)." in
  Arg.(value & opt string "_mfu_store" & info [ "store" ] ~docv:"DIR" ~doc)

let jobs =
  let doc = "Worker domains for simulation (overrides MFU_JOBS)." in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let max_points =
  let doc =
    "Admission cap: reject a query whose spec enumerates more than \
     $(docv) points."
  in
  Arg.(value & opt int 4096 & info [ "max-points" ] ~docv:"N" ~doc)

let no_lease =
  let doc =
    "Disable the cross-process lease layer (fine for a single server on \
     a private store)."
  in
  Arg.(value & flag & info [ "no-lease" ] ~doc)

let lease_ttl =
  let doc = "Lease lifetime in seconds." in
  Arg.(value & opt float 60. & info [ "lease-ttl" ] ~docv:"SEC" ~doc)

let request_timeout =
  let doc = "Per-read socket deadline in seconds." in
  Arg.(value & opt float 30. & info [ "request-timeout" ] ~docv:"SEC" ~doc)

let queue_capacity =
  let doc =
    "Back-pressure bound: events buffered per client before the \
     producer blocks."
  in
  Arg.(value & opt int 256 & info [ "queue-capacity" ] ~docv:"N" ~doc)

let cmd =
  let doc = "serve the multiple-functional-unit result store" in
  let info = Cmd.info "mfu-serve" ~doc in
  Cmd.v info
    Term.(
      ret
        (const run $ listen $ store_dir $ jobs $ max_points
       $ no_lease $ lease_ttl $ request_timeout $ queue_capacity))

let () = exit (Cmd.eval cmd)

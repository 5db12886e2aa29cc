(* The sweep-as-a-service daemon: serve a result store over mfu-serve/v1.

   All operational chatter goes to stderr; the process runs until
   SIGTERM/SIGINT, then stops gracefully (streams in progress end,
   their queries' computed points are published, the store manifest
   is refreshed). A server always claims the points it computes with
   cross-process leases next to the store. *)

module Server = Mfu_serve.Server

open Cmdliner

let run listen store_dir jobs max_points lease_ttl request_timeout =
  match Server.addr_of_string listen with
  | Error e -> `Error (false, e)
  | Ok addr ->
      let cfg = Server.default_config ~store_dir ~listen:addr in
      Server.run { cfg with jobs; max_points; lease_ttl; request_timeout };
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

let lease_ttl =
  let doc = "Lease lifetime in seconds." in
  Arg.(value & opt float 60. & info [ "lease-ttl" ] ~docv:"SEC" ~doc)

let request_timeout =
  let doc = "Per-read and per-write socket deadline in seconds." in
  Arg.(value & opt float 30. & info [ "request-timeout" ] ~docv:"SEC" ~doc)

let cmd =
  let doc = "serve the multiple-functional-unit result store" in
  let info = Cmd.info "mfu-serve" ~doc in
  Cmd.v info
    Term.(
      ret
        (const run $ listen $ store_dir $ jobs $ max_points $ lease_ttl
       $ request_timeout))

let () = exit (Cmd.eval cmd)

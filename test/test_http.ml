(* The minimal HTTP/1.1 layer under the serve daemon: framing must
   round-trip over a real socketpair, every parsing bound must reject
   oversized input with the right error (not OOM or a hang), and a
   stalled peer must time out rather than wedge the reader. *)

module Http = Mfu_util.Http

let with_socketpair f =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let check_error what expected = function
  | Ok _ -> Alcotest.failf "%s: expected %s, got Ok" what expected
  | Error e ->
      Alcotest.(check string) what expected (Http.error_to_string e)

let test_request_roundtrip () =
  with_socketpair (fun client server ->
      Http.write_request client ~meth:"POST"
        ~path:("/v1/query?" ^ Http.query_string [ ("spec", "units=1-4; loops=scalar") ])
        ~body:"{\"spec\": \"table7\"}";
      let r = Http.reader server in
      match Http.read_request r with
      | Error e -> Alcotest.fail (Http.error_to_string e)
      | Ok req ->
          Alcotest.(check string) "method" "POST" req.Http.meth;
          Alcotest.(check string) "path" "/v1/query" req.Http.path;
          Alcotest.(check (list (pair string string)))
            "query decoded"
            [ ("spec", "units=1-4; loops=scalar") ]
            req.Http.query;
          Alcotest.(check string) "body" "{\"spec\": \"table7\"}" req.Http.body;
          Alcotest.(check (option string))
            "host header" (Some "mfu-serve")
            (Http.header "HOST" req.Http.headers))

let test_keepalive_two_requests () =
  with_socketpair (fun client server ->
      Http.write_request client ~meth:"GET" ~path:"/stats";
      Http.write_request client ~meth:"GET" ~path:"/healthz";
      let r = Http.reader server in
      (match Http.read_request r with
      | Ok req -> Alcotest.(check string) "first" "/stats" req.Http.path
      | Error e -> Alcotest.fail (Http.error_to_string e));
      match Http.read_request r with
      | Ok req -> Alcotest.(check string) "second" "/healthz" req.Http.path
      | Error e -> Alcotest.fail (Http.error_to_string e))

let test_response_roundtrip () =
  with_socketpair (fun client server ->
      Http.respond ~status:200 server "{\"ok\": true}";
      let r = Http.reader client in
      match Http.read_response_head r with
      | Error e -> Alcotest.fail (Http.error_to_string e)
      | Ok resp ->
          Alcotest.(check int) "status" 200 resp.Http.status;
          (match Http.read_body r resp with
          | Ok body -> Alcotest.(check string) "body" "{\"ok\": true}" body
          | Error e -> Alcotest.fail (Http.error_to_string e)))

let test_chunked_stream () =
  with_socketpair (fun client server ->
      Http.respond_chunked_start ~status:200 server;
      List.iter (Http.write_chunk server) [ "first\n"; ""; "second\n" ];
      Http.write_chunk_end server;
      let r = Http.reader client in
      match Http.read_response_head r with
      | Error e -> Alcotest.fail (Http.error_to_string e)
      | Ok resp ->
          Alcotest.(check (option string))
            "chunked framing" (Some "chunked")
            (Http.header "transfer-encoding" resp.Http.resp_headers);
          let rec drain acc =
            match Http.read_chunk r with
            | Ok (Some c) -> drain (acc ^ c)
            | Ok None -> acc
            | Error e -> Alcotest.fail (Http.error_to_string e)
          in
          Alcotest.(check string)
            "chunks reassemble (empty chunk dropped)" "first\nsecond\n"
            (drain ""))

let test_bounds () =
  with_socketpair (fun client server ->
      let r = Http.reader server in
      let big = String.make 100 'x' in
      Http.write_request client ~meth:"POST" ~path:"/v1/query" ~body:big;
      check_error "body over max_body" "message too large: body"
        (Http.read_request ~max_body:10 r));
  with_socketpair (fun client server ->
      let r = Http.reader server in
      ignore (Unix.write_substring client "GARBAGE\r\n\r\n" 0 11);
      match Http.read_request r with
      | Error (`Malformed _) -> ()
      | Error e -> Alcotest.failf "wrong error %s" (Http.error_to_string e)
      | Ok _ -> Alcotest.fail "garbage parsed")

let test_timeout () =
  with_socketpair (fun _client server ->
      let r = Http.reader ~timeout:0.05 server in
      let t0 = Unix.gettimeofday () in
      check_error "stalled peer" "read timed out" (Http.read_request r);
      Alcotest.(check bool) "returned promptly" true
        (Unix.gettimeofday () -. t0 < 2.0))

let test_closed () =
  with_socketpair (fun client server ->
      Unix.close client;
      let r = Http.reader server in
      check_error "peer gone" "connection closed mid-message"
        (Http.read_request r))

let prop_percent_roundtrip =
  QCheck.Test.make ~name:"percent encode/decode round-trips" ~count:500
    QCheck.string (fun s -> Http.percent_decode (Http.percent_encode s) = s)

(* Sizes bounded so the encoded request line stays under the 8 KiB
   parser limit — overflowing it is correct rejection, not a failure of
   the round-trip. *)
let prop_query_roundtrip =
  QCheck.Test.make ~name:"query_string round-trips via parse" ~count:200
    QCheck.(
      list_of_size Gen.(0 -- 8)
        (pair (string_of_size Gen.(0 -- 20)) (string_of_size Gen.(0 -- 20))))
    (fun pairs ->
      with_socketpair (fun client server ->
          Http.write_request client ~meth:"GET"
            ~path:("/p?" ^ Http.query_string pairs);
          match Http.read_request (Http.reader server) with
          | Ok req -> req.Http.query = pairs
          | Error _ -> false))

(* The request front against byte mutations of valid requests: a GET
   with a query string, a POST with a body, a keep-alive pair and a body
   near [max_body]. Each text is written to a pipe whose write end is
   then closed, and [read_request] is called until it returns an error;
   it must return, never raise. *)
let fuzz_max_body = 4096

let request_text ?body ~meth ~path () =
  let rd, wr = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () -> Unix.close rd)
    (fun () ->
      Http.write_request ?body wr ~meth ~path;
      Unix.close wr;
      In_channel.input_all (Unix.in_channel_of_descr rd))

let fuzz_requests =
  let get =
    request_text ~meth:"GET"
      ~path:("/v1/point?" ^ Http.query_string [ ("spec", "units=1;size=10") ])
      ()
  in
  [
    get;
    request_text ~meth:"POST" ~path:"/v1/query"
      ~body:"{\"spec\": \"table7\"}" ();
    get ^ request_text ~meth:"GET" ~path:"/stats" ();
    request_text ~meth:"POST" ~path:"/v1/query"
      ~body:(String.make (fuzz_max_body - 3) 'x')
      ();
  ]

(* Every request [text] holds, read from a pipe until the first error. *)
let read_all_requests text =
  let rd, wr = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () -> Unix.close rd)
    (fun () ->
      ignore (Unix.write_substring wr text 0 (String.length text));
      Unix.close wr;
      let r = Http.reader rd in
      let rec go acc =
        match Http.read_request ~max_body:fuzz_max_body r with
        | Ok req -> go (req :: acc)
        | Error _ -> List.rev acc
      in
      go [])

let test_fuzz_seeds_parse () =
  Alcotest.(check (list int))
    "requests per seed text" [ 1; 1; 2; 1 ]
    (List.map
       (fun text -> List.length (read_all_requests text))
       fuzz_requests)

let prop_request_fuzz =
  QCheck.Test.make ~name:"mutated requests never raise" ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(
         frequency
           [ (1, oneofl fuzz_requests); (4, Bytefuzz.mutated fuzz_requests) ]))
    (fun text ->
      match read_all_requests text with
      | _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let () =
  Alcotest.run "http"
    [
      ( "framing",
        [
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "keep-alive" `Quick test_keepalive_two_requests;
          Alcotest.test_case "response round-trip" `Quick
            test_response_roundtrip;
          Alcotest.test_case "chunked stream" `Quick test_chunked_stream;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "timeout" `Quick test_timeout;
          Alcotest.test_case "closed" `Quick test_closed;
          Alcotest.test_case "fuzz seeds parse" `Quick test_fuzz_seeds_parse;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_percent_roundtrip; prop_query_roundtrip ]
        @ [
            QCheck_alcotest.to_alcotest
              ~rand:(Random.State.make [| 33 |])
              prop_request_fuzz;
          ] );
    ]

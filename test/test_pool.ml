(* Properties of the domain worker pool: parallel map must be
   indistinguishable from List.map (ordering and values), and an exception
   in one job must not lose the results of the others. *)

module Pool = Mfu_util.Pool

let f x = (x * 31) + (x asr 3)

let arb_input =
  QCheck.(pair (list small_signed_int) (int_range 1 6))

let prop_map_is_list_map =
  QCheck.Test.make ~name:"Pool.map ~jobs == List.map" ~count:200 arb_input
    (fun (xs, jobs) -> Pool.map ~jobs f xs = List.map f xs)

let prop_exceptions_do_not_lose_results =
  QCheck.Test.make ~name:"a raising job loses only its own slot" ~count:200
    arb_input (fun (xs, jobs) ->
      let g x = if x < 0 then raise Not_found else x + 1 in
      let rs = Pool.try_map ~jobs g xs in
      List.length rs = List.length xs
      && List.for_all2
           (fun x r ->
             match r with
             | Ok y -> x >= 0 && y = x + 1
             | Error Not_found -> x < 0
             | Error _ -> false)
           xs rs)

let prop_chunked_equals_unchunked =
  QCheck.Test.make ~name:"chunked scheduling never changes results" ~count:200
    QCheck.(triple (list small_signed_int) (int_range 1 6) (int_range 1 40))
    (fun (xs, jobs, chunk) ->
      Pool.map ~jobs ~chunk f xs = List.map f xs
      && Pool.try_map ~jobs ~chunk f xs = Pool.try_map ~jobs:1 f xs)

let prop_map_raises_earliest_failure =
  QCheck.Test.make ~name:"Pool.map re-raises deterministically" ~count:100
    arb_input (fun (xs, jobs) ->
      let g x = if x land 1 = 1 then raise Exit else x in
      let has_odd = List.exists (fun x -> x land 1 = 1) xs in
      match Pool.map ~jobs g xs with
      | ys -> (not has_odd) && ys = xs
      | exception Exit -> has_odd)

let test_empty () =
  Alcotest.(check (list int)) "empty input" [] (Pool.map ~jobs:4 f []);
  Alcotest.(check (list int)) "singleton" [ f 7 ] (Pool.map ~jobs:4 f [ 7 ])

let test_jobs_override () =
  Pool.set_jobs (Some 3);
  Alcotest.(check int) "override wins" 3 (Pool.current_jobs ());
  Pool.set_jobs (Some 0);
  Alcotest.(check int) "clamped to >= 1" 1 (Pool.current_jobs ());
  Pool.set_jobs None;
  Alcotest.(check bool) "env control restored" true (Pool.current_jobs () >= 1)

let test_env_parsing () =
  Pool.set_jobs None;
  Unix.putenv "MFU_JOBS" "5";
  Alcotest.(check int) "MFU_JOBS=5" 5 (Pool.default_jobs ());
  Unix.putenv "MFU_JOBS" "not-a-number";
  Alcotest.(check int) "garbage means sequential" 1 (Pool.default_jobs ());
  Unix.putenv "MFU_JOBS" "1";
  Alcotest.(check int) "MFU_JOBS=1" 1 (Pool.default_jobs ())

(* Invalid MFU_JOBS values must degrade to sequential execution (after a
   stderr warning), never crash or silently go parallel. *)
let test_env_invalid_values_fall_back () =
  Pool.set_jobs None;
  List.iter
    (fun bad ->
      Unix.putenv "MFU_JOBS" bad;
      Alcotest.(check int)
        (Printf.sprintf "MFU_JOBS=%S is sequential" bad)
        1 (Pool.default_jobs ()))
    [ "0"; "-3"; ""; "  "; "4x"; "3.5"; "NaN" ];
  Unix.putenv "MFU_JOBS" " 7 ";
  Alcotest.(check int) "whitespace around a valid count" 7 (Pool.default_jobs ());
  Unix.putenv "MFU_JOBS" "1"

let test_parse_jobs () =
  let ok = Alcotest.(result int string) in
  Alcotest.check ok "plain" (Ok 4) (Pool.parse_jobs "4");
  Alcotest.check ok "trimmed" (Ok 12) (Pool.parse_jobs " 12\t");
  Alcotest.check ok "clamped high" (Ok 64) (Pool.parse_jobs "1000");
  List.iter
    (fun bad ->
      match Pool.parse_jobs bad with
      | Error _ -> ()
      | Ok n ->
          Alcotest.failf "parse_jobs %S should be an error, got Ok %d" bad n)
    [ ""; " "; "zero"; "0"; "-1"; "2.5"; "3j" ]

(* [inflight] counts the maps running now, the occupancy the serve
   daemon's /stats reports, and falls back to zero when they return or
   raise. *)
let test_inflight () =
  Alcotest.(check int) "idle" 0 (Pool.inflight ());
  let seen = Pool.map ~jobs:2 (fun _ -> Pool.inflight ()) [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "one map running" [ 1; 1; 1 ] seen;
  (match Pool.map ~jobs:1 (fun _ -> failwith "boom") [ 1 ] with
  | _ -> Alcotest.fail "map should re-raise"
  | exception Failure _ -> ());
  Alcotest.(check int) "idle again" 0 (Pool.inflight ())

let test_oversubscribed () =
  (* More workers than elements and than cores: still complete and ordered. *)
  let xs = List.init 5 (fun i -> i) in
  Alcotest.(check (list int)) "jobs > length" (List.map f xs)
    (Pool.map ~jobs:64 f xs)

let () =
  Alcotest.run "pool"
    [
      ( "unit",
        [
          Alcotest.test_case "empty and singleton" `Quick test_empty;
          Alcotest.test_case "set_jobs override" `Quick test_jobs_override;
          Alcotest.test_case "MFU_JOBS parsing" `Quick test_env_parsing;
          Alcotest.test_case "MFU_JOBS invalid values" `Quick
            test_env_invalid_values_fall_back;
          Alcotest.test_case "parse_jobs" `Quick test_parse_jobs;
          Alcotest.test_case "oversubscription" `Quick test_oversubscribed;
          Alcotest.test_case "inflight counts running maps" `Quick
            test_inflight;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_map_is_list_map;
            prop_chunked_equals_unchunked;
            prop_exceptions_do_not_lose_results;
            prop_map_raises_earliest_failure;
          ] );
    ]

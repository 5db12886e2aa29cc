module Selection = Mfu_util.Selection

let valid = [ "single_issue"; "dep_single"; "ruu/scaled" ]

let result =
  Alcotest.result (Alcotest.list Alcotest.string) Alcotest.string

let check name expected spec =
  Alcotest.check result name expected (Selection.parse ~valid spec)

let test_single () = check "one name" (Ok [ "single_issue" ]) "single_issue"

let test_many () =
  check "comma-separated, order kept"
    (Ok [ "dep_single"; "single_issue" ])
    "dep_single,single_issue"

let test_trims () =
  check "whitespace trimmed"
    (Ok [ "single_issue"; "ruu/scaled" ])
    " single_issue , ruu/scaled "

let test_duplicates () =
  check "duplicates preserved"
    (Ok [ "dep_single"; "dep_single" ])
    "dep_single,dep_single"

let test_unknown () =
  match Selection.parse ~valid "single_issue,ruu" with
  | Ok _ -> Alcotest.fail "unknown name accepted"
  | Error e ->
      let contains hay needle =
        let lh = String.length hay and ln = String.length needle in
        let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "names the offender" true (contains e "\"ruu\"");
      List.iter
        (fun v ->
          Alcotest.(check bool) ("lists valid name " ^ v) true (contains e v))
        valid

let test_empty_component () =
  check "empty name rejected" (Error "empty name in selection") "single_issue,"

let test_empty_spec () =
  check "empty spec rejected" (Error "empty name in selection") ""

let () =
  Alcotest.run "selection"
    [
      ( "parse",
        [
          Alcotest.test_case "single name" `Quick test_single;
          Alcotest.test_case "many names" `Quick test_many;
          Alcotest.test_case "trims whitespace" `Quick test_trims;
          Alcotest.test_case "duplicates preserved" `Quick test_duplicates;
          Alcotest.test_case "unknown name" `Quick test_unknown;
          Alcotest.test_case "empty component" `Quick test_empty_component;
          Alcotest.test_case "empty spec" `Quick test_empty_spec;
        ] );
    ]

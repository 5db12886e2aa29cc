(* The bench gate (bench/bench_gate.ml): a ratio floor fails only the
   selected rows that carry one. *)

let floors = [ ("ruu", 4.0); ("ruu/scaled", 50.0) ]
let all = [ "ruu"; "ruu/scaled"; "model/ruu" ]
let failures ?(selected = all) rows = Bench_gate.failures ~floors ~selected rows
let check = Alcotest.(check (list string))

let test_below_floor () =
  let rows speedup = [ ("ruu", 9.0); ("ruu/scaled", speedup) ] in
  check "at the floor" [] (failures (rows 50.0));
  check "below it"
    [ "ruu/scaled: speedup 1.20x below the 50x floor" ]
    (failures (rows 1.2))

let test_no_floor () =
  let rows = [ ("ruu", 9.0); ("ruu/scaled", 800.0) ] in
  check "never fails" [] (failures (("model/ruu", 0.0) :: rows));
  check "not even when missing" [] (failures rows)

let test_missing () =
  check "a gated row missing from the run fails"
    [ "ruu: missing from this run" ]
    (failures [ ("ruu/scaled", 800.0) ])

let test_only () =
  let rows = [ ("ruu", 1.0); ("ruu/scaled", 1.0) ] in
  check "checks the selected row"
    [ "ruu: speedup 1.00x below the 4x floor" ]
    (failures ~selected:[ "ruu" ] rows);
  check "skips the others" [] (failures ~selected:[ "model/ruu" ] rows)

let () =
  Alcotest.run "bench_gate"
    [
      ( "unit",
        [
          Alcotest.test_case "below floor" `Quick test_below_floor;
          Alcotest.test_case "no floor" `Quick test_no_floor;
          Alcotest.test_case "missing row" `Quick test_missing;
          Alcotest.test_case "only" `Quick test_only;
        ] );
    ]

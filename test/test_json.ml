(* Escaping and edge cases of the JSON emitter, emit/parse round trips
   (the result store depends on [of_string] re-reading anything
   [to_string] writes), and a differential fuzz of the parser against
   the original one, kept as the oracle. *)

module Json = Mfu_util.Json
module Oracle = Mfu_oracle.Json

let compact j = Json.to_string ~indent:0 j

let test_string_escaping () =
  Alcotest.(check string)
    "quotes and backslashes" {|"a\"b\\c"|}
    (compact (Json.String "a\"b\\c"));
  Alcotest.(check string)
    "named control escapes" {|"\n\r\t"|}
    (compact (Json.String "\n\r\t"));
  Alcotest.(check string)
    "other control characters as \\u" {|"\u0001\u0000\u001f"|}
    (compact (Json.String "\x01\x00\x1f"));
  Alcotest.(check string)
    "escaping applies to object keys" {|{"a\"b":1}|}
    (compact (Json.Obj [ ("a\"b", Json.Int 1) ]));
  (* high bytes (UTF-8 payloads) pass through untouched *)
  Alcotest.(check string) "utf-8 passthrough" "\"\xc3\xa9\""
    (compact (Json.String "\xc3\xa9"))

let test_nonfinite_policy () =
  (* JSON has no NaN or infinity: all three render as null and hence do
     not round-trip (they come back as Null). *)
  List.iter
    (fun f -> Alcotest.(check string) "null" "null" (compact (Json.Float f)))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  match Json.of_string (compact (Json.Float Float.nan)) with
  | Ok Json.Null -> ()
  | _ -> Alcotest.fail "nan should round-trip to Null"

let test_float_token_stays_numeric () =
  Alcotest.(check string) "integral float keeps a point" "1.0"
    (compact (Json.Float 1.));
  Alcotest.(check string) "negative" "-2.5" (compact (Json.Float (-2.5)))

let check_parse name expected text =
  match Json.of_string text with
  | Ok v ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: parsed value of %S" name text)
        true (v = expected)
  | Error e -> Alcotest.fail (Printf.sprintf "%s: %S: %s" name text e)

let test_parser_values () =
  check_parse "null" Json.Null " null ";
  check_parse "true" (Json.Bool true) "true";
  check_parse "int" (Json.Int (-42)) "-42";
  check_parse "int/float distinction" (Json.Float 1.) "1.0";
  check_parse "exponent is a float" (Json.Float 1000.) "1e3";
  check_parse "escapes" (Json.String "a\"b\\c\nd") {|"a\"b\\c\nd"|};
  check_parse "\\u ascii" (Json.String "A") {|"\u0041"|};
  check_parse "\\u utf-8" (Json.String "\xc3\xa9") {|"\u00e9"|};
  check_parse "nested"
    (Json.Obj
       [ ("xs", Json.List [ Json.Int 1; Json.Int 2 ]); ("e", Json.Obj []) ])
    {|{"xs":[1,2],"e":{}}|}

let test_parser_errors () =
  List.iter
    (fun text ->
      match Json.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" text))
    [
      ""; "nul"; "1 2"; "[1,]"; "{\"a\":}"; "\"unterminated"; "\"bad \\q\"";
      "\"\x01\""; "{1:2}"; "[1 2]";
    ]

(* Round-trip generator: floats are dyadic rationals (k/16), which both
   the binary doubles and the %.12g rendering represent exactly. *)
let gen_json =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) small_signed_int;
        map (fun k -> Json.Float (float_of_int k /. 16.)) small_signed_int;
        map (fun s -> Json.String s) (string_size ~gen:printable (0 -- 12));
      ]
  in
  let key = string_size ~gen:printable (0 -- 8) in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [
            (3, leaf);
            (1, map (fun xs -> Json.List xs) (list_size (0 -- 4) (self (depth - 1))));
            ( 1,
              map
                (fun fields -> Json.Obj fields)
                (list_size (0 -- 4) (pair key (self (depth - 1)))) );
          ])
    3

let arb_json = QCheck.make ~print:(Json.to_string ~indent:2) gen_json

let prop_roundtrip indent =
  QCheck.Test.make
    ~name:(Printf.sprintf "of_string (to_string ~indent:%d j) = Ok j" indent)
    ~count:300 arb_json (fun j ->
      Json.of_string (Json.to_string ~indent j) = Ok j)

(* -- parser vs oracle ----------------------------------------------------- *)

(* Texts the parser meets in production: store entries written by a
   sweep, lease records and the serve protocol's bodies and events. *)
let real_corpus =
  lazy
    (let dir = Filename.temp_file "mfu_json_corpus" "" in
     Sys.remove dir;
     let read path = In_channel.with_open_bin path In_channel.input_all in
     let rec files path =
       if Sys.is_directory path then
         Array.to_list (Sys.readdir path)
         |> List.concat_map (fun f -> files (Filename.concat path f))
       else [ read path ]
     in
     let rec rm_rf path =
       if Sys.is_directory path then begin
         Array.iter
           (fun f -> rm_rf (Filename.concat path f))
           (Sys.readdir path);
         Sys.rmdir path
       end
       else Sys.remove path
     in
     Fun.protect
       ~finally:(fun () -> rm_rf dir)
       (fun () ->
         let store = Mfu_explore.Store.open_ dir in
         let points =
           List.filteri
             (fun i _ -> i < 6)
             (Mfu_explore.Axes.enumerate Mfu_explore.Axes.table7)
         in
         ignore (Mfu_explore.Sweep.run ~jobs:1 ~store points);
         Mfu_explore.Store.put store ~key:"a \"quoted\" \\ key\n"
           { Mfu_sim.Sim_types.cycles = 1; instructions = 1 };
         let leases = Filename.concat dir "leases" in
         let lease = Mfu_explore.Lease.create ~dir:leases () in
         ignore (Mfu_explore.Lease.try_acquire lease ~key:"mfu-point/v1 lease");
         let module P = Mfu_serve.Protocol in
         files (Filename.concat dir "objects")
         @ files leases
         @ [
             read (Filename.concat dir "MANIFEST.json");
             P.query_body ~spec:"units=1-4;size=10,50;loops=scalar";
             P.error_body "bad spec: \"x\"";
             P.event_line
               (P.Point
                  {
                    key = "mfu-point/v1 k";
                    machine = "ruu";
                    config = "M11BR5";
                    loop = 7;
                    scale = 1;
                    cycles = 123;
                    instructions = 45;
                    source = P.Store;
                  });
           ]))

(* Strings with every byte class the parser branches on: quotes,
   backslashes, control characters, high bytes. *)
let gen_fuzz_json =
  let open QCheck.Gen in
  let str =
    string_size
      ~gen:(oneof [ printable; char; oneofl [ '"'; '\\'; '\n'; '\x01' ] ])
      (0 -- 10)
  in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun k -> Json.Float (float_of_int k /. 16.)) small_signed_int;
        map (fun s -> Json.String s) str;
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [
            (2, leaf);
            ( 1,
              map
                (fun xs -> Json.List xs)
                (list_size (0 -- 4) (self (depth - 1))) );
            ( 1,
              map
                (fun fs -> Json.Obj fs)
                (list_size (0 -- 4) (pair str (self (depth - 1)))) );
          ])
    3

(* A \uXXXX escape whose digits may be bad, short or underscores
   ([int_of_string]'s digit separator), or another escape. *)
let gen_escape =
  let open QCheck.Gen in
  let hex = oneofl [ '0'; '7'; 'a'; 'F'; '_'; 'g'; '"'; ' ' ] in
  let digits k =
    map (fun d -> String.init k (Array.get d)) (array_size (return k) hex)
  in
  oneof
    [
      map (( ^ ) "\\u") (digits 4);
      map (( ^ ) "\\u") (digits 2);
      oneofl
        [ "\\\""; "\\\\"; "\\/"; "\\b"; "\\n"; "\\q"; "\\"; "\""; "\\u00e9" ];
    ]

let gen_mutation text =
  let open QCheck.Gen in
  let n = String.length text in
  let at = 0 -- n in
  frequency
    [
      (1, return text);
      ( 3,
        if n = 0 then return text
        else
          map2
            (fun i c -> String.mapi (fun j d -> if j = i then c else d) text)
            (0 -- (n - 1)) char );
      (2, map (fun i -> String.sub text 0 i) at);
      ( 3,
        map2
          (fun i e -> String.sub text 0 i ^ e ^ String.sub text i (n - i))
          at gen_escape );
    ]

let gen_parser_input =
  let open QCheck.Gen in
  let base =
    frequency
      [
        (2, map (Json.to_string ~indent:0) gen_fuzz_json);
        (2, map (Json.to_string ~indent:2) gen_fuzz_json);
        (3, delay (fun () -> oneofl (Lazy.force real_corpus)));
      ]
  in
  base >>= gen_mutation >>= fun text ->
  frequency [ (3, return text); (1, gen_mutation text) ]

let prop_matches_oracle =
  QCheck.Test.make ~name:"of_string = oracle, never raises" ~count:4000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_parser_input)
    (fun text ->
      match Json.of_string text with
      | got -> got = Oracle.of_string text
      | exception e ->
          QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let () =
  Alcotest.run "json"
    [
      ( "emitter",
        [
          Alcotest.test_case "string escaping" `Quick test_string_escaping;
          Alcotest.test_case "non-finite floats" `Quick test_nonfinite_policy;
          Alcotest.test_case "float tokens" `Quick
            test_float_token_stays_numeric;
        ] );
      ( "parser",
        [
          Alcotest.test_case "values" `Quick test_parser_values;
          Alcotest.test_case "errors" `Quick test_parser_errors;
        ] );
      ( "round trip",
        List.map QCheck_alcotest.to_alcotest
          [ prop_roundtrip 0; prop_roundtrip 2 ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 20 |])
            prop_matches_oracle;
        ] );
    ]

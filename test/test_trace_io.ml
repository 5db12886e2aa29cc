module Trace = Mfu_exec.Trace
module Trace_io = Mfu_exec.Trace_io
module Livermore = Mfu_loops.Livermore
module T = Tracegen

let sample =
  T.of_list
    [
      T.imm ~d:1;
      T.load ~d:2 ~addr:17;
      T.fadd ~d:3 ~a:1 ~b:2;
      T.store ~v:3 ~addr:17;
      T.branch ~taken:true;
      T.branch ~taken:false;
    ]

let test_roundtrip_small () =
  match Trace_io.of_string (Trace_io.to_string sample) with
  | Error m -> Alcotest.fail m
  | Ok t ->
      Alcotest.(check int) "length" (Array.length sample) (Array.length t);
      Alcotest.(check bool) "identical" true (t = sample)

let test_roundtrip_all_loops () =
  List.iter
    (fun (l : Livermore.loop) ->
      let trace = Livermore.trace l in
      match Trace_io.of_string (Trace_io.to_string trace) with
      | Error m -> Alcotest.fail (Printf.sprintf "LL%d: %s" l.number m)
      | Ok t ->
          Alcotest.(check bool)
            (Printf.sprintf "LL%d roundtrip" l.number)
            true (t = trace))
    (Livermore.all ())

(* Random traces: write -> read -> structurally equal, over the whole
   entry space the format can represent. *)
let gen_reg =
  let open QCheck.Gen in
  oneof
    [
      map (fun i -> Mfu_isa.Reg.A i) (int_range 0 7);
      map (fun i -> Mfu_isa.Reg.S i) (int_range 0 7);
      map (fun i -> Mfu_isa.Reg.B i) (int_range 0 63);
      map (fun i -> Mfu_isa.Reg.T i) (int_range 0 63);
      map (fun i -> Mfu_isa.Reg.V i) (int_range 0 7);
      return Mfu_isa.Reg.VL;
    ]

(* Integers the serializer must spell exactly like [Printf]'s "%d":
   small and multi-digit, negative, and both ends of the range. *)
let gen_int =
  let open QCheck.Gen in
  frequency
    [
      (4, int_range 0 9);
      (4, int_range 10 100_000);
      (2, int_range (-100_000) (-1));
      (2, int);
      (1, oneofl [ 0; max_int; min_int; -1 ]);
    ]

let gen_kind =
  let open QCheck.Gen in
  oneof
    [
      return Trace.Plain;
      map (fun a -> Trace.Load a) gen_int;
      map (fun a -> Trace.Store a) gen_int;
      return Trace.Taken_branch;
      return Trace.Untaken_branch;
    ]

let gen_entry =
  let open QCheck.Gen in
  map
    (fun (static_index, fu, dest, (srcs, parcels, kind, vl)) ->
      { Trace.static_index; fu; dest; srcs; parcels; kind; vl })
    (quad gen_int
       (oneofl Mfu_isa.Fu.all)
       (option gen_reg)
       (quad (list_size (0 -- 3) gen_reg) gen_int gen_kind gen_int))

let arb_trace =
  QCheck.make ~print:Trace_io.to_string
    QCheck.Gen.(map Array.of_list (list_size (0 -- 60) gen_entry))

let prop_random_roundtrip =
  QCheck.Test.make ~name:"of_string (to_string t) = Ok t" ~count:300 arb_trace
    (fun t -> Trace_io.of_string (Trace_io.to_string t) = Ok t)

(* The production serializer writes digits by hand; the oracle is the
   original [Printf] one. Every store key hashes this text, so the two
   must agree byte for byte. *)
let prop_matches_oracle =
  QCheck.Test.make ~name:"to_string t = Mfu_oracle.Trace_io.to_string t"
    ~count:500 arb_trace (fun t ->
      Trace_io.to_string t = Mfu_oracle.Trace_io.to_string t)

(* Trace files are disk input: byte mutations of valid trace texts must
   parse to [Ok] or [Error], never raise. *)
let prop_fuzz_never_raises =
  QCheck.Test.make ~name:"of_string of mutated traces never raises"
    ~count:1500
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(
         list_size (0 -- 12) gen_entry >>= fun entries ->
         Bytefuzz.mutated
           [
             Trace_io.to_string sample;
             Trace_io.to_string (Array.of_list entries);
           ]))
    (fun text ->
      match Trace_io.of_string text with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let test_edge_integers_match_oracle () =
  let entry ~kind n =
    {
      Trace.static_index = n;
      fu = Mfu_isa.Fu.Memory;
      dest = Some (Mfu_isa.Reg.T 63);
      srcs = [ Mfu_isa.Reg.A 0; Mfu_isa.Reg.VL; Mfu_isa.Reg.B 10 ];
      parcels = n;
      kind = kind n;
      vl = n;
    }
  in
  let trace =
    Array.of_list
      (List.concat_map
         (fun n ->
           [
             entry ~kind:(fun a -> Trace.Load a) n;
             entry ~kind:(fun a -> Trace.Store a) n;
           ])
         [ 0; 1; 9; 10; 99; 100; -1; -9; -10; -100; max_int; min_int;
           min_int + 1; max_int - 1 ])
  in
  Alcotest.(check string)
    "same text" (Mfu_oracle.Trace_io.to_string trace)
    (Trace_io.to_string trace)

(* -- pinned keys ------------------------------------------------------------- *)

(* The MD5 of each trace's text is the [trace=] field of every
   [mfu-point/v1] key (Axes.key). A change to the serializer, the code
   generator or the CPU that alters one byte re-keys every stored result
   and orphans every existing store; these digests make that loud. They
   were computed with the original [Printf] serializer and the
   list-building [Cpu.run]. *)
let pinned_raw =
  [
    (1, "a1b5daf4f03c5c77d791d898b4da0b70");
    (2, "a2a5b7bee5486f002bf2e67fd6aceb4c");
    (3, "ca426d195b33ce4511028207f26b0b25");
    (4, "31de95140f72b0b5622797f928a83ddf");
    (5, "8ca9d1405d850f67963336e99b769d22");
    (6, "e0a8ae6adda21a11ff57ae78b8121458");
    (7, "caa6af2fad1c2424f3e78bcf132fdc08");
    (8, "f94716ba62eb40eb6ee4ab673b3d6a29");
    (9, "008a96fa30b72851da674dcc0631b222");
    (10, "5892cfa701283c3c22b28e25ae7374ad");
    (11, "1c06ebaaaeae7aed3c5a7f4ec9947a7a");
    (12, "63eb14f66aeff72e7c5d42d49bfb1cf6");
    (13, "5dea9e1e9f222c97ffed9712d4d26260");
    (14, "38c2cb29c9e457fa7360fd90758d096e");
  ]

let pinned_scheduled =
  [
    (1, "3af1affe00c27a5c7389f6977bf27294");
    (2, "673976856fcaffdc40f8141621aa7961");
    (3, "1b8b4fb5b610c1d9281b2dbfa9b60a2d");
    (4, "8bb6c9281c5247f1b10798cb55b312a2");
    (5, "5b3d1854600ab79adde4f6bf106f4096");
    (6, "1f87b9eeced5ba308a76b10c8617c049");
    (7, "04cdd8623a2f637632032a881f5055eb");
    (8, "f5cdcdd5d248f977b0c2e132175cc0c6");
    (9, "acf12634c5c7436c19f8b17346b85c0e");
    (10, "de1cda945df467612e7f939fce23593e");
    (11, "3e83ba23a5325d049f0f00e564184788");
    (12, "9781f0c77510e32c37fa01e05fa449a9");
    (13, "293cb42081c74537fe33cc9fc44609eb");
    (14, "93ae4354ad74717e667b48ec293e4554");
  ]

(* LL6 grows by the square root of the scale, which rounds 3 down to 1:
   its scale-3 trace is its paper-sized one. *)
let pinned_scale3 =
  [
    (1, "85f4164254de9cac626c2f52b7569266");
    (6, "e0a8ae6adda21a11ff57ae78b8121458");
    (13, "55029b9d00fde4f4ae92847a697cd320");
  ]

let check_pinned what pinned trace_of =
  let label (n, d) = (Printf.sprintf "LL%d" n, d) in
  Alcotest.(check (list (pair string string)))
    what (List.map label pinned)
    (List.map (fun (n, _) -> label (n, Trace_io.digest (trace_of n))) pinned)

let test_pinned_raw () =
  check_pinned "raw trace digests" pinned_raw (fun n ->
      Livermore.trace (Livermore.loop n))

let test_pinned_scheduled () =
  check_pinned "scheduled trace digests" pinned_scheduled (fun n ->
      Livermore.scheduled_trace (Livermore.loop n))

let test_pinned_scale3 () =
  check_pinned "scale-3 trace digests" pinned_scale3 (fun n ->
      Livermore.trace (Livermore.scaled ~scale:3 n))

let ll1_point =
  {
    Mfu_explore.Axes.machine =
      Mfu_explore.Axes.Ruu
        {
          issue_units = 4;
          ruu_size = 50;
          bus = Mfu_sim.Sim_types.N_bus;
          branches = Mfu_sim.Ruu.Stall;
        };
    config = Mfu_isa.Config.m11br5;
    loop = 1;
    scale = 1;
  }

let test_pinned_point_key () =
  Alcotest.(check string)
    "key"
    "mfu-point/v1 sim=mfu-sim/1 \
     machine=ruu(units=4,size=50,bus=N-Bus,branches=stall) \
     config=M11BR5{aa=2,am=6,lg=1,sh=2,sa=3,fa=6,fm=7,rc=14,me=11,br=5,tr=1} \
     loop=LL1 scale=1 trace=a1b5daf4f03c5c77d791d898b4da0b70"
    (Mfu_explore.Axes.key ll1_point)

(* [Axes.key] reads a paper-sized digest from the table the build
   generates (lib/explore/gen), LL1 first; each entry must be its own
   loop's digest, and each key must carry it. *)
let test_paper_digest_table () =
  let expected =
    List.init 14 (fun i -> Livermore.trace_digest (Livermore.scaled (i + 1)))
  in
  Alcotest.(check (list string)) "generated table" expected
    (Array.to_list Mfu_explore.Paper_digests.table);
  let key_digest loop =
    let k = Mfu_explore.Axes.key { ll1_point with loop } in
    String.sub k (String.length k - 32) 32
  in
  Alcotest.(check (list string)) "key trace fields" expected
    (List.init 14 (fun i -> key_digest (i + 1)))

(* [Axes.key] concatenates its fields; these are the [sprintf] formats
   it replaced, so every family, interconnect, branch policy and
   configuration must key byte-identically through either. *)
let trace_md5 =
  let memo = Hashtbl.create 4 in
  fun loop scale ->
    match Hashtbl.find_opt memo (loop, scale) with
    | Some d -> d
    | None ->
        let d = Livermore.trace_digest (Livermore.scaled ~scale loop) in
        Hashtbl.add memo (loop, scale) d;
        d

let printf_key (p : Mfu_explore.Axes.point) =
  let module A = Mfu_explore.Axes in
  let module S = Mfu_sim in
  let bus = S.Sim_types.bus_model_to_string in
  let machine =
    match p.A.machine with
    | A.Single org ->
        Printf.sprintf "single(%s)"
          (S.Single_issue.organization_to_string org)
    | A.Dep scheme ->
        Printf.sprintf "dep(%s)" (S.Dep_single.scheme_to_string scheme)
    | A.Buffer { policy; stations; bus = b } ->
        Printf.sprintf "buffer(%s,stations=%d,bus=%s)"
          (S.Buffer_issue.policy_to_string policy)
          stations (bus b)
    | A.Ruu { issue_units; ruu_size; bus = b; branches } ->
        Printf.sprintf "ruu(units=%d,size=%d,bus=%s,branches=%s)" issue_units
          ruu_size (bus b)
          (S.Ruu.branch_handling_to_string branches)
  in
  let c = p.A.config in
  let l = c.Mfu_isa.Config.latencies in
  let module Fu = Mfu_isa.Fu in
  Printf.sprintf
    "mfu-point/v1 sim=%s machine=%s \
     config=%s{aa=%d,am=%d,lg=%d,sh=%d,sa=%d,fa=%d,fm=%d,rc=%d,me=%d,br=%d,tr=%d} \
     loop=LL%d scale=%d trace=%s"
    A.sim_version machine (Mfu_isa.Config.name c) l.Fu.address_add
    l.Fu.address_multiply l.Fu.scalar_logical l.Fu.scalar_shift
    l.Fu.scalar_add l.Fu.float_add l.Fu.float_multiply l.Fu.reciprocal
    l.Fu.memory l.Fu.branch l.Fu.transfer p.A.loop p.A.scale
    (trace_md5 p.A.loop p.A.scale)

let test_keys_match_printf_format () =
  match
    Mfu_explore.Axes.of_string
      "org=all; dep=all; policy=all; stations=1-2; units=1-3; size=10,120; \
       bus=all; branch=stall,oracle,bimodal:64; config=all; loops=5; \
       scale=1,3"
  with
  | Error e -> Alcotest.fail e
  | Ok axes ->
      let points = Mfu_explore.Axes.enumerate axes in
      Alcotest.(check bool) "a few hundred points" true
        (List.length points > 200);
      List.iter
        (fun p ->
          Alcotest.(check string) "key bytes" (printf_key p)
            (Mfu_explore.Axes.key p))
        points

let test_header_checked () =
  match Trace_io.of_string "not a trace\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected header error"

let test_bad_line_reported () =
  let text = Trace_io.to_string sample ^ "garbage here\n" in
  match Trace_io.of_string text with
  | Error m ->
      Alcotest.(check bool) "mentions line" true
        (String.length m > 5 && String.sub m 0 5 = "line ")
  | Ok _ -> Alcotest.fail "expected parse error"

let test_empty_trace () =
  match Trace_io.of_string (Trace_io.to_string [||]) with
  | Ok t -> Alcotest.(check int) "empty" 0 (Array.length t)
  | Error m -> Alcotest.fail m

let test_file_io () =
  let path = Filename.temp_file "mfu_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.write_file path sample;
      match Trace_io.read_file path with
      | Ok t -> Alcotest.(check bool) "file roundtrip" true (t = sample)
      | Error m -> Alcotest.fail m)

let test_missing_file () =
  match Trace_io.read_file "/nonexistent/path/trace.txt" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

let test_simulators_agree_on_reloaded_trace () =
  let trace = Livermore.trace (Livermore.loop 5) in
  match Trace_io.of_string (Trace_io.to_string trace) with
  | Error m -> Alcotest.fail m
  | Ok reloaded ->
      let config = Mfu_isa.Config.m11br5 in
      let rate t =
        Mfu_sim.Sim_types.issue_rate
          (Mfu_sim.Single_issue.simulate ~config
             Mfu_sim.Single_issue.Cray_like t)
      in
      Alcotest.(check (float 1e-12)) "same issue rate" (rate trace)
        (rate reloaded)

let () =
  Alcotest.run "trace_io"
    [
      ( "unit",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip_small;
          Alcotest.test_case "roundtrip loops" `Quick test_roundtrip_all_loops;
          Alcotest.test_case "header" `Quick test_header_checked;
          Alcotest.test_case "bad line" `Quick test_bad_line_reported;
          Alcotest.test_case "empty" `Quick test_empty_trace;
          Alcotest.test_case "file io" `Quick test_file_io;
          Alcotest.test_case "missing file" `Quick test_missing_file;
          Alcotest.test_case "reloaded trace simulates identically" `Quick
            test_simulators_agree_on_reloaded_trace;
          Alcotest.test_case "edge integers match oracle" `Quick
            test_edge_integers_match_oracle;
        ] );
      ( "pinned keys",
        [
          Alcotest.test_case "raw traces" `Quick test_pinned_raw;
          Alcotest.test_case "scheduled traces" `Quick test_pinned_scheduled;
          Alcotest.test_case "scale 3" `Quick test_pinned_scale3;
          Alcotest.test_case "point key" `Quick test_pinned_point_key;
          Alcotest.test_case "generated paper-sized digests" `Quick
            test_paper_digest_table;
          Alcotest.test_case "every key matches the printf format" `Quick
            test_keys_match_printf_format;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_random_roundtrip; prop_matches_oracle ]
        @ [
            QCheck_alcotest.to_alcotest
              ~rand:(Random.State.make [| 31 |])
              prop_fuzz_never_raises;
          ] );
    ]

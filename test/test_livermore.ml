module Livermore = Mfu_loops.Livermore
module Codegen = Mfu_kern.Codegen
module Trace = Mfu_exec.Trace
module Ast = Mfu_kern.Ast

let all = Livermore.all ()

let test_fourteen_loops () =
  Alcotest.(check int) "14 loops" 14 (List.length all);
  Alcotest.(check (list int)) "numbered 1..14"
    (List.init 14 (fun i -> i + 1))
    (List.map (fun (l : Livermore.loop) -> l.Livermore.number) all)

let test_paper_classification () =
  let numbers cls =
    List.map
      (fun (l : Livermore.loop) -> l.Livermore.number)
      (Livermore.of_class cls)
  in
  Alcotest.(check (list int)) "scalar loops" [ 5; 6; 11; 13; 14 ]
    (numbers Livermore.Scalar);
  Alcotest.(check (list int)) "vectorizable loops" [ 1; 2; 3; 4; 7; 8; 9; 10; 12 ]
    (numbers Livermore.Vectorizable)

let test_kernels_validate () =
  List.iter
    (fun (l : Livermore.loop) ->
      match Ast.validate l.Livermore.kernel with
      | Ok () -> ()
      | Error m ->
          Alcotest.fail (Printf.sprintf "LL%d: %s" l.Livermore.number m))
    all

(* The central correctness oracle: for every loop, the compiled program
   executed on the CRAY-like CPU must produce exactly the same memory image
   as the golden interpreter. *)
let test_golden_model_agreement () =
  List.iter
    (fun (l : Livermore.loop) ->
      match
        Codegen.check_against_interpreter (Livermore.compiled l)
          l.Livermore.inputs
      with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
    all

let test_traces_nontrivial () =
  List.iter
    (fun (l : Livermore.loop) ->
      let stats = Trace.stats (Livermore.trace l) in
      let name = Printf.sprintf "LL%d" l.Livermore.number in
      Alcotest.(check bool) (name ^ " has >500 instructions") true
        (stats.Trace.instructions > 500);
      Alcotest.(check bool) (name ^ " has loads") true (stats.Trace.loads > 0);
      Alcotest.(check bool) (name ^ " has stores") true (stats.Trace.stores > 0);
      Alcotest.(check bool) (name ^ " has taken branches") true
        (stats.Trace.taken_branches > 0);
      Alcotest.(check bool)
        (name ^ " floating point work present")
        true
        (List.exists
           (fun (fu, _) ->
             Mfu_isa.Fu.equal fu Mfu_isa.Fu.Float_add
             || Mfu_isa.Fu.equal fu Mfu_isa.Fu.Float_multiply)
           stats.Trace.per_fu))
    all

let test_trace_memoized () =
  let l = List.hd all in
  Alcotest.(check bool) "same physical trace" true
    (Livermore.trace l == Livermore.trace l)

let test_custom_sizes () =
  let small = Livermore.loop1 ~n:10 () in
  let dflt = Livermore.loop 1 in
  let ts = Livermore.trace small and td = Livermore.trace dflt in
  Alcotest.(check bool) "smaller n gives shorter trace" true
    (Array.length ts < Array.length td);
  (* and it still matches the interpreter *)
  match
    Codegen.check_against_interpreter (Livermore.compiled small)
      small.Livermore.inputs
  with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_loop2_requires_power_of_two () =
  match Livermore.loop2 ~n:48 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected power-of-two check"

let test_loop_lookup_errors () =
  List.iter
    (fun n ->
      match Livermore.loop n with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected range error")
    [ 0; 15; -1 ]

let test_determinism_across_calls () =
  (* rebuilding a loop from scratch yields the identical trace *)
  let l1 = Livermore.loop5 () and l2 = Livermore.loop5 () in
  let t1 = Codegen.run (Codegen.compile l1.Livermore.kernel) l1.Livermore.inputs in
  let t2 = Codegen.run (Codegen.compile l2.Livermore.kernel) l2.Livermore.inputs in
  Alcotest.(check int) "same length" t1.Mfu_exec.Cpu.instructions
    t2.Mfu_exec.Cpu.instructions;
  Alcotest.(check bool) "same entries" true
    (t1.Mfu_exec.Cpu.trace = t2.Mfu_exec.Cpu.trace)

let test_titles_unique () =
  let titles = List.map (fun (l : Livermore.loop) -> l.Livermore.title) all in
  Alcotest.(check int) "distinct titles" 14
    (List.length (List.sort_uniq compare titles))

let test_scaled () =
  let len l = Array.length (Livermore.trace l) in
  let base1 = len (Livermore.scaled 1) in
  let scaled1 = len (Livermore.scaled ~scale:4 1) in
  Alcotest.(check bool) "loop1 x4 is ~4x longer" true
    (scaled1 > 3 * base1 && scaled1 < 5 * base1);
  (* loop2's size stays a power of two at awkward factors *)
  let l2 = Livermore.scaled ~scale:3 2 in
  (match
     Codegen.check_against_interpreter (Livermore.compiled l2)
       l2.Livermore.inputs
   with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (* loop6's trace grows quadratically in n, so its scale is square-rooted:
     the scaled trace must stay within the same order as the factor *)
  let base6 = len (Livermore.scaled 6) in
  let scaled6 = len (Livermore.scaled ~scale:16 6) in
  Alcotest.(check bool) "loop6 x16 stays ~16x" true
    (scaled6 > 4 * base6 && scaled6 < 40 * base6);
  Alcotest.(check bool) "memoized" true
    (Livermore.scaled ~scale:4 1 == Livermore.scaled ~scale:4 1);
  List.iter
    (fun f ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected range error")
    [
      (fun () -> Livermore.scaled ~scale:0 1);
      (fun () -> Livermore.scaled ~scale:2 0);
      (fun () -> Livermore.scaled ~scale:2 15);
    ];
  (* [all] was forced at the top of this binary, so the process-wide
     scale is frozen: re-asserting the built scale is fine, changing it
     is an error *)
  Livermore.set_scale 1;
  Alcotest.(check int) "frozen scale" 1 (Livermore.scale ());
  match Livermore.set_scale 2 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected set_scale to reject a late change"

let test_trace_cache_counts () =
  let module Tc = Mfu_loops.Trace_cache in
  let l = Livermore.loop 1 in
  let t = Livermore.trace l in
  let s = Tc.stats () in
  (* a second lookup is a hit and returns the same physical array *)
  Alcotest.(check bool) "resident identity" true (Livermore.trace l == t);
  let s' = Tc.stats () in
  Alcotest.(check int) "one hit" (s.Tc.hits + 1) s'.Tc.hits;
  Alcotest.(check int) "no miss" s.Tc.misses s'.Tc.misses;
  (* after [clear] the first lookup misses and regenerates an equal trace
     as a new array; the next one hits it *)
  Tc.clear ();
  let t' = Livermore.trace l in
  let c = Tc.stats () in
  Alcotest.(check (list int)) "hits, misses, entries" [ 0; 1; 1 ]
    [ c.Tc.hits; c.Tc.misses; c.Tc.entries ];
  Alcotest.(check bool) "regenerates equal" true (t = t');
  Alcotest.(check bool) "regenerates a new array" false (t == t');
  Alcotest.(check bool) "identity after clear" true (Livermore.trace l == t')

let () =
  Alcotest.run "livermore"
    [
      ( "unit",
        [
          Alcotest.test_case "fourteen loops" `Quick test_fourteen_loops;
          Alcotest.test_case "classification" `Quick test_paper_classification;
          Alcotest.test_case "kernels validate" `Quick test_kernels_validate;
          Alcotest.test_case "golden model agreement" `Slow
            test_golden_model_agreement;
          Alcotest.test_case "traces nontrivial" `Quick test_traces_nontrivial;
          Alcotest.test_case "trace memoized" `Quick test_trace_memoized;
          Alcotest.test_case "custom sizes" `Quick test_custom_sizes;
          Alcotest.test_case "loop2 n check" `Quick test_loop2_requires_power_of_two;
          Alcotest.test_case "lookup errors" `Quick test_loop_lookup_errors;
          Alcotest.test_case "deterministic traces" `Quick
            test_determinism_across_calls;
          Alcotest.test_case "titles unique" `Quick test_titles_unique;
          Alcotest.test_case "scaled workloads" `Quick test_scaled;
          Alcotest.test_case "trace cache counts" `Quick
            test_trace_cache_counts;
        ] );
    ]

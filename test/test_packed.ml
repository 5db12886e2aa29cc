(* The packed fast core's contract: for every simulator and every machine
   configuration, the production walker over the {!Mfu_exec.Packed} form
   is byte-identical to the original implementation, kept as a test-only
   oracle in the [Mfu_oracle] library (test/oracle) — same cycle counts
   AND same metrics, on hand-built corner cases, the Livermore loops, and
   QCheck-random traces.

   Also covers the new supporting structures ({!Mfu_util.Bitset},
   {!Mfu_util.Int_table}, the packed form itself) and the memory-growth
   regression: on a large synthetic trace the fast paths must allocate
   O(machine), not O(simulated cycles) like the cycle-keyed Hashtbls they
   replace. *)

module Reg = Mfu_isa.Reg
module Fu = Mfu_isa.Fu
module Config = Mfu_isa.Config
module Trace = Mfu_exec.Trace
module Packed = Mfu_exec.Packed
module Si = Mfu_sim.Single_issue
module Bi = Mfu_sim.Buffer_issue
module Ruu = Mfu_sim.Ruu
module Dep = Mfu_sim.Dep_single
module Memory_system = Mfu_sim.Memory_system
module Sim_types = Mfu_sim.Sim_types
module Metrics = Sim_types.Metrics
module Limits = Mfu_limits.Limits
module Oracle = Mfu_oracle
module Livermore = Mfu_loops.Livermore
module Bitset = Mfu_util.Bitset
module Int_table = Mfu_util.Int_table

(* -- the packed form -------------------------------------------------------- *)

let straightline t =
  Array.mapi (fun i (e : Trace.entry) -> { e with Trace.static_index = i }) t

let sample_trace () =
  straightline
  @@ Tracegen.of_list
       [
         Tracegen.imm ~d:1;
         Tracegen.fadd ~d:2 ~a:1 ~b:1;
         Tracegen.load ~d:3 ~addr:17;
         Tracegen.store ~v:2 ~addr:17;
         Tracegen.branch ~taken:true;
         Tracegen.fmul ~d:4 ~a:2 ~b:3;
         Tracegen.branch ~taken:false;
       ]

let test_of_trace_fields () =
  let t = sample_trace () in
  let p = Packed.of_trace t in
  Alcotest.(check int) "length" (Array.length t) (Packed.length p);
  Array.iteri
    (fun i (e : Trace.entry) ->
      Alcotest.(check int)
        (Printf.sprintf "fu %d" i)
        (Fu.index e.fu) p.Packed.fu.(i);
      Alcotest.(check int)
        (Printf.sprintf "dest %d" i)
        (match e.dest with Some d -> Reg.index d | None -> -1)
        p.Packed.dest.(i);
      Alcotest.(check (list int))
        (Printf.sprintf "srcs %d" i)
        (List.map Reg.index e.srcs)
        (List.init
           (p.Packed.src_off.(i + 1) - p.Packed.src_off.(i))
           (fun k -> p.Packed.src_idx.(p.Packed.src_off.(i) + k)));
      Alcotest.(check int)
        (Printf.sprintf "parcels %d" i)
        e.parcels p.Packed.parcels.(i);
      Alcotest.(check int)
        (Printf.sprintf "static %d" i)
        e.static_index p.Packed.static_index.(i);
      Alcotest.(check bool)
        (Printf.sprintf "branch %d" i)
        (Trace.is_branch e) (Packed.is_branch p i);
      Alcotest.(check bool)
        (Printf.sprintf "result %d" i)
        (Trace.produces_result e)
        (Packed.produces_result p i);
      let addr =
        match e.kind with Trace.Load a | Trace.Store a -> a | _ -> -1
      in
      Alcotest.(check int) (Printf.sprintf "addr %d" i) addr p.Packed.addr.(i))
    t

let test_cached_identity () =
  Packed.cache_clear ();
  let t = sample_trace () in
  let p1 = Packed.cached t in
  let p2 = Packed.cached t in
  Alcotest.(check bool) "same pack for same trace array" true (p1 == p2);
  (* an equal but physically distinct trace packs separately *)
  let t' = Array.copy t in
  Alcotest.(check bool) "distinct array, distinct pack" true
    (not (Packed.cached t' == p1));
  Packed.cache_clear ();
  Alcotest.(check bool) "cache_clear forgets" true
    (not (Packed.cached t == p1))

(* -- supporting structures -------------------------------------------------- *)

let test_bitset_basics () =
  let b = Bitset.create 8 in
  Alcotest.(check bool) "fresh empty" false (Bitset.mem b 3);
  Bitset.set b 3;
  Alcotest.(check bool) "set" true (Bitset.mem b 3);
  Alcotest.(check bool) "others clear" false (Bitset.mem b 4);
  Alcotest.(check bool) "beyond capacity is false" false (Bitset.mem b 100_000);
  Bitset.set b 100_000;
  Alcotest.(check bool) "grown" true (Bitset.mem b 100_000);
  Alcotest.(check bool) "old bit survives growth" true (Bitset.mem b 3);
  Bitset.clear b;
  Alcotest.(check bool) "cleared" false (Bitset.mem b 3);
  Alcotest.check_raises "negative mem"
    (Invalid_argument "Bitset.mem: negative index") (fun () ->
      ignore (Bitset.mem b (-1)));
  Alcotest.check_raises "negative set"
    (Invalid_argument "Bitset.set: negative index") (fun () ->
      Bitset.set b (-1))

let prop_bitset_model =
  QCheck.Test.make ~name:"Bitset == int-set model" ~count:200
    QCheck.(list (int_range 0 5000))
    (fun xs ->
      let b = Bitset.create 16 in
      let module S = Set.Make (Int) in
      let s = List.fold_left (fun s x -> Bitset.set b x; S.add x s) S.empty xs in
      List.for_all (fun i -> Bitset.mem b i = S.mem i s) (List.init 5001 Fun.id))

let prop_int_table_model =
  QCheck.Test.make ~name:"Int_table == Hashtbl model" ~count:200
    QCheck.(list (pair (int_range (-100) 100) small_signed_int))
    (fun kvs ->
      let t = Int_table.create 4 in
      let h = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          Int_table.set t k v;
          Hashtbl.replace h k v)
        kvs;
      Int_table.length t = Hashtbl.length h
      && List.for_all
           (fun k ->
             Int_table.find t ~default:max_int k
             = Option.value ~default:max_int (Hashtbl.find_opt h k))
           (List.init 201 (fun i -> i - 100)))

(* -- the differential matrix ------------------------------------------------ *)

(* One machine, run by the production walker ([fast]) and by the oracle. *)
type runner = {
  rname : string;
  fast : ?metrics:Metrics.t -> Trace.t -> int;
  oracle : ?metrics:Metrics.t -> Trace.t -> int;
}

let runners config =
  let lbl fmt = Printf.ksprintf (fun s -> Config.name config ^ "/" ^ s) fmt in
  let single =
    List.map
      (fun (n, org) ->
        {
          rname = lbl "single:%s" n;
          fast =
            (fun ?metrics t -> (Si.simulate ?metrics ~config org t).cycles);
          oracle =
            (fun ?metrics t ->
              (Oracle.Single_issue.simulate ?metrics ~config org t).cycles);
        })
      [
        ("Simple", Si.Simple);
        ("SerialMemory", Si.Serial_memory);
        ("NonSegmented", Si.Non_segmented);
        ("CRAY-like", Si.Cray_like);
      ]
    @ [
        {
          rname = lbl "single:CRAY-like+banks";
          fast =
            (fun ?metrics t ->
              (Si.simulate ?metrics ~memory:Memory_system.cray1_banks ~config
                 Si.Cray_like t)
                .cycles);
          oracle =
            (fun ?metrics t ->
              (Oracle.Single_issue.simulate ?metrics
                 ~memory:Memory_system.cray1_banks ~config Si.Cray_like t)
                .cycles);
        };
      ]
  in
  let dep =
    List.map
      (fun (n, scheme) ->
        {
          rname = lbl "dep:%s" n;
          fast =
            (fun ?metrics t -> (Dep.simulate ?metrics ~config scheme t).cycles);
          oracle =
            (fun ?metrics t ->
              (Oracle.Dep_single.simulate ?metrics ~config scheme t).cycles);
        })
      [ ("Scoreboard", Dep.Scoreboard); ("Tomasulo", Dep.Tomasulo) ]
  in
  let buses =
    [
      ("nbus", Sim_types.N_bus);
      ("1bus", Sim_types.One_bus);
      ("xbar", Sim_types.X_bar);
    ]
  in
  let buffer =
    List.concat_map
      (fun (pn, policy) ->
        List.concat_map
          (fun stations ->
            List.concat_map
              (fun (bn, bus) ->
                List.map
                  (fun alignment ->
                    {
                      rname =
                        lbl "buffer:%s/%d/%s/%s" pn stations bn
                          (Bi.alignment_to_string alignment);
                      fast =
                        (fun ?metrics t ->
                          (Bi.simulate ?metrics ~alignment ~config ~policy
                             ~stations ~bus t)
                            .cycles);
                      oracle =
                        (fun ?metrics t ->
                          (Oracle.Buffer_issue.simulate ?metrics ~alignment
                             ~config ~policy ~stations ~bus t)
                            .cycles);
                    })
                  [ Bi.Dynamic; Bi.Static ])
              buses)
          [ 1; 3; 8 ])
      [ ("inorder", Bi.In_order); ("ooo", Bi.Out_of_order) ]
  in
  let ruu =
    List.concat_map
      (fun ruu_size ->
        List.concat_map
          (fun issue_units ->
            List.map
              (fun (bn, bus) ->
                {
                  rname = lbl "ruu:%d/%d/%s" ruu_size issue_units bn;
                  fast =
                    (fun ?metrics t ->
                      (Ruu.simulate ?metrics ~config ~issue_units ~ruu_size
                         ~bus t)
                        .cycles);
                  oracle =
                    (fun ?metrics t ->
                      (Oracle.Ruu.simulate ?metrics ~config ~issue_units
                         ~ruu_size ~bus t)
                        .cycles);
                })
              buses)
          [ 1; 4 ])
      [ 10; 50 ]
    @ List.map
        (fun (bn, branches) ->
          {
            rname = lbl "ruu:50/4/nbus/%s" bn;
            fast =
              (fun ?metrics t ->
                (Ruu.simulate ?metrics ~branches ~config ~issue_units:4
                   ~ruu_size:50 ~bus:Sim_types.N_bus t)
                  .cycles);
            oracle =
              (fun ?metrics t ->
                (Oracle.Ruu.simulate ?metrics ~branches ~config ~issue_units:4
                   ~ruu_size:50 ~bus:Sim_types.N_bus t)
                  .cycles);
          })
        [
          ("oracle", Ruu.Oracle);
          ("static-taken", Ruu.Static_taken);
          ("bimodal16", Ruu.Bimodal 16);
        ]
  in
  let limits =
    [
      {
        rname = lbl "limits:critical-path";
        fast = (fun ?metrics t -> Limits.critical_path ?metrics ~config t);
        oracle =
          (fun ?metrics t -> Oracle.Limits.critical_path ?metrics ~config t);
      };
    ]
  in
  List.concat [ single; dep; buffer; ruu; limits ]

let fixed_traces =
  lazy
    [
      ("empty", Tracegen.of_list []);
      ("one-op", straightline (Tracegen.of_list [ Tracegen.fadd ~d:1 ~a:2 ~b:3 ]));
      ("sample", sample_trace ());
      ( "raw-chain",
        straightline
        @@ Tracegen.of_list
          [
            Tracegen.imm ~d:1;
            Tracegen.fadd ~d:2 ~a:1 ~b:1;
            Tracegen.fadd ~d:3 ~a:2 ~b:2;
            Tracegen.fadd ~d:4 ~a:3 ~b:3;
          ] );
      ( "waw-pair",
        straightline
        @@ Tracegen.of_list
          [
            Tracegen.fmul ~d:1 ~a:2 ~b:3;
            Tracegen.fadd ~d:1 ~a:4 ~b:5;
            Tracegen.fadd ~d:2 ~a:1 ~b:1;
          ] );
      ( "memory+branch",
        straightline
        @@ Tracegen.of_list
          [
            Tracegen.load ~d:1 ~addr:0;
            Tracegen.store ~v:1 ~addr:0;
            Tracegen.load ~d:2 ~addr:0;
            Tracegen.branch ~taken:true;
            Tracegen.fadd ~d:3 ~a:1 ~b:2;
          ] );
      ("livermore-1", Livermore.trace (Livermore.loop1 ~n:12 ()));
      ("livermore-3", Livermore.trace (Livermore.loop3 ~n:16 ()));
      ("livermore-12", Livermore.trace (Livermore.loop12 ~n:16 ()));
    ]

let trim a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  Array.sub a 0 !n

let check_metrics_equal ~where (a : Metrics.t) (b : Metrics.t) =
  let chk name va vb =
    if va <> vb then
      Alcotest.failf "%s: %s differs (oracle %d, packed %d)" where name va
        vb
  in
  chk "total_cycles" a.total_cycles b.total_cycles;
  chk "issue_cycles" a.issue_cycles b.issue_cycles;
  chk "instructions" a.instructions b.instructions;
  if a.stalls <> b.stalls then Alcotest.failf "%s: stall vectors differ" where;
  if a.fu_busy <> b.fu_busy then
    Alcotest.failf "%s: fu-busy vectors differ" where;
  if trim a.issued_per_cycle <> trim b.issued_per_cycle then
    Alcotest.failf "%s: issue-width histograms differ" where;
  if trim a.occupancy <> trim b.occupancy then
    Alcotest.failf "%s: occupancy histograms differ" where

let check_differential ~ctx (r : runner) trace =
  let where = Printf.sprintf "%s on %s" r.rname ctx in
  let ref_plain = r.oracle trace in
  let fast_plain = r.fast trace in
  if ref_plain <> fast_plain then
    Alcotest.failf "%s: oracle %d cycles, packed %d" where ref_plain fast_plain;
  let mr = Metrics.create () and mf = Metrics.create () in
  let ref_m = r.oracle ~metrics:mr trace in
  let fast_m = r.fast ~metrics:mf trace in
  if ref_m <> ref_plain || fast_m <> fast_plain then
    Alcotest.failf "%s: metrics changed a result" where;
  check_metrics_equal ~where mr mf

let diff_configs = [ Config.m11br5; List.nth Config.all 3 ]

let test_differential_fixed () =
  List.iter
    (fun config ->
      List.iter
        (fun (ctx, trace) ->
          List.iter (fun r -> check_differential ~ctx r trace) (runners config))
        (Lazy.force fixed_traces))
    diff_configs

(* The dataflow limits share one walk; check the full [analyze] record
   (float issue rates derive from the integer path lengths, so equality is
   exact). *)
let test_differential_limits_analyze () =
  List.iter
    (fun config ->
      List.iter
        (fun (ctx, trace) ->
          let a = Oracle.Limits.analyze ~config trace in
          let b = Limits.analyze ~config trace in
          if a <> b then
            Alcotest.failf "limits.analyze on %s/%s: records differ"
              (Config.name config) ctx)
        (Lazy.force fixed_traces))
    diff_configs

(* -- RUU wakeup/select corner cases ------------------------------------------- *)

(* Hand-built traces aimed at the RUU fast path's dependency edges,
   timing wheel and ready set, each run against the oracle on the
   machines named with it (both latency configurations, metrics on and
   off). *)
let ruu_cases =
  let open Tracegen in
  let indep = [ imm ~d:1; fadd ~d:2 ~a:3 ~b:4; fmul ~d:5 ~a:6 ~b:7; imm ~d:0 ] in
  [
    (* one producer, two edges from the same consumer *)
    ( "same register read twice",
      [ load ~d:1 ~addr:3; fadd ~d:2 ~a:1 ~b:1; fmul ~d:3 ~a:2 ~b:2;
        store ~v:3 ~addr:3 ],
      [ (10, 4, Sim_types.N_bus); (10, 2, Sim_types.X_bar) ] );
    (* on a 4-slot RUU the store's slot holds another load, still in
       flight, when the load from the store's address issues: the store
       map's reference no longer matches the slot's generation; on the
       20-slot RUU the store has merely committed in place *)
    ( "store slot recycled before the load",
      [ store ~v:1 ~addr:5; imm ~d:1; imm ~d:2; imm ~d:3; load ~d:4 ~addr:9;
        load ~d:2 ~addr:5; fadd ~d:3 ~a:2 ~b:2 ],
      [ (4, 1, Sim_types.N_bus); (4, 2, Sim_types.One_bus);
        (20, 1, Sim_types.N_bus) ] );
    (* four ready entries, one dispatch per cycle *)
    ( "1-bus with several ready entries",
      indep @ indep,
      [ (10, 4, Sim_types.One_bus); (4, 4, Sim_types.One_bus) ] );
    (* banks are [slot mod 3] on a 7-slot ring: the wrap from slot 6 to
       slot 0 stays in bank 0 *)
    ( "ring size not a multiple of the banks",
      List.concat (List.init 4 (fun _ -> indep))
      @ [ load ~d:1 ~addr:0; fadd ~d:2 ~a:1 ~b:2; store ~v:2 ~addr:1 ],
      [ (7, 3, Sim_types.N_bus); (5, 2, Sim_types.N_bus) ] );
    (* six consumers of one load become ready together on two units *)
    ( "crossbar with more ready entries than units",
      load ~d:1 ~addr:0
      :: List.init 6 (fun i ->
             if i mod 2 = 0 then fadd ~d:(2 + i) ~a:1 ~b:1
             else fmul ~d:(2 + i) ~a:1 ~b:1),
      [ (10, 2, Sim_types.X_bar); (10, 1, Sim_types.X_bar) ] );
    (* producers completing on one cycle, by equal latencies issued
       together and by a load and a later add; two consumers of the pair
       drain from one wheel bucket *)
    ( "producers completing on the same cycle",
      [ fadd ~d:1 ~a:5 ~b:5; fadd ~d:2 ~a:6 ~b:6; fmul ~d:3 ~a:1 ~b:2;
        fadd ~d:4 ~a:2 ~b:1; load ~d:5 ~addr:9; imm ~d:0; imm ~d:0; imm ~d:0;
        imm ~d:0; fadd ~d:6 ~a:7 ~b:7; fmul ~d:7 ~a:5 ~b:6 ],
      [ (10, 2, Sim_types.N_bus); (10, 4, Sim_types.X_bar) ] );
  ]

let test_ruu_corner_cases () =
  List.iter
    (fun config ->
      List.iter
        (fun (ctx, entries, machines) ->
          let trace = straightline (Tracegen.of_list entries) in
          List.iter
            (fun (ruu_size, issue_units, bus) ->
              let r =
                {
                  rname =
                    Printf.sprintf "%s/ruu:%d/%d/%s" (Config.name config)
                      ruu_size issue_units
                      (Sim_types.bus_model_to_string bus);
                  fast =
                    (fun ?metrics t ->
                      (Ruu.simulate ?metrics ~config ~issue_units ~ruu_size
                         ~bus t)
                        .cycles);
                  oracle =
                    (fun ?metrics t ->
                      (Oracle.Ruu.simulate ?metrics ~config ~issue_units
                         ~ruu_size ~bus t)
                        .cycles);
                }
              in
              check_differential ~ctx r trace)
            machines)
        ruu_cases)
    diff_configs

(* -- random traces ----------------------------------------------------------- *)

let entry_gen =
  let open QCheck.Gen in
  let sreg = map (fun i -> Reg.S i) (int_range 0 7) in
  let areg = map (fun i -> Reg.A i) (int_range 0 7) in
  let addr = int_range 0 31 in
  let scalar_op fu =
    map3 (fun d a b -> Tracegen.entry ~dest:d ~srcs:[ a; b ] fu) sreg sreg sreg
  in
  frequency
    [
      (3, scalar_op Fu.Float_add);
      (3, scalar_op Fu.Float_multiply);
      (2, scalar_op Fu.Scalar_logical);
      (2, scalar_op Fu.Address_add);
      ( 3,
        map2
          (fun d a ->
            Tracegen.entry ~dest:d ~srcs:[ Reg.A 1 ] ~parcels:2
              ~kind:(Trace.Load a) Fu.Memory)
          sreg addr );
      ( 2,
        map2
          (fun v a ->
            Tracegen.entry ~srcs:[ v; Reg.A 1 ] ~parcels:2 ~kind:(Trace.Store a)
              Fu.Memory)
          sreg addr );
      (3, map (fun d -> Tracegen.entry ~dest:d Fu.Transfer) sreg);
      ( 1,
        map
          (fun d -> Tracegen.entry ~dest:d ~srcs:[ Reg.A 2 ] Fu.Address_multiply)
          areg );
      (1, map (fun taken -> Tracegen.branch ~taken) bool);
    ]

let arb_trace =
  QCheck.make
    ~print:(fun t ->
      String.concat "\n"
        (Array.to_list (Array.map (Format.asprintf "%a" Trace.pp_entry) t)))
    QCheck.Gen.(
      map
        (fun l -> straightline (Array.of_list l))
        (list_size (int_range 0 50) entry_gen))

let random_runners = runners Config.m11br5

let prop_differential_random =
  QCheck.Test.make ~name:"packed == reference on random traces" ~count:60
    arb_trace (fun t ->
      List.iter (fun r -> check_differential ~ctx:"random" r t) random_runners;
      List.iter
        (fun config ->
          let a = Oracle.Limits.analyze ~config t in
          let b = Limits.analyze ~config t in
          if a <> b then Alcotest.failf "limits.analyze differs on random")
        diff_configs;
      true)

(* -- memory-growth regression ------------------------------------------------ *)

(* A long synthetic workload: loop iterations of mixed latencies, memory
   traffic over a bounded address set, and a taken branch per iteration.
   Simulated time is O(n), so the cycle-keyed Hashtbls of the oracles
   grow without bound while the fast paths' rings and address tables
   stay O(machine). *)
let big_trace n =
  let block i =
    [
      Tracegen.load ~d:1 ~addr:(i * 7 mod 64);
      Tracegen.fadd ~d:2 ~a:1 ~b:2;
      Tracegen.fmul ~d:3 ~a:2 ~b:1;
      Tracegen.store ~v:3 ~addr:(i * 7 mod 64);
      Tracegen.imm ~d:4;
      Tracegen.branch ~taken:true;
    ]
  in
  straightline
    (Tracegen.of_list (List.concat_map block (List.init n Fun.id)))

let test_large_trace_regression () =
  let t = big_trace 4_000 in
  let n = float_of_int (Array.length t) in
  (* pack outside the measured window: packing is once per trace *)
  ignore (Packed.cached t : Packed.t);
  let measure f =
    let a0 = Gc.allocated_bytes () in
    let cycles = f () in
    (cycles, Gc.allocated_bytes () -. a0)
  in
  let ruu_ref, _ =
    measure (fun () ->
        (Oracle.Ruu.simulate ~config:Config.m11br5 ~issue_units:4
           ~ruu_size:50 ~bus:Sim_types.N_bus t)
          .cycles)
  in
  let ruu_fast, ruu_bytes =
    measure (fun () ->
        (Ruu.simulate ~config:Config.m11br5 ~issue_units:4 ~ruu_size:50
           ~bus:Sim_types.N_bus t)
          .cycles)
  in
  Alcotest.(check int) "ruu cycles identical on large trace" ruu_ref ruu_fast;
  if ruu_bytes > 64. *. n then
    Alcotest.failf "ruu fast path allocated %.0f bytes (%.1f/instruction)"
      ruu_bytes (ruu_bytes /. n);
  let buf_ref, _ =
    measure (fun () ->
        (Oracle.Buffer_issue.simulate ~config:Config.m11br5
           ~policy:Bi.Out_of_order ~stations:8 ~bus:Sim_types.N_bus t)
          .cycles)
  in
  let buf_fast, buf_bytes =
    measure (fun () ->
        (Bi.simulate ~config:Config.m11br5 ~policy:Bi.Out_of_order ~stations:8
           ~bus:Sim_types.N_bus t)
          .cycles)
  in
  Alcotest.(check int) "buffer cycles identical on large trace" buf_ref
    buf_fast;
  if buf_bytes > 64. *. n then
    Alcotest.failf "buffer fast path allocated %.0f bytes (%.1f/instruction)"
      buf_bytes (buf_bytes /. n)

let () =
  Alcotest.run "packed"
    [
      ( "packed-form",
        [
          Alcotest.test_case "of_trace fields" `Quick test_of_trace_fields;
          Alcotest.test_case "cached identity" `Quick test_cached_identity;
        ] );
      ( "structures",
        [
          Alcotest.test_case "bitset basics" `Quick test_bitset_basics;
          QCheck_alcotest.to_alcotest prop_bitset_model;
          QCheck_alcotest.to_alcotest prop_int_table_model;
        ] );
      ( "differential",
        [
          Alcotest.test_case "fixed traces, full matrix" `Quick
            test_differential_fixed;
          Alcotest.test_case "limits.analyze" `Quick
            test_differential_limits_analyze;
          Alcotest.test_case "RUU wakeup/select corner cases" `Quick
            test_ruu_corner_cases;
          QCheck_alcotest.to_alcotest prop_differential_random;
        ] );
      ( "regression",
        [
          Alcotest.test_case "large trace: identical and allocation-free"
            `Slow test_large_trace_regression;
        ] );
    ]

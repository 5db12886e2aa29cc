(* Exact steady-state fast-forward ({!Mfu_sim.Steady}): the accelerated
   default path must be bit-identical — cycles, instruction counts, and
   every metrics counter — to the un-accelerated packed fast path (and,
   transitively via test_packed, to the [~reference:true] oracles), on
   synthetic periodic traces, the Livermore loops, and QCheck-random
   loop shapes; and it must actually engage (telescope) on loop traces
   long enough to be worth skipping. *)

module Reg = Mfu_isa.Reg
module Config = Mfu_isa.Config
module Trace = Mfu_exec.Trace
module Packed = Mfu_exec.Packed
module Si = Mfu_sim.Single_issue
module Bi = Mfu_sim.Buffer_issue
module Ruu = Mfu_sim.Ruu
module Dep = Mfu_sim.Dep_single
module Sim_types = Mfu_sim.Sim_types
module Metrics = Sim_types.Metrics
module Steady = Mfu_sim.Steady
module Limits = Mfu_limits.Limits
module Livermore = Mfu_loops.Livermore

(* -- synthetic loop traces -------------------------------------------------- *)

let with_static i (e : Trace.entry) = { e with Trace.static_index = i }

let shift_addr d (e : Trace.entry) =
  match e.kind with
  | Trace.Load a -> { e with Trace.kind = Trace.Load (a + d) }
  | Trace.Store a -> { e with Trace.kind = Trace.Store (a + d) }
  | _ -> e

(* [prologue] + [periods] copies of [body] (loads and stores advancing by
   [stride] per copy) + [epilogue]. Static indices repeat across copies,
   as a real loop's would. *)
let loop_trace ?(prologue = []) ?(epilogue = []) ~periods ~stride body =
  let body = List.mapi with_static body in
  let prologue = List.mapi (fun i e -> with_static (1000 + i) e) prologue in
  let epilogue = List.mapi (fun i e -> with_static (2000 + i) e) epilogue in
  Array.of_list
    (prologue
    @ List.concat
        (List.init periods (fun m ->
             List.map (shift_addr (m * stride)) body))
    @ epilogue)

(* a vectorizable-style body: independent load/compute/store + backedge *)
let strided_body =
  [
    Tracegen.load ~d:1 ~addr:100;
    Tracegen.fadd ~d:2 ~a:1 ~b:3;
    Tracegen.fmul ~d:4 ~a:2 ~b:2;
    Tracegen.store ~v:4 ~addr:400;
    Tracegen.branch ~taken:true;
  ]

(* a scalar-recurrence body carrying a value across iterations *)
let recurrence_body =
  [
    Tracegen.load ~d:1 ~addr:64;
    Tracegen.fadd ~d:2 ~a:2 ~b:1;
    Tracegen.imm ~d:3;
    Tracegen.branch ~taken:true;
  ]

(* register-only body: no memory traffic at all (stride is irrelevant) *)
let regonly_body =
  [
    Tracegen.imm ~d:1;
    Tracegen.fadd ~d:2 ~a:1 ~b:1;
    Tracegen.fmul ~d:3 ~a:2 ~b:1;
    Tracegen.branch ~taken:true;
  ]

(* body with an internal untaken branch before the taken backedge *)
let two_branch_body =
  [
    Tracegen.load ~d:1 ~addr:7;
    Tracegen.branch ~taken:false;
    Tracegen.fadd ~d:2 ~a:1 ~b:2;
    Tracegen.branch ~taken:true;
  ]

let prologue3 =
  [ Tracegen.imm ~d:1; Tracegen.imm ~d:2; Tracegen.imm ~d:3 ]

let epilogue2 = [ Tracegen.fadd ~d:5 ~a:2 ~b:2; Tracegen.imm ~d:6 ]

(* -- the period finder ------------------------------------------------------ *)

let test_period_found () =
  let t =
    loop_trace ~prologue:prologue3 ~epilogue:epilogue2 ~periods:50 ~stride:8
      strided_body
  in
  match Packed.period (Packed.of_trace t) with
  | None -> Alcotest.fail "no period found on a periodic trace"
  | Some p ->
      Alcotest.(check int) "period length" 5 p.Packed.p_len;
      Alcotest.(check int) "stride" 8 p.Packed.p_stride;
      (* the region starts after the first backedge: one period is warm-up *)
      Alcotest.(check int) "start" 8 p.Packed.p_start;
      Alcotest.(check bool) "periods" true (p.Packed.p_periods >= 48)

let test_period_zero_stride () =
  let t = loop_trace ~periods:30 ~stride:0 recurrence_body in
  match Packed.period (Packed.of_trace t) with
  | None -> Alcotest.fail "no period found"
  | Some p ->
      Alcotest.(check int) "period length" 4 p.Packed.p_len;
      Alcotest.(check int) "stride" 0 p.Packed.p_stride

let test_period_none () =
  (* taken branches at irregular spacings: no candidate period survives *)
  let irregular =
    Array.of_list
      (List.concat_map
         (fun gap ->
           List.init gap (fun i -> with_static i (Tracegen.imm ~d:(i mod 4)))
           @ [ with_static 99 (Tracegen.branch ~taken:true) ])
         [ 3; 5; 4; 7; 3; 6; 5; 4; 8; 3 ])
  in
  (match Packed.period (Packed.of_trace irregular) with
  | None -> ()
  | Some _ -> Alcotest.fail "found a period in an aperiodic trace");
  (* short traces are rejected outright *)
  match Packed.period (Packed.of_trace (Tracegen.of_list [])) with
  | None -> ()
  | Some _ -> Alcotest.fail "found a period in an empty trace"

let test_period_mixed_stride_rejected () =
  (* two memory streams with different strides: the region must end (or
     never start) rather than report a bogus uniform stride *)
  let body m =
    [
      with_static 0 (Tracegen.load ~d:1 ~addr:(100 + (m * 4)));
      with_static 1 (Tracegen.store ~v:1 ~addr:(500 + (m * 6)));
      with_static 2 (Tracegen.branch ~taken:true);
    ]
  in
  let t = Array.of_list (List.concat (List.init 40 body)) in
  match Packed.period (Packed.of_trace t) with
  | None -> ()
  | Some p ->
      Alcotest.failf "mixed strides accepted: len=%d stride=%d periods=%d"
        p.Packed.p_len p.Packed.p_stride p.Packed.p_periods

(* -- the differential matrix ------------------------------------------------ *)

type runner = {
  rname : string;
  run : ?metrics:Metrics.t -> accel:bool -> Trace.t -> Sim_types.result;
}

let runners config =
  let lbl fmt = Printf.ksprintf (fun s -> Config.name config ^ "/" ^ s) fmt in
  List.concat
    [
      List.map
        (fun (n, org) ->
          {
            rname = lbl "single:%s" n;
            run =
              (fun ?metrics ~accel t ->
                Si.simulate ?metrics ~accel ~config org t);
          })
        [
          ("Simple", Si.Simple);
          ("SerialMemory", Si.Serial_memory);
          ("NonSegmented", Si.Non_segmented);
          ("CRAY-like", Si.Cray_like);
        ];
      List.map
        (fun (n, scheme) ->
          {
            rname = lbl "dep:%s" n;
            run =
              (fun ?metrics ~accel t ->
                Dep.simulate ?metrics ~accel ~config scheme t);
          })
        [ ("Scoreboard", Dep.Scoreboard); ("Tomasulo", Dep.Tomasulo) ];
      List.concat_map
        (fun (pn, policy) ->
          List.concat_map
            (fun (bn, bus) ->
              List.map
                (fun alignment ->
                  {
                    rname =
                      lbl "buffer:%s/8/%s/%s" pn bn
                        (Bi.alignment_to_string alignment);
                    run =
                      (fun ?metrics ~accel t ->
                        Bi.simulate ?metrics ~alignment ~accel ~config ~policy
                          ~stations:8 ~bus t);
                  })
                [ Bi.Dynamic; Bi.Static ])
            [ ("nbus", Sim_types.N_bus); ("xbar", Sim_types.X_bar) ])
        [ ("inorder", Bi.In_order); ("ooo", Bi.Out_of_order) ];
      List.map
        (fun (bn, branches, bus) ->
          {
            rname = lbl "ruu:16/4/%s" bn;
            run =
              (fun ?metrics ~accel t ->
                Ruu.simulate ?metrics ~branches ~accel ~config ~issue_units:4
                  ~ruu_size:16 ~bus t);
          })
        [
          ("nbus/stall", Ruu.Stall, Sim_types.N_bus);
          ("1bus/stall", Ruu.Stall, Sim_types.One_bus);
          ("xbar/oracle", Ruu.Oracle, Sim_types.X_bar);
          ("nbus/bimodal16", Ruu.Bimodal 16, Sim_types.N_bus);
        ];
      [
        {
          rname = lbl "limits:critical-path";
          run =
            (fun ?metrics ~accel t ->
              {
                Sim_types.cycles = Limits.critical_path ?metrics ~accel ~config t;
                instructions = Array.length t;
              });
        };
      ];
    ]

let check_metrics ~where (a : Metrics.t) (b : Metrics.t) =
  if not (Metrics.equal a b) then
    Alcotest.failf "%s: metrics differ between full and accelerated runs" where

let check_differential ~ctx (r : runner) trace =
  let where = Printf.sprintf "%s on %s" r.rname ctx in
  let full = r.run ~accel:false trace in
  let fast = r.run ~accel:true trace in
  if full <> fast then
    Alcotest.failf "%s: full %d cycles / %d instrs, accelerated %d / %d" where
      full.Sim_types.cycles full.instructions fast.Sim_types.cycles
      fast.instructions;
  let mfull = Metrics.create () and mfast = Metrics.create () in
  let full_m = r.run ~metrics:mfull ~accel:false trace in
  let fast_m = r.run ~metrics:mfast ~accel:true trace in
  if full_m <> full || fast_m <> fast then
    Alcotest.failf "%s: metrics changed a result" where;
  check_metrics ~where mfull mfast

let synthetic_traces =
  lazy
    [
      ( "strided-120p",
        loop_trace ~prologue:prologue3 ~epilogue:epilogue2 ~periods:120
          ~stride:8 strided_body );
      ("strided-nopro", loop_trace ~periods:100 ~stride:4 strided_body);
      ( "recurrence-0stride",
        loop_trace ~prologue:prologue3 ~periods:100 ~stride:0 recurrence_body
      );
      ("regonly", loop_trace ~periods:150 ~stride:0 regonly_body);
      ( "negative-stride",
        loop_trace ~periods:80 ~stride:(-3)
          (List.map (shift_addr 1000) strided_body) );
      ( "two-branch",
        loop_trace ~prologue:prologue3 ~epilogue:epilogue2 ~periods:90
          ~stride:2 two_branch_body );
      (* short periodic region: not worth telescoping, must fall back *)
      ("short", loop_trace ~periods:4 ~stride:8 strided_body);
      (* aperiodic: acceleration must be a clean no-op *)
      ( "aperiodic",
        Array.of_list
          (List.concat_map
             (fun gap ->
               List.init gap (fun i ->
                   with_static i (Tracegen.fadd ~d:(i mod 4) ~a:1 ~b:2))
               @ [ with_static 99 (Tracegen.branch ~taken:true) ])
             [ 3; 5; 4; 7; 3; 6; 5; 4; 8; 3 ]) );
    ]

let diff_configs = [ Config.m11br5; List.nth Config.all 3 ]

let test_differential_synthetic () =
  Steady.reset_stats ();
  List.iter
    (fun config ->
      List.iter
        (fun (ctx, trace) ->
          List.iter (fun r -> check_differential ~ctx r trace) (runners config))
        (Lazy.force synthetic_traces))
    diff_configs;
  let s = Steady.stats () in
  if s.Steady.telescoped = 0 then
    Alcotest.fail "no synthetic run telescoped: acceleration never engaged";
  if s.Steady.aperiodic = 0 then
    Alcotest.fail "the aperiodic trace was not classified as aperiodic"

let test_differential_livermore () =
  List.iter
    (fun (ctx, loop) ->
      let trace = Livermore.trace loop in
      List.iter
        (fun r -> check_differential ~ctx r trace)
        (runners Config.m11br5))
    [
      ("livermore-1", Livermore.loop1 ~n:400 ());
      ("livermore-5", Livermore.loop5 ~n:400 ());
      ("livermore-11", Livermore.loop11 ~n:400 ());
      ("livermore-12", Livermore.loop12 ~n:400 ());
    ]

(* Acceleration must engage — not just agree — on every simulator for a
   long register-only loop (no address state: even the limits walk's
   store-token table stays empty and can repeat). *)
let test_telescoping_engages_everywhere () =
  let t = loop_trace ~prologue:prologue3 ~periods:400 ~stride:0 regonly_body in
  let config = Config.m11br5 in
  List.iter
    (fun (name, run) ->
      Steady.reset_stats ();
      let _ = run t in
      let s = Steady.stats () in
      if s.Steady.telescoped <> 1 then
        Alcotest.failf "%s did not telescope (tele=%d fb=%d aper=%d)" name
          s.Steady.telescoped s.fallback s.aperiodic)
    [
      ( "single_issue",
        fun t -> (Si.simulate ~config Si.Cray_like t).Sim_types.cycles );
      ( "dep_single",
        fun t -> (Dep.simulate ~config Dep.Tomasulo t).Sim_types.cycles );
      ( "buffer_issue",
        fun t ->
          (Bi.simulate ~config ~policy:Bi.Out_of_order ~stations:8
             ~bus:Sim_types.X_bar t)
            .Sim_types.cycles );
      ( "ruu",
        fun t ->
          (Ruu.simulate ~config ~issue_units:4 ~ruu_size:16 ~bus:Sim_types.N_bus
             t)
            .Sim_types.cycles );
      ("limits", fun t -> Limits.critical_path ~config t);
    ]

(* Engagement per machine, not per family: every configuration of the
   differential matrix, on both latency configurations, telescopes the
   long register-only loop exactly once and still agrees with its
   unaccelerated run. The bimodal RUU is left out: it falls back to the
   full walk on this loop, which the differential tests already show is
   exact. *)
let test_every_configuration_telescopes () =
  let t = loop_trace ~prologue:prologue3 ~periods:400 ~stride:0 regonly_body in
  List.iter
    (fun config ->
      List.iter
        (fun r ->
          Steady.reset_stats ();
          let fast = r.run ~accel:true t in
          let s = Steady.stats () in
          if s.Steady.telescoped <> 1 then
            Alcotest.failf "%s did not telescope (tele=%d fb=%d aper=%d)"
              r.rname s.Steady.telescoped s.fallback s.aperiodic;
          if fast <> r.run ~accel:false t then
            Alcotest.failf "%s: telescoped run differs from full run" r.rname)
        (List.filter
           (fun r -> not (String.ends_with ~suffix:"bimodal16" r.rname))
           (runners config)))
    diff_configs

let test_instructions_preserved () =
  let t =
    loop_trace ~prologue:prologue3 ~epilogue:epilogue2 ~periods:200 ~stride:8
      strided_body
  in
  Steady.reset_stats ();
  let r = Si.simulate ~config:Config.m11br5 Si.Cray_like t in
  Alcotest.(check int) "telescoped" 1 (Steady.stats ()).Steady.telescoped;
  Alcotest.(check int) "instructions" (Array.length t) r.Sim_types.instructions

(* -- random loop shapes ----------------------------------------------------- *)

let body_gen =
  let open QCheck.Gen in
  let sreg = int_range 0 5 in
  let op =
    frequency
      [
        (3, map3 (fun d a b -> Tracegen.fadd ~d ~a ~b) sreg sreg sreg);
        (2, map3 (fun d a b -> Tracegen.fmul ~d ~a ~b) sreg sreg sreg);
        (2, map2 (fun d addr -> Tracegen.load ~d ~addr) sreg (int_range 0 40));
        (2, map2 (fun v addr -> Tracegen.store ~v ~addr) sreg (int_range 0 40));
        (1, map (fun d -> Tracegen.imm ~d) sreg);
        (1, return (Tracegen.branch ~taken:false));
      ]
  in
  map
    (fun ops -> ops @ [ Tracegen.branch ~taken:true ])
    (list_size (int_range 1 8) op)

let loop_gen =
  QCheck.Gen.(
    map3
      (fun body (periods, stride) (pro, epi) ->
        loop_trace
          ~prologue:(List.init pro (fun i -> Tracegen.imm ~d:(i mod 6)))
          ~epilogue:(List.init epi (fun i -> Tracegen.fadd ~d:(i mod 6) ~a:1 ~b:2))
          ~periods ~stride body)
      body_gen
      (pair (int_range 8 60) (oneofl [ 0; 0; 1; 3; 8 ]))
      (pair (int_range 0 6) (int_range 0 5)))

let arbitrary_loop =
  QCheck.make
    ~print:(fun t ->
      Printf.sprintf "trace of %d entries:\n%s" (Array.length t)
        (String.concat "\n"
           (Array.to_list
              (Array.mapi
                 (fun i (e : Trace.entry) ->
                   Printf.sprintf "  %d: fu=%s kind=%s" i
                     (Mfu_isa.Fu.to_string e.fu)
                     (match e.kind with
                     | Trace.Plain -> "plain"
                     | Trace.Load a -> Printf.sprintf "load %d" a
                     | Trace.Store a -> Printf.sprintf "store %d" a
                     | Trace.Taken_branch -> "taken"
                     | Trace.Untaken_branch -> "untaken"))
                 t))))
    loop_gen

let random_runners =
  (* one or two representatives per simulator family keep the property fast *)
  let config = Config.m11br5 in
  [
    {
      rname = "single:CRAY-like";
      run =
        (fun ?metrics ~accel t ->
          Si.simulate ?metrics ~accel ~config Si.Cray_like t);
    };
    {
      rname = "single:Simple";
      run =
        (fun ?metrics ~accel t -> Si.simulate ?metrics ~accel ~config Si.Simple t);
    };
    {
      rname = "dep:Scoreboard";
      run =
        (fun ?metrics ~accel t ->
          Dep.simulate ?metrics ~accel ~config Dep.Scoreboard t);
    };
    {
      rname = "dep:Tomasulo";
      run =
        (fun ?metrics ~accel t ->
          Dep.simulate ?metrics ~accel ~config Dep.Tomasulo t);
    };
    {
      rname = "buffer:ooo/8/nbus/dynamic";
      run =
        (fun ?metrics ~accel t ->
          Bi.simulate ?metrics ~accel ~config ~policy:Bi.Out_of_order
            ~stations:8 ~bus:Sim_types.N_bus t);
    };
    {
      rname = "buffer:inorder/8/xbar/static";
      run =
        (fun ?metrics ~accel t ->
          Bi.simulate ?metrics ~alignment:Bi.Static ~accel ~config
            ~policy:Bi.In_order ~stations:8 ~bus:Sim_types.X_bar t);
    };
    {
      rname = "ruu:16/4/nbus/stall";
      run =
        (fun ?metrics ~accel t ->
          Ruu.simulate ?metrics ~accel ~config ~issue_units:4 ~ruu_size:16
            ~bus:Sim_types.N_bus t);
    };
    {
      rname = "ruu:16/4/nbus/bimodal16";
      run =
        (fun ?metrics ~accel t ->
          Ruu.simulate ?metrics ~branches:(Ruu.Bimodal 16) ~accel ~config
            ~issue_units:4 ~ruu_size:16 ~bus:Sim_types.N_bus t);
    };
    {
      rname = "limits:critical-path";
      run =
        (fun ?metrics ~accel t ->
          {
            Sim_types.cycles = Limits.critical_path ?metrics ~accel ~config t;
            instructions = Array.length t;
          });
    };
  ]

let test_random_loops =
  QCheck.Test.make ~name:"accelerated == full on random loop traces"
    ~count:60 arbitrary_loop (fun trace ->
      List.iter
        (fun r -> check_differential ~ctx:"random loop" r trace)
        random_runners;
      true)

(* The narrowest and the widest RUU the sweeps reach — one unit with a
   one-entry window on a single bus, sixteen units with a 64-entry
   window on a crossbar — fingerprint very different machine states;
   both must telescope exactly. *)
let test_random_ruu_extremes =
  QCheck.Test.make ~name:"RUU 1-unit and 16-unit extremes: accelerated == full"
    ~count:30 arbitrary_loop (fun trace ->
      let config = Config.m11br5 in
      List.iter
        (fun (rname, issue_units, ruu_size, bus) ->
          check_differential ~ctx:"random loop"
            {
              rname;
              run =
                (fun ?metrics ~accel t ->
                  Ruu.simulate ?metrics ~accel ~config ~issue_units ~ruu_size
                    ~bus t);
            }
            trace)
        [
          ("ruu:1/1/1bus/stall", 1, 1, Sim_types.One_bus);
          ("ruu:64/16/xbar/stall", 16, 64, Sim_types.X_bar);
        ];
      true)

let () =
  Alcotest.run "steady"
    [
      ( "period",
        [
          Alcotest.test_case "found" `Quick test_period_found;
          Alcotest.test_case "zero stride" `Quick test_period_zero_stride;
          Alcotest.test_case "none" `Quick test_period_none;
          Alcotest.test_case "mixed strides" `Quick
            test_period_mixed_stride_rejected;
        ] );
      ( "differential",
        [
          Alcotest.test_case "synthetic" `Quick test_differential_synthetic;
          Alcotest.test_case "livermore" `Slow test_differential_livermore;
        ] );
      ( "engagement",
        [
          Alcotest.test_case "all five simulators" `Quick
            test_telescoping_engages_everywhere;
          Alcotest.test_case "instruction count" `Quick
            test_instructions_preserved;
          Alcotest.test_case "every configuration" `Quick
            test_every_configuration_telescopes;
        ] );
      ( "random",
        [
          QCheck_alcotest.to_alcotest ~long:false test_random_loops;
          QCheck_alcotest.to_alcotest ~long:false test_random_ruu_extremes;
        ] );
    ]

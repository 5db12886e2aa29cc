(* Exact steady-state fast-forward ({!Mfu_sim.Steady}): the accelerated
   default path must be bit-identical — cycles, instruction counts, and
   every metrics counter — to the un-accelerated packed fast path (and,
   transitively via test_packed, to the [Mfu_oracle] walkers), on
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

let first_region p =
  match Packed.regions p with [] -> None | pd :: _ -> Some pd

let test_period_found () =
  let t =
    loop_trace ~prologue:prologue3 ~epilogue:epilogue2 ~periods:50 ~stride:8
      strided_body
  in
  match first_region (Packed.of_trace t) with
  | None -> Alcotest.fail "no period found on a periodic trace"
  | Some p ->
      Alcotest.(check int) "period length" 5 p.Packed.p_len;
      Alcotest.(check int) "stride" 8 p.Packed.p_stride;
      (* the region starts after the first backedge: one period is warm-up *)
      Alcotest.(check int) "start" 8 p.Packed.p_start;
      Alcotest.(check bool) "periods" true (p.Packed.p_periods >= 48)

let test_period_zero_stride () =
  let t = loop_trace ~periods:30 ~stride:0 recurrence_body in
  match first_region (Packed.of_trace t) with
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
  (match first_region (Packed.of_trace irregular) with
  | None -> ()
  | Some _ -> Alcotest.fail "found a period in an aperiodic trace");
  (* short traces are rejected outright *)
  match first_region (Packed.of_trace (Tracegen.of_list [])) with
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
  match first_region (Packed.of_trace t) with
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
      (* short periodic region: a period or two to skip at most *)
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

(* The RUU fingerprint keeps the ring head only modulo g — the issue
   width on N_bus when it divides the RUU size S, S for other N_bus
   machines, 1 on One_bus and X_bar, whose dispatch banks ignore the
   slot — so boundaries j < k can only match when (k - j) * q is a
   multiple of g, where q is the period's non-branch entry count: the
   earliest repeat is c = g / gcd(q, g) periods in. When even that
   repeat cannot fit — fewer than c periods left after boundary c and
   the lookahead margin — the run is gated (simulated unprobed); either
   way it matches the unaccelerated run. LL9 at S = 50 on 4 units with
   N_bus (4 does not divide 50, so g = 50) has c = 50 in 62 periods:
   gated. LL1 at S = 50 has c = 25 in 98 periods, so it is probed, but
   its state first repeats 75 periods apart (boundaries 3 and 78), past
   the probe budget and too late to skip anything: it falls back. *)
type outcome = Gated | Fallback | Telescoped

let test_ruu_ring_gate () =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  List.iter
    (fun (loop, ruu_size, bus, c_expected, outcome) ->
      let trace = Livermore.trace (Livermore.loop loop) in
      let p = Packed.relabel (Packed.cached trace) ~horizon:ruu_size in
      let pd = Option.get (first_region p) in
      let q = ref 0 in
      for i = pd.Packed.p_start to pd.Packed.p_start + pd.Packed.p_len - 1 do
        if not (Packed.is_branch p i) then incr q
      done;
      let issue_units = 4 in
      let g =
        match bus with
        | Sim_types.N_bus ->
            if ruu_size mod issue_units = 0 then issue_units else ruu_size
        | Sim_types.One_bus | Sim_types.X_bar -> 1
      in
      let where =
        Printf.sprintf "LL%d at S = %d, %s" loop ruu_size
          (Sim_types.bus_model_to_string bus)
      in
      Alcotest.(check int) (where ^ ": earliest repeat") c_expected
        (g / gcd !q g);
      let run accel =
        Ruu.simulate ~accel ~config:Config.m11br5 ~issue_units ~ruu_size ~bus
          trace
      in
      Steady.reset_stats ();
      let fast = run true in
      let s = Steady.stats () in
      let counts o = Bool.to_int (outcome = o) in
      Alcotest.(check int) (where ^ ": gated") (counts Gated) s.Steady.gated;
      Alcotest.(check int)
        (where ^ ": fallback") (counts Fallback) s.Steady.fallback;
      Alcotest.(check int)
        (where ^ ": telescoped")
        (counts Telescoped) s.Steady.telescoped;
      if fast <> run false then
        Alcotest.failf "%s: accelerated run differs from full run" where)
    [
      (1, 50, Sim_types.N_bus, 25, Fallback);
      (1, 100, Sim_types.N_bus, 2, Telescoped);
      (1, 50, Sim_types.One_bus, 1, Telescoped);
      (1, 10, Sim_types.N_bus, 5, Telescoped);
      (9, 50, Sim_types.N_bus, 50, Gated);
      (3, 100, Sim_types.N_bus, 2, Telescoped);
      (12, 10, Sim_types.N_bus, 2, Telescoped);
    ]

(* A jump costs only its detection, so a periodic region telescopes
   however little of the trace it covers. *)
let first_region_under_half packed =
  match first_region packed with
  | None -> false
  | Some pd ->
      2 * pd.Packed.p_len * pd.Packed.p_periods < Packed.length packed

(* LL4 (a few outer passes around one inner loop), LL8 (two passes of
   one body) and LL14 (three loops in sequence): after relabelling, the
   first periodic region covers under half the trace, and more regions
   follow it. At a Table 7 point (S = 40, 4 units, N_bus, M11BR5) every
   region whose repeat can fit telescopes, and each run equals the full
   walk and the oracle, on cycles and metrics. *)
let test_short_region_ruu () =
  let config = Config.m11br5
  and issue_units = 4
  and ruu_size = 40
  and bus = Sim_types.N_bus in
  List.iter
    (fun loop ->
      let where = Printf.sprintf "LL%d" loop in
      let trace = Livermore.trace (Livermore.loop loop) in
      let packed = Packed.relabel (Packed.cached trace) ~horizon:ruu_size in
      Alcotest.(check bool)
        (where ^ ": first region under half the trace")
        true
        (first_region_under_half packed);
      let regions = List.length (Packed.regions packed) in
      Alcotest.(check bool) (where ^ ": several regions") true (regions >= 2);
      let run ?metrics accel =
        Ruu.simulate ?metrics ~accel ~config ~issue_units ~ruu_size ~bus trace
      in
      Steady.reset_stats ();
      let fast = run true in
      let s = Steady.stats () in
      Alcotest.(check int) (where ^ ": fallback") 0 s.Steady.fallback;
      Alcotest.(check int)
        (where ^ ": telescoped") (regions - s.Steady.gated) s.Steady.telescoped;
      let ma = Metrics.create ()
      and mf = Metrics.create ()
      and mo = Metrics.create () in
      let oracle =
        Mfu_oracle.Ruu.simulate ~metrics:mo ~config ~issue_units ~ruu_size
          ~bus trace
      in
      List.iter
        (fun (what, r) ->
          if r <> oracle then
            Alcotest.failf "%s: %s %d cycles, oracle %d" where what
              r.Sim_types.cycles oracle.Sim_types.cycles)
        [
          ("accelerated", fast);
          ("full", run false);
          ("accelerated with metrics", run ~metrics:ma true);
          ("full with metrics", run ~metrics:mf false);
        ];
      if not (Metrics.equal mo ma && Metrics.equal mo mf) then
        Alcotest.failf "%s: metrics differ from the oracle's" where)
    [ 4; 8; 14 ]

(* Counted loops in sequence, each with its own static indices. *)
let loops_in_sequence loops =
  Array.concat
    (List.mapi
       (fun k t ->
         Array.map
           (fun (e : Trace.entry) ->
             { e with Trace.static_index = e.Trace.static_index + (100 * k) })
           t)
       loops)

(* Every family but the instruction-buffer machine (run below at every
   station count instead) and the bimodal RUU, which falls back. *)
let families config =
  let buffers =
    List.concat_map
      (fun stations ->
        List.concat_map
          (fun (pn, policy) ->
            List.map
              (fun alignment ->
                {
                  rname =
                    Printf.sprintf "buffer:%s/%d/%s" pn stations
                      (Bi.alignment_to_string alignment);
                  run =
                    (fun ?metrics ~accel t ->
                      Bi.simulate ?metrics ~alignment ~accel ~config ~policy
                        ~stations ~bus:Sim_types.N_bus t);
                })
              [ Bi.Dynamic; Bi.Static ])
          [ ("inorder", Bi.In_order); ("ooo", Bi.Out_of_order) ])
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  List.filter
    (fun r ->
      not
        (String.starts_with ~prefix:(Config.name config ^ "/buffer:") r.rname
        || String.ends_with ~suffix:"bimodal16" r.rname))
    (runners config)
  @ buffers

(* Run every family on [trace], check it against its full walk and its
   [Steady.stats] against [expected rname]. *)
let check_families ~ctx ~expected trace =
  List.iter
    (fun r ->
      Steady.reset_stats ();
      ignore (r.run ~accel:true trace);
      let s = Steady.stats () in
      let tele, fallback = expected r.rname in
      if s.Steady.telescoped <> tele || s.Steady.fallback <> fallback then
        Alcotest.failf "%s on %s: expected telescoped %d, fallback %d (%s)"
          r.rname ctx tele fallback (Steady.stats_summary s);
      check_differential ~ctx r trace)
    (families Config.m11br5)

(* Two counted loops in sequence: a register-only loop of 30 periods,
   then a strided one of 60. The first region covers under half the
   trace, and both regions telescope in every family except the limits
   walk, whose store-token table grows through the strided loop's stores
   and never repeats there (it falls back on that region). *)
let test_short_region_every_family () =
  let trace =
    loops_in_sequence
      [
        loop_trace ~prologue:prologue3 ~periods:30 ~stride:0 regonly_body;
        loop_trace ~epilogue:epilogue2 ~periods:60 ~stride:8 strided_body;
      ]
  in
  Alcotest.(check bool)
    "first region under half the trace" true
    (first_region_under_half (Packed.of_trace trace));
  Alcotest.(check int)
    "regions" 2
    (List.length (Packed.regions (Packed.of_trace trace)));
  check_families ~ctx:"two loops" trace ~expected:(fun rname ->
      if String.ends_with ~suffix:"limits:critical-path" rname then (1, 1)
      else (2, 0))

(* Three counted loops in sequence, with strides 8, -3 and 0: every
   family telescopes all three regions. Each jump lowers later addresses
   by its own shift, so the walker's bias after the second and third
   jumps is a sum. *)
let test_three_loops_every_family () =
  let loads_body =
    [
      Tracegen.load ~d:1 ~addr:100;
      Tracegen.fadd ~d:2 ~a:1 ~b:1;
      Tracegen.load ~d:3 ~addr:300;
      Tracegen.fmul ~d:4 ~a:3 ~b:2;
      Tracegen.branch ~taken:true;
    ]
  in
  let trace =
    loops_in_sequence
      [
        loop_trace ~prologue:prologue3 ~periods:40 ~stride:8 loads_body;
        loop_trace ~periods:50 ~stride:(-3)
          (List.map (shift_addr 2000) loads_body);
        loop_trace ~epilogue:epilogue2 ~periods:45 ~stride:0
          [
            Tracegen.imm ~d:1;
            Tracegen.imm ~d:5;
            Tracegen.store ~v:1 ~addr:64;
            Tracegen.load ~d:2 ~addr:80;
            Tracegen.fadd ~d:3 ~a:2 ~b:2;
            Tracegen.branch ~taken:true;
          ];
      ]
  in
  Alcotest.(check int)
    "regions" 3
    (List.length (Packed.regions (Packed.of_trace trace)));
  check_families ~ctx:"three loops" trace ~expected:(fun _ -> (3, 0))

(* A loop whose register recurrence outruns its issue, so that its state
   never repeats under Tomasulo or the dataflow limit, followed right
   after its last period by a register-only loop: the second region
   starts where the first one ends, and the probe must still reach it
   after walking the first one in full. *)
let test_adjacent_regions () =
  let trace =
    loops_in_sequence
      [
        loop_trace ~periods:30 ~stride:8
          [
            Tracegen.load ~d:1 ~addr:100;
            Tracegen.fadd ~d:2 ~a:2 ~b:1;
            Tracegen.fmul ~d:2 ~a:2 ~b:2;
            Tracegen.branch ~taken:true;
          ];
        loop_trace ~epilogue:epilogue2 ~periods:60 ~stride:0 regonly_body;
      ]
  in
  let p = Packed.of_trace trace in
  (match Packed.regions p with
  | [ a; b ] ->
      Alcotest.(check int)
        "second region starts where the first ends"
        (a.Packed.p_start + (a.Packed.p_len * a.Packed.p_periods))
        b.Packed.p_start
  | rs -> Alcotest.failf "%d regions, expected 2" (List.length rs));
  List.iter
    (fun r ->
      Steady.reset_stats ();
      ignore (r.run ~accel:true trace);
      let s = Steady.stats () in
      if s.Steady.telescoped <> 1 || s.Steady.fallback <> 1 then
        Alcotest.failf "%s: expected telescoped 1, fallback 1 (%s)" r.rname
          (Steady.stats_summary s);
      check_differential ~ctx:"adjacent regions" r trace)
    (List.filter
       (fun r ->
         List.mem r.rname
           [ "M11BR5/dep:Tomasulo"; "M11BR5/limits:critical-path" ])
       (runners Config.m11br5))

(* A strided loop, then a memory recurrence whose loads read what the
   previous period stored. The second jump lands with the last stores
   before it still in flight, and the loads after it must find them: so
   the walker has to lower later addresses by the sum of both jumps'
   shifts, not by the second alone. The RUU (on relabelled addresses)
   and the scoreboard (on the originals) telescope both regions and
   equal their full walks and the oracles. *)
let test_bias_accumulates () =
  let loads_body =
    [
      Tracegen.load ~d:1 ~addr:100;
      Tracegen.fadd ~d:2 ~a:1 ~b:1;
      Tracegen.branch ~taken:true;
    ]
  in
  let recurrence =
    [
      Tracegen.load ~d:3 ~addr:5000;
      Tracegen.fadd ~d:4 ~a:3 ~b:3;
      Tracegen.store ~v:4 ~addr:5004;
      Tracegen.branch ~taken:true;
    ]
  in
  let trace =
    loops_in_sequence
      [
        loop_trace ~prologue:prologue3 ~periods:40 ~stride:8 loads_body;
        loop_trace ~epilogue:epilogue2 ~periods:60 ~stride:4 recurrence;
      ]
  in
  let config = Config.m11br5 in
  let cases =
    List.map
      (fun (units, size, bus) ->
        ( Printf.sprintf "RUU %d/%d %s" units size
            (Sim_types.bus_model_to_string bus),
          (fun metrics accel ->
            (Ruu.simulate ?metrics ~accel ~config ~issue_units:units
               ~ruu_size:size ~bus trace)
              .Sim_types.cycles),
          fun metrics ->
            (Mfu_oracle.Ruu.simulate ?metrics ~config ~issue_units:units
               ~ruu_size:size ~bus trace)
              .Sim_types.cycles ))
      [
        (1, 8, Sim_types.N_bus);
        (2, 16, Sim_types.X_bar);
        (4, 40, Sim_types.N_bus);
      ]
    @ [
        ( "scoreboard",
          (fun metrics accel ->
            (Dep.simulate ?metrics ~accel ~config Dep.Scoreboard trace)
              .Sim_types.cycles),
          fun metrics ->
            (Mfu_oracle.Dep_single.simulate ?metrics ~config Dep.Scoreboard
               trace)
              .Sim_types.cycles );
      ]
  in
  List.iter
    (fun (where, run, oracle) ->
      Steady.reset_stats ();
      let fast = run None true in
      Alcotest.(check int)
        (where ^ ": telescoped") 2 (Steady.stats ()).Steady.telescoped;
      let ma = Metrics.create () and mo = Metrics.create () in
      List.iter
        (fun (what, c) ->
          Alcotest.(check int) (where ^ ": " ^ what) (oracle None) c)
        [
          ("accelerated", fast);
          ("full", run None false);
          ("accelerated with metrics", run (Some ma) true);
          ("oracle with metrics", oracle (Some mo));
        ];
      if not (Metrics.equal mo ma) then
        Alcotest.failf "%s: metrics differ from the oracle's" where)
    cases

(* -- dependence relabelling ------------------------------------------------ *)

(* Two accesses to one address share a label when either is a store and
   fewer than [horizon] non-branch entries lie from the first up to the
   second; labels follow chains of such pairs, and a label is the first
   index of its class. *)
let test_relabel_labels () =
  let p =
    Packed.of_trace
      (Tracegen.of_list
         [
           Tracegen.store ~v:1 ~addr:5;
           Tracegen.imm ~d:1;
           Tracegen.load ~d:2 ~addr:5 (* 2 non-branch entries after store 0 *);
           Tracegen.branch ~taken:false;
           Tracegen.store ~v:2 ~addr:5 (* 3 after store 0 *);
           Tracegen.load ~d:3 ~addr:7 (* never stored *);
           Tracegen.load ~d:4 ~addr:5 (* 2 after store 4 *);
         ])
  in
  let check horizon expected =
    Alcotest.(check (list int))
      (Printf.sprintf "horizon %d" horizon)
      expected
      (Array.to_list (Packed.labels p ~horizon))
  in
  check 1 [ 0; -1; 2; -1; 4; 5; 6 ];
  (* store 4 lies one non-branch entry after load 2: write after read *)
  check 2 [ 0; -1; 2; -1; 2; 5; 6 ];
  check 3 [ 0; -1; 0; -1; 0; 5; 0 ];
  check 4 [ 0; -1; 0; -1; 0; 5; 0 ];
  check 100 [ 0; -1; 0; -1; 0; 5; 0 ]

(* A strided load beside a memory accumulator: the original addresses mix
   strides 1 and 0, so no period. The accumulator's load lies 2
   non-branch entries after the previous period's store and 2 before its
   own, and each store 4 after its predecessor. Below horizon 3 every
   label advances by the period length and the relabelled pack is
   periodic; from 3 on the accumulator keeps one label, strides mix
   again, and [relabel] keeps the original pack. Horizons that label
   alike share one pack. *)
let test_relabel_memo () =
  let trace =
    Array.of_list
      (List.concat
         (List.init 40 (fun m ->
              List.mapi with_static
                [
                  Tracegen.load ~d:1 ~addr:(100 + m);
                  Tracegen.load ~d:2 ~addr:7;
                  Tracegen.fadd ~d:2 ~a:1 ~b:2;
                  Tracegen.store ~v:2 ~addr:7;
                  Tracegen.branch ~taken:true;
                ])))
  in
  let p = Packed.of_trace trace in
  let r h = Packed.relabel p ~horizon:h in
  let same what a b = Alcotest.(check bool) what true (a == b) in
  Alcotest.(check bool) "original is aperiodic" true (first_region p = None);
  same "horizons 1 and 2 share a pack" (r 1) (r 2);
  Alcotest.(check bool) "horizons 2 and 3 do not" false (r 2 == r 3);
  Alcotest.(check bool) "horizon 2 is periodic" true
    (first_region (r 2) <> None);
  same "horizon 3 keeps the original" p (r 3);
  same "horizon 5 keeps the original" p (r 5);
  same "horizon 100 keeps the original" p (r 100);
  same "other arrays are shared" p.Packed.fu (r 1).Packed.fu;
  List.iter
    (fun ruu_size ->
      let run accel =
        Ruu.simulate ~accel ~config:Config.m11br5 ~issue_units:1 ~ruu_size
          ~bus:Sim_types.N_bus trace
      in
      if run true <> run false then
        Alcotest.failf "S = %d: accelerated run differs from full run"
          ruu_size)
    [ 2; 3; 4; 5; 6 ]

(* LL13 (2-D particle in cell) gathers and scatters through
   data-dependent indices, so its addresses have no uniform stride; its
   live-store labels do, and the run telescopes exactly. *)
let test_relabel_ll13_telescopes () =
  let trace = Livermore.trace (Livermore.loop 13) in
  let run accel =
    Ruu.simulate ~accel ~config:Config.m11br5 ~issue_units:2 ~ruu_size:50
      ~bus:Sim_types.N_bus trace
  in
  Alcotest.(check bool) "original addresses are aperiodic" true
    (first_region (Packed.cached trace) = None);
  Steady.reset_stats ();
  let fast = run true in
  Alcotest.(check int) "telescoped" 1 (Steady.stats ()).Steady.telescoped;
  if fast <> run false then
    Alcotest.fail "LL13: accelerated run differs from full run"

(* LL13 on the instruction-buffer machine: it runs on addresses
   relabelled over a [stations] horizon, so its gathers and scatters
   telescope under both alignments at every station count, and each run
   equals the full walk. *)
let test_relabel_ll13_buffer () =
  let trace = Livermore.trace (Livermore.loop 13) in
  List.iter
    (fun (stations, alignment, policy) ->
      let where =
        Printf.sprintf "LL13 %s %d %s" (Bi.policy_to_string policy) stations
          (Bi.alignment_to_string alignment)
      in
      let run accel =
        Bi.simulate ~accel ~alignment ~config:Config.m11br5 ~policy ~stations
          ~bus:Sim_types.N_bus trace
      in
      Steady.reset_stats ();
      let fast = run true in
      Alcotest.(check int)
        (where ^ ": telescoped") 1 (Steady.stats ()).Steady.telescoped;
      if fast <> run false then
        Alcotest.failf "%s: accelerated run differs from full run" where)
    (List.concat_map
       (fun stations ->
         List.concat_map
           (fun alignment ->
             List.map
               (fun policy -> (stations, alignment, policy))
               [ Bi.In_order; Bi.Out_of_order ])
           [ Bi.Dynamic; Bi.Static ])
       [ 1; 2; 3; 4; 5; 6; 7; 8 ])

(* The relabelling horizon of the buffer machine rests on its windows
   holding at most [stations] entries. A [Static] window is the run of
   entries from its first one that stays in one block of [stations]
   static positions, up to and including a taken branch; on every
   Livermore loop, from every starting entry, it fits. *)
let test_static_window_bound () =
  List.iter
    (fun (l : Livermore.loop) ->
      let p = Packed.cached (Livermore.trace l) in
      let n = Packed.length p and si = p.Packed.static_index in
      for stations = 1 to 8 do
        for from = 0 to n - 1 do
          let block = si.(from) / stations in
          let rec stop q =
            if q >= n || si.(q) / stations <> block then q
            else if Packed.kind p q = Packed.kind_taken then q + 1
            else stop (q + 1)
          in
          if stop from - from > stations then
            Alcotest.failf "LL%d, %d stations: window at %d holds %d entries"
              l.Livermore.number stations from (stop from - from)
        done
      done)
    (Livermore.all ())

(* Write after read: each period's store reaches the address of the load
   just before it, which waits on a long multiply for its destination
   register. An out-of-order buffer must hold the store back until the
   load has issued, and the memory unit then takes them a cycle apart.
   The loaded addresses grow quadratically beside a strided second
   load, so the original addresses have no period; the labels do, and
   the buffer runs on them. They must keep the store joined to the load
   before it: labelled apart, the store would issue ahead. *)
let test_relabel_war () =
  let trace =
    Array.of_list
      (List.concat
         (List.init 40 (fun m ->
              let x = 1000 + (2 * m * m) in
              List.mapi with_static
                [
                  Tracegen.fmul ~d:1 ~a:3 ~b:3;
                  Tracegen.load ~d:1 ~addr:x;
                  Tracegen.store ~v:2 ~addr:x;
                  Tracegen.load ~d:4 ~addr:(50_000 + (5 * m));
                  Tracegen.branch ~taken:true;
                ])))
  in
  let p = Packed.cached trace in
  Alcotest.(check int) "original addresses are aperiodic" 0
    (List.length (Packed.regions p));
  List.iter
    (fun (stations, alignment) ->
      let where =
        Printf.sprintf "%d stations, %s" stations
          (Bi.alignment_to_string alignment)
      in
      Alcotest.(check bool)
        (where ^ ": runs relabelled")
        false
        (Packed.relabel p ~horizon:stations == p);
      let config = Config.m11br5 and policy = Bi.Out_of_order in
      let mo = Metrics.create () and ma = Metrics.create () in
      let oracle =
        Mfu_oracle.Buffer_issue.simulate ~metrics:mo ~alignment ~config
          ~policy ~stations ~bus:Sim_types.N_bus trace
      in
      Steady.reset_stats ();
      let fast =
        Bi.simulate ~metrics:ma ~alignment ~config ~policy ~stations
          ~bus:Sim_types.N_bus trace
      in
      Alcotest.(check int)
        (where ^ ": telescoped") 1 (Steady.stats ()).Steady.telescoped;
      if fast <> oracle then
        Alcotest.failf "%s: accelerated %d cycles, oracle %d" where
          fast.Sim_types.cycles oracle.Sim_types.cycles;
      if not (Metrics.equal mo ma) then
        Alcotest.failf "%s: metrics differ from the oracle's" where)
    [ (4, Bi.Dynamic); (8, Bi.Dynamic); (8, Bi.Static) ]

(* Non-branch distances from each store to the next access of its
   address, as the relabelling measures them. *)
let store_distances (t : Trace.t) =
  let last = Hashtbl.create 8 and nb = ref 0 and ds = ref [] in
  Array.iter
    (fun (e : Trace.entry) ->
      (match e.kind with
      | Trace.Load a | Trace.Store a ->
          (match Hashtbl.find_opt last a with
          | Some nj -> ds := (!nb - nj) :: !ds
          | None -> ());
          (match e.kind with
          | Trace.Store _ -> Hashtbl.replace last a !nb
          | _ -> ())
      | _ -> ());
      if not (Trace.is_branch e) then incr nb)
    t;
  List.sort_uniq compare !ds

(* Loop traces whose memory entries share a small address pool: each
   access either keeps one pool address every period or draws a fresh
   one per period (a data-dependent gather or scatter). *)
let pool_loop_gen =
  let open QCheck.Gen in
  let sreg = int_range 0 5 in
  pair (int_range 1 5) (int_range 6 24) >>= fun (pool, periods) ->
  let access = pair bool (int_range 0 (pool - 1)) in
  let op =
    frequency
      [
        (3, map3 (fun d a b -> `Op (Tracegen.fadd ~d ~a ~b)) sreg sreg sreg);
        (1, map (fun d -> `Op (Tracegen.imm ~d)) sreg);
        (2, map2 (fun d m -> `Load (d, m)) sreg access);
        (2, map2 (fun v m -> `Store (v, m)) sreg access);
        (1, return (`Op (Tracegen.branch ~taken:false)));
      ]
  in
  list_size (int_range 1 7) op >>= fun body ->
  list_repeat periods (list_repeat (List.length body) (int_range 0 (pool - 1)))
  >>= fun draws ->
  let addr (fixed, a) draw = 100 + if fixed then a else draw in
  let period draws =
    List.mapi with_static
      (List.map2
         (fun op draw ->
           match op with
           | `Op e -> e
           | `Load (d, m) -> Tracegen.load ~d ~addr:(addr m draw)
           | `Store (v, m) -> Tracegen.store ~v ~addr:(addr m draw))
         body draws
      @ [ Tracegen.branch ~taken:true ])
  in
  return (Array.of_list (List.concat_map period draws))

(* For a store-to-access distance d found in the trace, RUU sizes d and
   d + 1 put the store just outside and just inside the window. The
   accelerated walker (relabelled addresses) must equal the unaccelerated
   one and the oracle (original addresses) everywhere. *)
let test_relabel_random =
  QCheck.Test.make
    ~name:"RUU relabelled == original addresses on pooled-address loops"
    ~count:40
    (QCheck.make
       ~print:(fun t -> Printf.sprintf "trace of %d entries" (Array.length t))
       pool_loop_gen)
    (fun trace ->
      let config = Config.m11br5 in
      let sizes =
        match store_distances trace with
        | [] -> [ 1; 2 ]
        | d :: rest ->
            let far = List.fold_left max d rest in
            List.sort_uniq compare [ d; d + 1; min far 20; min far 20 + 1 ]
      in
      List.iter
        (fun ruu_size ->
          List.iter
            (fun issue_units ->
              List.iter
                (fun bus ->
                  List.iter
                    (fun branches ->
                      let where =
                        Printf.sprintf "S=%d units=%d %s %s" ruu_size
                          issue_units
                          (Sim_types.bus_model_to_string bus)
                          (Ruu.branch_handling_to_string branches)
                      in
                      let run ?metrics accel =
                        Ruu.simulate ?metrics ~branches ~accel ~config
                          ~issue_units ~ruu_size ~bus trace
                      in
                      let mo = Metrics.create ()
                      and ma = Metrics.create ()
                      and mf = Metrics.create () in
                      let oracle =
                        Mfu_oracle.Ruu.simulate ~branches ~config ~issue_units
                          ~ruu_size ~bus trace
                      in
                      let oracle_m =
                        Mfu_oracle.Ruu.simulate ~metrics:mo ~branches ~config
                          ~issue_units ~ruu_size ~bus trace
                      in
                      let results =
                        [
                          run true;
                          run false;
                          run ~metrics:ma true;
                          run ~metrics:mf false;
                          oracle_m;
                        ]
                      in
                      if List.exists (fun r -> r <> oracle) results then
                        Alcotest.failf "%s: cycles differ" where;
                      if not (Metrics.equal mo ma && Metrics.equal mo mf) then
                        Alcotest.failf "%s: metrics differ" where)
                    [ Ruu.Stall; Ruu.Oracle; Ruu.Static_taken; Ruu.Bimodal 4 ])
                [ Sim_types.N_bus; Sim_types.One_bus; Sim_types.X_bar ])
            (List.filter (fun u -> u <= ruu_size) [ 1; 2; 3 ]))
        sizes;
      true)

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
          Alcotest.test_case "RUU ring-position gate" `Quick test_ruu_ring_gate;
          Alcotest.test_case "instruction count" `Quick
            test_instructions_preserved;
          Alcotest.test_case "every configuration" `Quick
            test_every_configuration_telescopes;
          Alcotest.test_case "short region: LL4, LL8, LL14" `Quick
            test_short_region_ruu;
          Alcotest.test_case "short region: every family" `Quick
            test_short_region_every_family;
          Alcotest.test_case "three loops: every family" `Quick
            test_three_loops_every_family;
          Alcotest.test_case "bias accumulates across jumps" `Quick
            test_bias_accumulates;
          Alcotest.test_case "adjacent regions" `Quick test_adjacent_regions;
        ] );
      ( "relabel",
        [
          Alcotest.test_case "labels" `Quick test_relabel_labels;
          Alcotest.test_case "memo and fallback" `Quick test_relabel_memo;
          Alcotest.test_case "LL13 telescopes" `Quick
            test_relabel_ll13_telescopes;
          Alcotest.test_case "LL13 telescopes on the buffer" `Quick
            test_relabel_ll13_buffer;
          Alcotest.test_case "static window bound" `Quick
            test_static_window_bound;
          Alcotest.test_case "write after read" `Quick test_relabel_war;
          QCheck_alcotest.to_alcotest ~long:false test_relabel_random;
        ] );
      ( "random",
        [
          QCheck_alcotest.to_alcotest ~long:false test_random_loops;
          QCheck_alcotest.to_alcotest ~long:false test_random_ruu_extremes;
        ] );
    ]

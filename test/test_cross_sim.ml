(* Cross-model invariants on randomly generated traces: properties that
   must hold for ANY dynamic instruction stream, not just the Livermore
   loops. *)

module Reg = Mfu_isa.Reg
module Fu = Mfu_isa.Fu
module Config = Mfu_isa.Config
module Trace = Mfu_exec.Trace
module Si = Mfu_sim.Single_issue
module Bi = Mfu_sim.Buffer_issue
module Ruu = Mfu_sim.Ruu
module Dep = Mfu_sim.Dep_single
module Sim_types = Mfu_sim.Sim_types
module Limits = Mfu_limits.Limits

let cfg = Config.m11br5

(* -- random trace generator ------------------------------------------------ *)

let entry_gen =
  let open QCheck.Gen in
  let sreg = map (fun i -> Reg.S i) (int_range 0 7) in
  let areg = map (fun i -> Reg.A i) (int_range 0 7) in
  let addr = int_range 0 31 in
  let scalar_op fu =
    map3
      (fun d a b ->
        Tracegen.entry ~dest:d ~srcs:[ a; b ] fu)
      sreg sreg sreg
  in
  frequency
    [
      (3, scalar_op Fu.Float_add);
      (3, scalar_op Fu.Float_multiply);
      (2, scalar_op Fu.Scalar_logical);
      (2, scalar_op Fu.Address_add);
      (3, map2 (fun d a -> Tracegen.entry ~dest:d ~srcs:[ Reg.A 1 ] ~parcels:2 ~kind:(Trace.Load a) Fu.Memory) sreg addr);
      (2, map2 (fun v a -> Tracegen.entry ~srcs:[ v; Reg.A 1 ] ~parcels:2 ~kind:(Trace.Store a) Fu.Memory) sreg addr);
      (3, map (fun d -> Tracegen.entry ~dest:d Fu.Transfer) sreg);
      (1, map (fun d -> Tracegen.entry ~dest:d ~srcs:[ Reg.A 2 ] Fu.Address_multiply) areg);
      (1, map (fun taken -> Tracegen.branch ~taken) bool);
    ]

let trace_gen =
  QCheck.Gen.(map Array.of_list (list_size (int_range 5 60) entry_gen))

let arb_trace =
  QCheck.make
    ~print:(fun t ->
      String.concat "\n"
        (Array.to_list
           (Array.map (Format.asprintf "%a" Trace.pp_entry) t)))
    trace_gen

let rate f t = Sim_types.issue_rate (f t)
let cray t = (Si.simulate ~config:cfg Si.Cray_like t : Sim_types.result)

let prop_single_issue_ordering =
  QCheck.Test.make ~name:"Simple <= SerialMemory <= NonSegmented <= CRAY-like"
    ~count:300 arb_trace (fun t ->
      let r org = rate (Si.simulate ~config:cfg org) t in
      r Si.Simple <= r Si.Serial_memory +. 1e-9
      && r Si.Serial_memory <= r Si.Non_segmented +. 1e-9
      && r Si.Non_segmented <= r Si.Cray_like +. 1e-9)

let prop_single_issue_rate_at_most_one =
  QCheck.Test.make ~name:"single issue rate <= 1" ~count:300 arb_trace
    (fun t -> rate (Si.simulate ~config:cfg Si.Cray_like) t <= 1.0 +. 1e-9)

let prop_counts_preserved =
  QCheck.Test.make ~name:"all simulators issue every instruction" ~count:200
    arb_trace (fun t ->
      let n = Array.length t in
      List.for_all
        (fun r -> (r : Sim_types.result).Sim_types.instructions = n)
        [
          cray t;
          Bi.simulate ~config:cfg ~policy:Bi.In_order ~stations:4
            ~bus:Sim_types.N_bus t;
          Bi.simulate ~config:cfg ~policy:Bi.Out_of_order ~stations:4
            ~bus:Sim_types.N_bus t;
          Ruu.simulate ~config:cfg ~issue_units:4 ~ruu_size:20
            ~bus:Sim_types.N_bus t;
          Dep.simulate ~config:cfg Dep.Tomasulo t;
        ])

let prop_limits_dominate =
  QCheck.Test.make ~name:"no machine beats the pure limits" ~count:200
    arb_trace (fun t ->
      QCheck.assume (Array.length t > 0);
      let lim = Limits.actual (Limits.analyze ~config:cfg t) in
      let machines =
        [
          rate (Si.simulate ~config:cfg Si.Cray_like) t;
          rate (Ruu.simulate ~config:cfg ~issue_units:4 ~ruu_size:100 ~bus:Sim_types.N_bus) t;
          rate (Dep.simulate ~config:cfg Dep.Tomasulo) t;
          rate
            (Bi.simulate ~config:cfg ~policy:Bi.Out_of_order ~stations:8
               ~bus:Sim_types.N_bus)
            t;
        ]
      in
      List.for_all (fun r -> r <= lim +. 0.02) machines)

let prop_serial_limit_below_pure =
  QCheck.Test.make ~name:"serial limit <= pure limit" ~count:300 arb_trace
    (fun t ->
      QCheck.assume (Array.length t > 0);
      let lim = Limits.analyze ~config:cfg t in
      lim.Limits.serial_dataflow <= lim.Limits.pseudo_dataflow +. 1e-9)

let prop_buffer_ooo_not_much_worse =
  (* Greedy out-of-order issue suffers classic scheduling anomalies on
     adversarial streams (a younger instruction can steal the unit or bus
     slot the critical chain needed), so OOO is NOT always >= in-order.
     The anomaly is bounded, Graham-style: we assert a factor-2 bound. *)
  QCheck.Test.make ~name:"OOO within 2x of in-order (anomaly bound)" ~count:200
    arb_trace (fun t ->
      QCheck.assume (Array.length t > 0);
      let r policy =
        rate (Bi.simulate ~config:cfg ~policy ~stations:4 ~bus:Sim_types.N_bus) t
      in
      r Bi.Out_of_order >= r Bi.In_order *. 0.5)

let prop_faster_config_not_slower =
  QCheck.Test.make ~name:"M5BR2 >= M11BR5 everywhere" ~count:200 arb_trace
    (fun t ->
      QCheck.assume (Array.length t > 0);
      rate (Si.simulate ~config:Config.m5br2 Si.Cray_like) t
      >= rate (Si.simulate ~config:Config.m11br5 Si.Cray_like) t -. 1e-9)

let prop_trace_io_roundtrip =
  QCheck.Test.make ~name:"trace serialization roundtrips" ~count:300 arb_trace
    (fun t ->
      match Mfu_exec.Trace_io.of_string (Mfu_exec.Trace_io.to_string t) with
      | Ok t' -> t' = t
      | Error _ -> false)

let prop_one_station_policy_equivalence =
  (* Differential: with a single reservation station the out-of-order window
     holds one instruction, so out-of-order issue degenerates to exactly the
     in-order machine — full result equality, not just the rate. *)
  QCheck.Test.make ~name:"1 station: out-of-order == in-order" ~count:300
    arb_trace (fun t ->
      List.for_all
        (fun bus ->
          Bi.simulate ~config:cfg ~policy:Bi.Out_of_order ~stations:1 ~bus t
          = Bi.simulate ~config:cfg ~policy:Bi.In_order ~stations:1 ~bus t)
        [ Sim_types.N_bus; Sim_types.One_bus; Sim_types.X_bar ])

let prop_deterministic =
  QCheck.Test.make ~name:"simulators are deterministic" ~count:100 arb_trace
    (fun t ->
      let a = Ruu.simulate ~config:cfg ~issue_units:3 ~ruu_size:15 ~bus:Sim_types.One_bus t in
      let b = Ruu.simulate ~config:cfg ~issue_units:3 ~ruu_size:15 ~bus:Sim_types.One_bus t in
      a = b)

(* -- one-unit bus equivalence ------------------------------------------------ *)

(* With one issue unit the RUU has one bank, a dispatch and return budget
   of 1 and a rotation of 1, so the three bus models are the same
   machine: the same cycles and the same stall metrics on each. Every
   Livermore loop runs at sizes 1, 3, 10 and 64, the branch policy and
   the configuration rotating with the loop and the size, so that each
   loop meets all four policies and both configurations, and each size
   both configurations, within the 0.2 s this case may take. *)
let test_one_unit_buses_agree () =
  let module L = Mfu_loops.Livermore in
  let run ~config ~branches ~ruu_size bus trace =
    let metrics = Sim_types.Metrics.create () in
    let r =
      Ruu.simulate ~metrics ~branches ~config ~issue_units:1 ~ruu_size ~bus
        trace
    in
    (r, metrics)
  in
  let policies = Ruu.[| Stall; Oracle; Static_taken; Bimodal 16 |] in
  let configs = [| Config.m11br5; Config.m5br2 |] in
  List.iteri
    (fun i l ->
      let trace = L.trace l in
      List.iter
        (fun (config, branches, ruu_size) ->
          let r, m = run ~config ~branches ~ruu_size Sim_types.N_bus trace in
          List.iter
            (fun bus ->
              let r', m' = run ~config ~branches ~ruu_size bus trace in
              let what =
                Printf.sprintf "LL%d %s %s size %d: %s" l.L.number
                  (Config.name config)
                  (Ruu.branch_handling_to_string branches)
                  ruu_size
                  (if bus = Sim_types.One_bus then "1-bus" else "crossbar")
              in
              Alcotest.(check int) (what ^ " cycles") r.Sim_types.cycles
                r'.Sim_types.cycles;
              Alcotest.(check bool) (what ^ " metrics") true
                (Sim_types.Metrics.equal m m'))
            [ Sim_types.One_bus; Sim_types.X_bar ])
        (List.mapi
           (fun j ruu_size ->
             ( configs.(((i / 4) + j) mod 2),
               policies.((i + j) mod 4),
               ruu_size ))
           [ 1; 3; 10; 64 ]))
    (L.all ())

(* -- trace cache identity --------------------------------------------------- *)

let test_trace_cache_physical_equality () =
  let module L = Mfu_loops.Livermore in
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "loop %d trace physically equal" l.L.number)
        true
        (L.trace l == L.trace l);
      Alcotest.(check bool)
        (Printf.sprintf "loop %d scheduled trace physically equal" l.L.number)
        true
        (L.scheduled_trace l == L.scheduled_trace l))
    [ L.loop 1; L.loop 5; L.loop 13 ];
  (* Repeated lookups are pure cache hits: entry count must not grow. *)
  let before = (Mfu_loops.Trace_cache.stats ()).Mfu_loops.Trace_cache.entries in
  ignore (L.trace (L.loop 1));
  ignore (L.scheduled_trace (L.loop 5));
  let after = (Mfu_loops.Trace_cache.stats ()).Mfu_loops.Trace_cache.entries in
  Alcotest.(check int) "no new entries on repeated lookups" before after

let () =
  Alcotest.run "cross_sim"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_single_issue_ordering;
            prop_single_issue_rate_at_most_one;
            prop_counts_preserved;
            prop_limits_dominate;
            prop_serial_limit_below_pure;
            prop_buffer_ooo_not_much_worse;
            prop_one_station_policy_equivalence;
            prop_faster_config_not_slower;
            prop_trace_io_roundtrip;
            prop_deterministic;
          ] );
      ( "one issue unit",
        [
          Alcotest.test_case "bus models agree" `Quick
            test_one_unit_buses_agree;
        ] );
      ( "trace cache",
        [
          Alcotest.test_case "physically equal across lookups" `Quick
            test_trace_cache_physical_equality;
        ] );
    ]

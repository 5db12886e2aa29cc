module Limits = Mfu_limits.Limits
module Config = Mfu_isa.Config
module Reg = Mfu_isa.Reg
module Fu = Mfu_isa.Fu
module T = Tracegen

let cfg = Config.m11br5

let path t = Limits.critical_path ~config:cfg t

let test_dependent_chain () =
  (* n chained floating adds: critical path = 6n *)
  let chain n =
    T.of_list
      (List.init n (fun _ -> T.fadd ~d:1 ~a:1 ~b:1))
  in
  Alcotest.(check int) "chain of 4" 24 (path (chain 4));
  let lim = Limits.analyze ~config:cfg (chain 4) in
  Alcotest.(check (float 1e-9)) "rate = n / 6n" (4.0 /. 24.0)
    lim.Limits.pseudo_dataflow

let test_independent_ops () =
  (* independent adds all start at cycle 0 in pure dataflow *)
  let t = T.of_list (List.init 8 (fun i -> T.fadd ~d:i ~a:i ~b:i)) in
  Alcotest.(check int) "path = 6" 6 (path t)

let test_branch_gates_iterations () =
  let t = T.of_list [ T.branch ~taken:true; T.fadd ~d:1 ~a:2 ~b:3 ] in
  (* branch resolves at 5; the add runs 5..11 *)
  Alcotest.(check int) "gated" 11 (path t)

let test_store_load_forwarding () =
  let t =
    T.of_list
      [ T.store ~v:1 ~addr:5; T.load ~d:2 ~addr:5; T.fadd ~d:3 ~a:2 ~b:2 ]
  in
  (* store token at 1, forwarded load completes at 2, add at 8; the
     critical path is the store's own memory write finishing at 11 --
     without forwarding the add alone would finish at 11+11+6 = 28 *)
  Alcotest.(check int) "forwarded" 11 (path t);
  (* a load from untouched memory pays the full latency *)
  let t2 = T.of_list [ T.load ~d:2 ~addr:9; T.fadd ~d:3 ~a:2 ~b:2 ] in
  Alcotest.(check int) "not forwarded" 17 (path t2)

let test_serial_waw_penalty () =
  let t = T.of_list [ T.load ~d:1 ~addr:0; T.imm ~d:1 ] in
  let lim = Limits.analyze ~config:cfg t in
  (* pure: both finish by 11; serial: the transfer must finish at 12 *)
  Alcotest.(check (float 1e-9)) "pure" (2.0 /. 11.0) lim.Limits.pseudo_dataflow;
  Alcotest.(check (float 1e-9)) "serial" (2.0 /. 12.0) lim.Limits.serial_dataflow

let test_serial_readers_see_delay () =
  (* under serial WAW the reader of the delayed value also waits *)
  let t =
    T.of_list [ T.load ~d:1 ~addr:0; T.imm ~d:1; T.fadd ~d:2 ~a:1 ~b:1 ]
  in
  let pure = Limits.critical_path ~config:cfg t in
  let serial_rate = (Limits.analyze ~config:cfg t).Limits.serial_dataflow in
  let serial_path =
    int_of_float (Float.round (3.0 /. serial_rate))
  in
  Alcotest.(check int) "pure path: imm at 1, add 1..7, load 11" 11 pure;
  Alcotest.(check int) "serial path: imm at 12, add at 18" 18 serial_path

let test_resource_limit () =
  (* five loads on the single memory port: the fifth starts at cycle 4
     and completes 11 later *)
  let t = T.of_list (List.init 5 (fun i -> T.load ~d:(i mod 8) ~addr:(8 * i))) in
  let lim = Limits.analyze ~config:cfg t in
  Alcotest.(check (float 1e-9)) "resource" (5.0 /. 15.0) lim.Limits.resource;
  (* with fast memory the bound relaxes *)
  let lim5 = Limits.analyze ~config:Config.m5br5 t in
  Alcotest.(check (float 1e-9)) "resource M5" (5.0 /. 9.0) lim5.Limits.resource

let test_transfers_do_not_bound_resources () =
  (* transfers run on dedicated paths: no resource bound from them *)
  let t = T.of_list (List.init 20 (fun i -> T.imm ~d:(i mod 8))) in
  let lim = Limits.analyze ~config:cfg t in
  Alcotest.(check (float 1e-9)) "no shared unit used" 20.0 lim.Limits.resource

let test_actual_is_min () =
  let t = T.of_list (List.init 5 (fun i -> T.load ~d:(i mod 8) ~addr:(8 * i))) in
  let lim = Limits.analyze ~config:cfg t in
  Alcotest.(check (float 1e-9)) "actual"
    (min lim.Limits.pseudo_dataflow lim.Limits.resource)
    (Limits.actual lim)

let test_empty_trace () =
  let lim = Limits.analyze ~config:cfg [||] in
  Alcotest.(check int) "no instructions" 0 lim.Limits.instructions

let test_loop_invariants () =
  List.iter
    (fun (l : Mfu_loops.Livermore.loop) ->
      let trace = Mfu_loops.Livermore.trace l in
      List.iter
        (fun config ->
          let lim = Limits.analyze ~config trace in
          let name = Printf.sprintf "LL%d/%s" l.number (Config.name config) in
          Alcotest.(check bool) (name ^ " serial <= pure") true
            (lim.Limits.serial_dataflow <= lim.Limits.pseudo_dataflow +. 1e-9);
          Alcotest.(check bool) (name ^ " limits positive") true
            (lim.Limits.pseudo_dataflow > 0.0 && lim.Limits.resource > 0.0);
          Alcotest.(check bool) (name ^ " actual <= both") true
            (Limits.actual lim <= lim.Limits.pseudo_dataflow +. 1e-9
            && Limits.actual lim <= lim.Limits.resource +. 1e-9))
        Config.all)
    (Mfu_loops.Livermore.all ())

let test_limits_dominate_simulators () =
  (* no simulator may beat the pure dataflow/resource limit *)
  List.iter
    (fun (l : Mfu_loops.Livermore.loop) ->
      let trace = Mfu_loops.Livermore.trace l in
      let lim = Limits.analyze ~config:cfg trace in
      let ruu =
        Mfu_sim.Sim_types.issue_rate
          (Mfu_sim.Ruu.simulate ~config:cfg ~issue_units:4 ~ruu_size:100
             ~bus:Mfu_sim.Sim_types.N_bus trace)
      in
      Alcotest.(check bool)
        (Printf.sprintf "LL%d ruu %.3f <= limit %.3f" l.number ruu
           (Limits.actual lim))
        true
        (ruu <= Limits.actual lim +. 0.01))
    (Mfu_loops.Livermore.all ())

(* The paper's limits are sound bounds on every machine, checked apart
   from any differential oracle: no run finishes before its busiest
   functional unit, and no run that does not predict branches finishes
   before the branch-gated critical path. RUU [Oracle] runs may beat that
   path (the pseudo-dataflow limit waits for every branch), so they get
   the resource bound only. One configuration and one bus per loop,
   rotated; every machine with fast-forward on and off. *)
let test_limits_bound_every_machine () =
  let open Mfu_sim in
  let configs = Array.of_list Config.all in
  let buses = Sim_types.[| N_bus; One_bus; X_bar |] in
  List.iter
    (fun (l : Mfu_loops.Livermore.loop) ->
      let trace = Mfu_loops.Livermore.trace l in
      let config = configs.((l.number - 1) mod Array.length configs) in
      let bus = buses.((l.number - 1) mod Array.length buses) in
      let resource = Limits.resource_time ~config trace in
      let path = Limits.critical_path ~config trace in
      let machines =
        List.map
          (fun org ->
            ( Single_issue.organization_to_string org,
              false,
              fun ~accel -> Single_issue.simulate ~accel ~config org trace ))
          Single_issue.all_organizations
        @ List.map
            (fun scheme ->
              ( Dep_single.scheme_to_string scheme,
                false,
                fun ~accel -> Dep_single.simulate ~accel ~config scheme trace
              ))
            [ Dep_single.Scoreboard; Dep_single.Tomasulo ]
        @ List.concat_map
            (fun policy ->
              List.map
                (fun stations ->
                  ( Printf.sprintf "buffer %s/%d"
                      (Buffer_issue.policy_to_string policy)
                      stations,
                    false,
                    fun ~accel ->
                      Buffer_issue.simulate ~accel ~config ~policy ~stations
                        ~bus trace ))
                [ 1; 8 ])
            [ Buffer_issue.In_order; Buffer_issue.Out_of_order ]
        @ List.concat_map
            (fun branches ->
              List.concat_map
                (fun issue_units ->
                  List.map
                    (fun ruu_size ->
                      ( Printf.sprintf "ruu %s %dx%d"
                          (Ruu.branch_handling_to_string branches)
                          issue_units ruu_size,
                        branches <> Ruu.Stall,
                        fun ~accel ->
                          Ruu.simulate ~accel ~branches ~config ~issue_units
                            ~ruu_size ~bus trace ))
                    [ 10; 100 ])
                [ 1; 4 ])
            [ Ruu.Stall; Ruu.Oracle ]
      in
      List.iter
        (fun (name, predicts, run) ->
          List.iter
            (fun accel ->
              let cycles = (run ~accel).Sim_types.cycles in
              let what =
                Printf.sprintf "LL%d/%s %s (accel %b)" l.number
                  (Config.name config) name accel
              in
              if cycles < resource then
                Alcotest.failf "%s: %d cycles, resource time %d" what cycles
                  resource;
              if (not predicts) && cycles < path then
                Alcotest.failf "%s: %d cycles, critical path %d" what cycles
                  path)
            [ true; false ])
        machines)
    (Mfu_loops.Livermore.all ())

let test_branch_time_affects_limit () =
  let trace = Mfu_loops.Livermore.trace (Mfu_loops.Livermore.loop 5) in
  let br5 = (Limits.analyze ~config:Config.m11br5 trace).Limits.pseudo_dataflow in
  let br2 = (Limits.analyze ~config:Config.m11br2 trace).Limits.pseudo_dataflow in
  Alcotest.(check bool) "fast branch raises the limit" true (br2 >= br5)

let () =
  Alcotest.run "limits"
    [
      ( "unit",
        [
          Alcotest.test_case "dependent chain" `Quick test_dependent_chain;
          Alcotest.test_case "independent ops" `Quick test_independent_ops;
          Alcotest.test_case "branch gating" `Quick test_branch_gates_iterations;
          Alcotest.test_case "store->load forwarding" `Quick
            test_store_load_forwarding;
          Alcotest.test_case "serial WAW penalty" `Quick test_serial_waw_penalty;
          Alcotest.test_case "serial reader delay" `Quick
            test_serial_readers_see_delay;
          Alcotest.test_case "resource limit" `Quick test_resource_limit;
          Alcotest.test_case "transfers unbounded" `Quick
            test_transfers_do_not_bound_resources;
          Alcotest.test_case "actual = min" `Quick test_actual_is_min;
          Alcotest.test_case "empty trace" `Quick test_empty_trace;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "invariants" `Slow test_loop_invariants;
          Alcotest.test_case "limits dominate simulators" `Slow
            test_limits_dominate_simulators;
          Alcotest.test_case "limits bound every machine" `Quick
            test_limits_bound_every_machine;
          Alcotest.test_case "branch time matters" `Quick
            test_branch_time_affects_limit;
        ] );
    ]

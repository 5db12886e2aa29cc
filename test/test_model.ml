(* The calibrated queueing surrogate (Mfu_model) and the guided sweep
   built on it.

   Three load-bearing guarantees:
   - round-trip: the model reproduces its own calibration points — every
     anchor it simulated during calibration predicts back within the
     family's committed error bound (the reference and starvation
     corners are exact by construction);
   - monotonicity: predictions never decrease when a machine gains
     issue units, window depth, or interconnect capacity — the property
     the guided sweep's upper confidence bounds lean on, pinned by
     QCheck because the exact simulators are measurably non-monotone in
     window depth;
   - convergence: on a 1200-point design space, the guided sweep with
     [frontier_stop] renders a byte-identical Pareto frontier to the
     full sweep while exactly simulating at most half the points. *)

module Model = Mfu_model
module Axes = Mfu_explore.Axes
module Store = Mfu_explore.Store
module Sweep = Mfu_explore.Sweep
module Analyze = Mfu_explore.Analyze
module Sim_types = Mfu_sim.Sim_types
module Config = Mfu_isa.Config
module Livermore = Mfu_loops.Livermore

let temp_store_dir () =
  let path = Filename.temp_file "mfu_model_store" "" in
  Sys.remove path;
  path

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_store f =
  let dir = temp_store_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f (Store.open_ dir))

(* One machine per family, away from the calibration corners. *)
let family_machines =
  [
    Model.Single Mfu_sim.Single_issue.Cray_like;
    Model.Dep Mfu_sim.Dep_single.Tomasulo;
    Model.Buffer
      {
        policy = Mfu_sim.Buffer_issue.Out_of_order;
        stations = 4;
        bus = Sim_types.N_bus;
      };
    Model.Ruu
      {
        issue_units = 2;
        ruu_size = 50;
        bus = Sim_types.N_bus;
        branches = Mfu_sim.Ruu.Stall;
      };
  ]

(* -- calibration round-trip -------------------------------------------------- *)

let test_roundtrip () =
  let config = Config.m11br5 and loop = 5 and scale = 1 in
  let trace = Livermore.trace (Livermore.scaled loop) in
  List.iter
    (fun m ->
      let c = Model.calibrate ~config ~loop ~scale m in
      let r = Model.reference m in
      let anchors =
        List.sort_uniq compare
          [
            r;
            Model.low_window_anchor r;
            Model.mid_window_anchor r;
            Model.one_bus_anchor r;
            Model.n_bus_anchor r;
          ]
      in
      List.iter
        (fun a ->
          let exact = Sim_types.issue_rate (Model.simulate_exact a config trace) in
          let predicted = Model.predict c a in
          let err = Float.abs (predicted -. exact) /. exact in
          let bound = Model.max_bound (Model.family a) +. 1e-9 in
          if err > bound then
            Alcotest.failf "%s: anchor %s predicts %.6f vs exact %.6f (%.2f%% > %.2f%%)"
              (Model.machine_to_string m)
              (Model.machine_to_string a)
              predicted exact (100. *. err) (100. *. bound))
        anchors;
      (* the reference corner itself is exact, not merely within bound *)
      let exact = Sim_types.issue_rate c.Model.c_exact in
      Alcotest.(check (float 1e-9))
        (Model.machine_to_string r ^ " reference exact")
        exact (Model.predict c r))
    family_machines

(* -- monotonicity (QCheck) --------------------------------------------------- *)

(* Interconnects by capacity: a machine never slows down when its bus
   gets wider. *)
let buses = [| Sim_types.One_bus; Sim_types.N_bus; Sim_types.X_bar |]

let ruu_calib =
  lazy
    (Model.calibrate ~config:Config.m11br5 ~loop:5 ~scale:1
       (Model.Ruu
          {
            issue_units = 1;
            ruu_size = 10;
            bus = Sim_types.N_bus;
            branches = Mfu_sim.Ruu.Stall;
          }))

let buffer_calib =
  lazy
    (Model.calibrate ~config:Config.m11br5 ~loop:5 ~scale:1
       (Model.Buffer
          {
            policy = Mfu_sim.Buffer_issue.Out_of_order;
            stations = 1;
            bus = Sim_types.N_bus;
          }))

let check_monotone name c lo hi =
  let p_lo = Model.predict c lo and p_hi = Model.predict c hi in
  if p_lo > p_hi +. 1e-9 then
    QCheck.Test.fail_reportf "%s: %s predicts %.6f > %.6f for %s" name
      (Model.machine_to_string lo)
      p_lo p_hi
      (Model.machine_to_string hi)
  else true

let ruu_monotone =
  QCheck.Test.make ~count:200
    ~name:"ruu prediction monotone in units, window depth, and bus"
    QCheck.(
      pair
        (triple (int_range 1 4) (int_range 4 240) (int_range 0 2))
        (triple (int_range 0 3) (int_range 0 60) (int_range 0 2)))
    (fun ((units, size, bus), (du, ds, db)) ->
      let units' = min 4 (units + du) in
      let size' = size + ds in
      let bus' = min 2 (bus + db) in
      let mk u s b =
        Model.Ruu
          {
            issue_units = u;
            ruu_size = max s u;
            bus = buses.(b);
            branches = Mfu_sim.Ruu.Stall;
          }
      in
      check_monotone "ruu"
        (Lazy.force ruu_calib)
        (mk units size bus)
        (mk units' size' bus'))

let buffer_monotone =
  QCheck.Test.make ~count:200
    ~name:"buffer prediction monotone in stations and bus"
    QCheck.(
      pair
        (pair (int_range 1 8) (int_range 0 2))
        (pair (int_range 0 7) (int_range 0 2)))
    (fun ((stations, bus), (dst, db)) ->
      let stations' = min 8 (stations + dst) in
      let bus' = min 2 (bus + db) in
      let mk s b =
        Model.Buffer
          {
            policy = Mfu_sim.Buffer_issue.Out_of_order;
            stations = s;
            bus = buses.(b);
          }
      in
      check_monotone "buffer"
        (Lazy.force buffer_calib)
        (mk stations bus)
        (mk stations' bus'))

(* -- guided convergence ------------------------------------------------------ *)

(* A 1200-point table7-style space crossed with the full interconnect
   axis and sizes up to the validated window: 4 units x 20 sizes x 3
   buses x M5BR5 x the five scalar loops. Large enough that pruning has
   real work to do, small enough for the suite's wall clock. *)
let convergence_axes =
  {
    Axes.empty with
    Axes.units = [ 1; 2; 3; 4 ];
    sizes =
      [ 10; 20; 30; 40; 50; 60; 70; 80; 90; 100;
        110; 120; 130; 140; 150; 160; 170; 180; 190; 200 ];
    buses = [ Sim_types.N_bus; Sim_types.One_bus; Sim_types.X_bar ];
    configs = [ Config.m5br5 ];
    loops =
      List.map
        (fun (l : Livermore.loop) -> l.Livermore.number)
        (Livermore.of_class Livermore.Scalar);
  }

(* Render the frontier under a fixed title: the sweep CLI's title names
   the candidate count, which legitimately differs between a full and a
   guided run (pruned machines carry no measured rate and are not
   candidates) — the guarantee is byte-identical frontier rows. *)
let render_frontier results =
  let cands =
    Analyze.candidates ~cls:Livermore.Scalar ~config:Config.m5br5 results
  in
  let frontier = Analyze.pareto cands in
  let knee = Analyze.knee frontier in
  Mfu_util.Table.render (Analyze.render_pareto ~title:"frontier" ?knee frontier)

let test_guided_convergence () =
  let points = Axes.enumerate convergence_axes in
  let total = List.length points in
  Alcotest.(check bool)
    (Printf.sprintf "spec enumerates %d >= 200 points" total)
    true (total >= 200);
  let full =
    with_store (fun store ->
        let results, _ = Sweep.run ~store points in
        render_frontier results)
  in
  let guided, stats =
    with_store (fun store ->
        let results, stats =
          Sweep.run ~guided:{ Sweep.frontier_stop = true } ~store points
        in
        (render_frontier results, stats))
  in
  Alcotest.(check string) "Pareto frontier byte-identical" full guided;
  if 2 * stats.Sweep.computed > total then
    Alcotest.failf "guided run simulated %d of %d points (> 50%%)"
      stats.Sweep.computed total;
  Alcotest.(check bool) "pruning engaged" true (stats.Sweep.pruned > 0);
  Alcotest.(check bool) "certificates engaged" true (stats.Sweep.inferred > 0)

let () =
  Alcotest.run "model"
    [
      ( "surrogate",
        [
          Alcotest.test_case "calibration round-trip" `Quick test_roundtrip;
          QCheck_alcotest.to_alcotest ruu_monotone;
          QCheck_alcotest.to_alcotest buffer_monotone;
        ] );
      ( "guided",
        [
          Alcotest.test_case "frontier convergence" `Slow
            test_guided_convergence;
        ] );
    ]

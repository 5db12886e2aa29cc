(* The fast-forward differential grid. Every machine family runs on every
   Livermore loop three ways: the production walker with steady-state
   fast-forward ([~accel:true]), the same walker over every entry
   ([~accel:false]) and the family's test-only oracle ([Mfu_oracle]),
   each with and without metrics. The six cycle counts must agree and
   the three metrics collectors must be [Metrics.equal].

   One line per grid reports its run count, its mismatches and the
   [Steady.stats] of its accelerated runs (periodic regions telescoped,
   fallen back or gated, and runs with no region); every mismatch is
   printed.
   Exits 1 on any mismatch.

   Usage: dune exec test/ff_grid/ff_grid.exe *)

module Config = Mfu_isa.Config
module Livermore = Mfu_loops.Livermore
module Si = Mfu_sim.Single_issue
module Dep = Mfu_sim.Dep_single
module Bi = Mfu_sim.Buffer_issue
module Ruu = Mfu_sim.Ruu
module Sim_types = Mfu_sim.Sim_types
module Metrics = Sim_types.Metrics
module Steady = Mfu_sim.Steady
module Limits = Mfu_limits.Limits
module Oracle = Mfu_oracle

(* A point of a grid: its label, the production walker
   ([sim metrics accel]) and the oracle ([oracle metrics]), both
   returning cycles. *)
type point = {
  label : string;
  sim : Metrics.t option -> bool -> int;
  oracle : Metrics.t option -> int;
}

let failed = ref false

(* Mismatch count of one point: 0 or 1. *)
let check p =
  let ma = Metrics.create ()
  and mf = Metrics.create ()
  and mo = Metrics.create () in
  let cycles =
    [
      p.oracle None;
      p.sim None true;
      p.sim None false;
      p.oracle (Some mo);
      p.sim (Some ma) true;
      p.sim (Some mf) false;
    ]
  in
  if
    List.for_all (( = ) (List.hd cycles)) cycles
    && Metrics.equal mo ma && Metrics.equal mo mf
  then 0
  else begin
    Printf.printf "MISMATCH %s: cycles %s, metrics accel %b, full %b\n%!"
      p.label
      (String.concat " / " (List.map string_of_int cycles))
      (Metrics.equal mo ma) (Metrics.equal mo mf);
    1
  end

let grid name points =
  Steady.reset_stats ();
  let t0 = Unix.gettimeofday () in
  let runs = List.length points in
  let bad = List.fold_left (fun n p -> n + check p) 0 points in
  if bad > 0 then failed := true;
  Printf.printf "[ff_grid] %s: %d runs, %d mismatches, %.1fs; steady: %s\n%!"
    name runs bad
    (Unix.gettimeofday () -. t0)
    (Steady.stats_summary (Steady.stats ()))

let loops () =
  List.map
    (fun (l : Livermore.loop) ->
      (Printf.sprintf "LL%d" l.Livermore.number, Livermore.trace l))
    (Livermore.all ())

let bus_name = Sim_types.bus_model_to_string

(* For each loop, configuration and machine of [machines]. *)
let points ~configs machines =
  List.concat_map
    (fun (ln, trace) ->
      List.concat_map
        (fun config ->
          List.map
            (fun (mname, sim, oracle) ->
              {
                label = Printf.sprintf "%s %s %s" ln (Config.name config) mname;
                sim = (fun metrics accel -> sim ?metrics ~accel ~config trace);
                oracle = (fun metrics -> oracle ?metrics ~config trace);
              })
            machines)
        configs)
    (loops ())

let cycles (r : Sim_types.result) = r.Sim_types.cycles

let single_issue =
  List.map
    (fun org ->
      ( Si.organization_to_string org,
        (fun ?metrics ~accel ~config t ->
          cycles (Si.simulate ?metrics ~accel ~config org t)),
        fun ?metrics ~config t ->
          cycles (Oracle.Single_issue.simulate ?metrics ~config org t) ))
    Si.all_organizations

let dep_single =
  List.map
    (fun scheme ->
      ( Dep.scheme_to_string scheme,
        (fun ?metrics ~accel ~config t ->
          cycles (Dep.simulate ?metrics ~accel ~config scheme t)),
        fun ?metrics ~config t ->
          cycles (Oracle.Dep_single.simulate ?metrics ~config scheme t) ))
    [ Dep.Scoreboard; Dep.Tomasulo ]

let limits =
  [
    ( "critical-path",
      (fun ?metrics ~accel ~config t ->
        Limits.critical_path ?metrics ~accel ~config t),
      fun ?metrics ~config t -> Oracle.Limits.critical_path ?metrics ~config t
    );
  ]

(* The Tables 3-6 grid: both policies, both table buses and the
   crossbar, stations 1-8, both alignments. *)
let buffer_issue =
  List.concat_map
    (fun policy ->
      List.concat_map
        (fun bus ->
          List.concat_map
            (fun stations ->
              List.map
                (fun alignment ->
                  ( Printf.sprintf "%s %s stations=%d %s"
                      (Bi.policy_to_string policy) (bus_name bus) stations
                      (Bi.alignment_to_string alignment),
                    (fun ?metrics ~accel ~config t ->
                      cycles
                        (Bi.simulate ?metrics ~alignment ~accel ~config
                           ~policy ~stations ~bus t)),
                    fun ?metrics ~config t ->
                      cycles
                        (Oracle.Buffer_issue.simulate ?metrics ~alignment
                           ~config ~policy ~stations ~bus t) ))
                [ Bi.Dynamic; Bi.Static ])
            [ 1; 2; 3; 4; 5; 6; 7; 8 ])
        [ Sim_types.N_bus; Sim_types.One_bus; Sim_types.X_bar ])
    [ Bi.In_order; Bi.Out_of_order ]

(* Sizes from a one-entry window to twice the tables' largest, unit
   counts past the tables' four, every bus and branch policy. *)
let ruu =
  List.concat_map
    (fun ruu_size ->
      List.concat_map
        (fun issue_units ->
          List.concat_map
            (fun bus ->
              List.map
                (fun branches ->
                  ( Printf.sprintf "S=%d units=%d %s %s" ruu_size issue_units
                      (bus_name bus)
                      (Ruu.branch_handling_to_string branches),
                    (fun ?metrics ~accel ~config t ->
                      cycles
                        (Ruu.simulate ?metrics ~branches ~accel ~config
                           ~issue_units ~ruu_size ~bus t)),
                    fun ?metrics ~config t ->
                      cycles
                        (Oracle.Ruu.simulate ?metrics ~branches ~config
                           ~issue_units ~ruu_size ~bus t) ))
                [ Ruu.Stall; Ruu.Oracle; Ruu.Static_taken; Ruu.Bimodal 16 ])
            [ Sim_types.N_bus; Sim_types.One_bus; Sim_types.X_bar ])
        (List.filter (fun u -> u <= ruu_size) [ 1; 2; 3; 4; 8 ]))
    [ 1; 4; 10; 33; 50; 100 ]

let () =
  grid "single_issue" (points ~configs:Config.all single_issue);
  grid "dep_single" (points ~configs:Config.all dep_single);
  grid "limits" (points ~configs:Config.all limits);
  grid "buffer_issue" (points ~configs:Config.all buffer_issue);
  grid "ruu" (points ~configs:[ Config.m11br5; Config.m5br2 ] ruu);
  if !failed then exit 1

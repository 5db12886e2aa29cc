(* Surrogate-model benchmark: one row per machine family on Livermore
   loop 7. BENCH_model.json is this program's output.

   Usage:
     bench_model.exe [--json FILE]

   --json FILE      write the results as JSON (schema mfu-bench/v1,
                    section model-vs-exact) *)

module Livermore = Mfu_loops.Livermore
module Config = Mfu_isa.Config
module Sim_types = Mfu_sim.Sim_types
module Single_issue = Mfu_sim.Single_issue
module Buffer_issue = Mfu_sim.Buffer_issue
module Ruu = Mfu_sim.Ruu

(* Per-point cost of pricing a machine with the calibrated queueing
   surrogate (Mfu_model.predict: pure arithmetic over memoized
   histograms) against exactly simulating it. The calibration runs
   themselves are exact simulations, so their one-off cost is reported
   beside the amortized per-point speedup they buy. *)
let run_model_bench ?json_file () =
  let module M = Mfu_model in
  print_endline
    "=== Surrogate model: prediction vs exact simulation (per point) ===";
  print_newline ();
  let config = Config.m11br5 in
  let loop = 7 (* equation of state: the longest paper trace *) in
  let trace = Livermore.trace (Livermore.scaled loop) in
  let time_per_call ~min_calls f =
    (* repeat until >=50ms of wall clock so sub-microsecond calls are
       measurable; returns seconds per call *)
    let rec go calls =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to calls do
        ignore (Sys.opaque_identity (f ()))
      done;
      let dt = Unix.gettimeofday () -. t0 in
      if dt < 0.05 then go (calls * 10) else dt /. float_of_int calls
    in
    go min_calls
  in
  let families =
    [
      ("single", M.Single Single_issue.Cray_like);
      ("dep", M.Dep Mfu_sim.Dep_single.Tomasulo);
      ( "buffer",
        M.Buffer
          {
            policy = Buffer_issue.Out_of_order;
            stations = 4;
            bus = Sim_types.N_bus;
          } );
      ( "ruu",
        M.Ruu
          {
            issue_units = 4;
            ruu_size = 100;
            bus = Sim_types.N_bus;
            branches = Ruu.Stall;
          } );
    ]
  in
  let rows =
    List.map
      (fun (name, machine) ->
        let t0 = Unix.gettimeofday () in
        let c = M.calibrate ~config ~loop ~scale:1 machine in
        let calib_s = Unix.gettimeofday () -. t0 in
        let exact_s =
          time_per_call ~min_calls:1 (fun () ->
              M.simulate_exact machine config trace)
        in
        let predict_s =
          time_per_call ~min_calls:1000 (fun () -> M.predict c machine)
        in
        let speedup = exact_s /. predict_s in
        Printf.printf
          "%-8s exact %10.1f us/point   predict %8.4f us/point   %9.0fx   \
           (one-off calibration %.1f ms)\n\
           %!"
          name (1e6 *. exact_s) (1e6 *. predict_s) speedup (1e3 *. calib_s);
        (name, exact_s, predict_s, speedup, calib_s))
      families
  in
  print_newline ();
  Option.iter
    (fun file ->
      let open Mfu_util.Json in
      let json =
        Obj
          [
            ("schema", String "mfu-bench/v1");
            ("section", String "model-vs-exact");
            ("config", String (Config.name config));
            ("loop", Int loop);
            ( "results",
              List
                (List.map
                   (fun (name, exact_s, predict_s, speedup, calib_s) ->
                     Obj
                       [
                         ("name", String name);
                         ("exact_us_per_point", Float (1e6 *. exact_s));
                         ("predict_us_per_point", Float (1e6 *. predict_s));
                         ("speedup", Float speedup);
                         ("calibration_ms", Float (1e3 *. calib_s));
                       ])
                   rows) );
          ]
      in
      let oc = open_out file in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> to_channel oc json);
      Printf.eprintf "[bench] wrote %s\n%!" file)
    json_file

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> run_model_bench ()
  | [ "--json"; file ] -> run_model_bench ~json_file:file ()
  | arg :: _ -> failwith (Printf.sprintf "unknown argument %s" arg)

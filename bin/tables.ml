(* Regenerate the paper's tables (and the extension ablations) from the
   simulators, optionally with a shape comparison against the published
   numbers.

   Tables run on the parallel experiment engine (Mfu_util.Pool); worker
   count comes from --jobs or MFU_JOBS. Per-table timing goes to stderr so
   stdout stays byte-identical across worker counts. *)

let output_table ~csv t =
  if csv then print_string (Mfu_util.Table.to_csv t) else Mfu_util.Table.print t

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Printf.eprintf "[engine] %s: %d job(s), %.2fs wall-clock\n%!" name
    (Mfu_util.Pool.current_jobs ())
    (Unix.gettimeofday () -. t0);
  r

let table_of_int ~compare ~csv n =
  let module E = Mfu.Experiments in
  let module R = Mfu.Reporting in
  let module P = Mfu.Paper_data in
  let print_cmp title paper measured =
    if compare then
      print_endline (R.render_comparison ~title (R.compare_cells ~paper ~measured))
  in
  match n with
  | 1 ->
      let t = E.table1 () in
      output_table ~csv (R.render_table1 t);
      print_cmp "Table 1 shape vs paper"
        (P.flatten_table1 P.table1)
        (R.flatten_measured_table1 t)
  | 2 -> output_table ~csv (R.render_table2 (E.table2 ()))
  | 3 | 4 | 5 | 6 ->
      let t, title, paper =
        match n with
        | 3 -> (E.table3 (), "Table 3. Sequential issue, scalar code", P.table3)
        | 4 -> (E.table4 (), "Table 4. Sequential issue, vectorizable code", P.table4)
        | 5 -> (E.table5 (), "Table 5. Out-of-order issue, scalar code", P.table5)
        | _ -> (E.table6 (), "Table 6. Out-of-order issue, vectorizable code", P.table6)
      in
      output_table ~csv (R.render_buffer_table ~title t);
      let name = Printf.sprintf "t%d" n in
      print_cmp (Printf.sprintf "Table %d shape vs paper" n)
        (P.flatten_buffer ~name paper)
        (R.flatten_measured_buffer ~name t)
  | 7 | 8 ->
      let t, title, paper =
        match n with
        | 7 -> (E.table7 (), "Table 7. RUU dependency resolution, scalar code", P.table7)
        | _ -> (E.table8 (), "Table 8. RUU dependency resolution, vectorizable code", P.table8)
      in
      output_table ~csv (R.render_ruu_table ~title t);
      let name = Printf.sprintf "t%d" n in
      print_cmp (Printf.sprintf "Table %d shape vs paper" n)
        (P.flatten_ruu ~name paper)
        (R.flatten_measured_ruu ~name t)
  | _ -> invalid_arg "table number must be 1..8"

let run_ablations () =
  let module E = Mfu.Experiments in
  let module R = Mfu.Reporting in
  let config = Mfu_isa.Config.m11br5 in
  Mfu_util.Table.print (R.render_speculation (E.ablation_speculation ~config ()));
  Mfu_util.Table.print (R.render_latency (E.ablation_latency ~config_name:"M11BR5" ()));
  Mfu_util.Table.print (R.render_xbar (E.ablation_xbar ~config ()));
  Mfu_util.Table.print (R.render_scheduling (E.ablation_scheduling ~config ()));
  Mfu_util.Table.print (R.render_section33 (E.section33 ~config ()));
  Mfu_util.Table.print
    (R.render_alignment
       ~title:
         "Ablation A6. Instruction buffer alignment, OOO issue, scalar code (M11BR5)"
       (E.ablation_alignment ~config ~class_:Mfu_loops.Livermore.Scalar ()));
  Mfu_util.Table.print (R.render_banks (E.ablation_banks ~config ()));
  Mfu_util.Table.print (R.render_extended (E.extended_study ~config ()));
  Mfu_util.Table.print (R.render_vectorization (E.vectorization_study ~config ()));
  Mfu_util.Table.print
    (R.render_conclusions ~paper:Mfu.Paper_data.conclusions (E.conclusions ()))

let run_metrics ~csv ~json_file =
  let module E = Mfu.Experiments in
  let module R = Mfu.Reporting in
  let config = Mfu_isa.Config.m11br5 in
  let rows = timed "stall attribution" (fun () -> E.stall_attribution ~config ()) in
  output_table ~csv (R.render_attribution rows);
  Option.iter
    (fun file ->
      let json = R.attribution_to_json ~config rows in
      let oc = open_out file in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> Mfu_util.Json.to_channel oc json);
      Printf.eprintf "[metrics] wrote %s\n%!" file)
    json_file

(* Exclusive mode: validate the surrogate model against the exact
   simulators over the documented grid and render the per-family error
   table. Exit 1 if any family violates its committed bounds — the CI
   guided-sweep job runs exactly this. *)
let run_model_error ~csv =
  let module R = Mfu.Reporting in
  let rows = timed "model error" (fun () -> Mfu_model.validate ()) in
  output_table ~csv
    (R.render_model_error
       (List.map
          (fun (r : Mfu_model.error_row) ->
            {
              R.me_family = Mfu_model.family_name r.e_family;
              me_points = r.e_points;
              me_mean = r.e_mean;
              me_max = r.e_max;
              me_under = r.e_under;
              me_bound = r.e_bound;
              me_under_bound = Mfu_model.under_bound r.e_family;
              me_ok = r.e_ok;
            })
          rows));
  if List.exists (fun (r : Mfu_model.error_row) -> not r.e_ok) rows then exit 1

let run table ablations compare csv metrics metrics_json model_error jobs scale
    =
  Option.iter (fun n -> Mfu_util.Pool.set_jobs (Some n)) jobs;
  Mfu_loops.Livermore.set_scale scale;
  if model_error then run_model_error ~csv
  else begin
    let one n =
      timed (Printf.sprintf "table %d" n) (fun () ->
          table_of_int ~compare ~csv n)
    in
    (match table with
    | Some n -> one n
    | None -> List.iter one [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
    if ablations then run_ablations ();
    if metrics || metrics_json <> None then
      run_metrics ~csv ~json_file:metrics_json
  end;
  Printf.eprintf "[steady] %s\n%!"
    (Mfu_sim.Steady.stats_summary (Mfu_sim.Steady.stats ()))

open Cmdliner

let table =
  let doc = "Regenerate only paper table $(docv) (1..8); default: all." in
  let numbers = List.init 8 (fun i -> (string_of_int (i + 1), i + 1)) in
  Arg.(
    value
    & opt (some (enum numbers)) None
    & info [ "t"; "table" ] ~docv:"N" ~doc)

let ablations =
  let doc = "Also run the extension ablations (A1-A3 in DESIGN.md)." in
  Arg.(value & flag & info [ "a"; "ablations" ] ~doc)

let compare =
  let doc = "Print shape-comparison statistics against the paper's numbers." in
  Arg.(value & flag & info [ "c"; "compare" ] ~doc)

let csv =
  let doc = "Emit the tables as CSV instead of aligned text." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let metrics =
  let doc =
    "Also print the stall-cause attribution table (cycles lost to RAW, WAW, \
     FU conflicts, etc., per loop class and machine model, on M11BR5). The \
     default tables are unaffected."
  in
  Arg.(value & flag & info [ "m"; "metrics" ] ~doc)

let metrics_json =
  let doc =
    "Write the stall-cause attribution as JSON (schema mfu-metrics/v1) to \
     $(docv); implies $(b,--metrics)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE" ~doc)

let model_error =
  let doc =
    "Instead of the paper tables, validate the calibrated surrogate model \
     (Mfu_model) against the exact simulators over the documented \
     validation grid and print the per-family mean/max relative error \
     with its committed bound. Exits 1 if any family violates its \
     bounds — the constants the guided sweep's pruning relies on."
  in
  Arg.(value & flag & info [ "model-error" ] ~doc)

let jobs =
  let doc =
    "Worker domains for the experiment engine (overrides MFU_JOBS; 1 runs \
     sequentially)."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let scale =
  let doc =
    "Multiply every Livermore loop's problem size by $(docv) (default 1: \
     the paper-sized workloads). Loop 2 is rounded up to a power of two \
     and loop 6 scales by the square root, keeping all traces roughly \
     $(docv) times longer. The steady-state fast-forward telescopes \
     periodic regions exactly, so most tables cost far less than $(docv) \
     times their paper-sized time. Tables 2 and 7 are the exceptions: \
     from scale 1 to 16 they grow about 14x and 7x."
  in
  let positive =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | _ -> Error (`Msg (Printf.sprintf "expected an integer >= 1, got %S" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(value & opt positive 1 & info [ "scale" ] ~docv:"N" ~doc)

let cmd =
  let doc = "regenerate the tables of Pleszkun & Sohi 1988" in
  let info = Cmd.info "mfu-tables" ~doc in
  Cmd.v info
    Term.(
      const run $ table $ ablations $ compare $ csv $ metrics $ metrics_json
      $ model_error $ jobs $ scale)

let () = exit (Cmd.eval cmd)

(* Golden-table differential suite for the parallel experiment engine.

   The determinism contract: every paper table produced with MFU_JOBS > 1
   must be BYTE-IDENTICAL to the sequential (MFU_JOBS = 1) output. We render
   all eight tables under both worker counts in one process (via the
   Pool.set_jobs override) and compare both the rendered text and the raw
   flattened cell values (exact float equality, not a tolerance).

   Plus shape snapshots: Table 1 and Table 2 must have exactly the cell
   labels / row keys of the paper's published tables in Paper_data. *)

module E = Mfu.Experiments
module R = Mfu.Reporting
module P = Mfu.Paper_data
module Pool = Mfu_util.Pool
module Table = Mfu_util.Table
module Livermore = Mfu_loops.Livermore
module Config = Mfu_isa.Config

(* One full pass over Tables 1-8: the rendered text plus the exact cell
   values of the tables that have flatteners. *)
let snapshot () =
  let buf = Buffer.create (1 lsl 16) in
  let add t =
    Buffer.add_string buf (Table.render t);
    Buffer.add_char buf '\n'
  in
  let t1 = E.table1 () in
  let t2 = E.table2 () in
  add (R.render_table1 t1);
  add (R.render_table2 t2);
  let flat = ref (List.map snd (R.flatten_measured_table1 t1)) in
  List.iter
    (fun (n, compute, render) ->
      let t = compute () in
      add (render t);
      flat :=
        !flat
        @ List.map snd
            (R.flatten_measured_buffer ~name:(Printf.sprintf "t%d" n) t))
    [
      (3, E.table3, R.render_buffer_table ~title:"Table 3");
      (4, E.table4, R.render_buffer_table ~title:"Table 4");
      (5, E.table5, R.render_buffer_table ~title:"Table 5");
      (6, E.table6, R.render_buffer_table ~title:"Table 6");
    ];
  List.iter
    (fun (n, compute, render) ->
      let t = compute () in
      add (render t);
      flat :=
        !flat
        @ List.map snd (R.flatten_measured_ruu ~name:(Printf.sprintf "t%d" n) t))
    [
      (7, E.table7, R.render_ruu_table ~title:"Table 7");
      (8, E.table8, R.render_ruu_table ~title:"Table 8");
    ];
  (Buffer.contents buf, !flat)

let with_jobs n f =
  Pool.set_jobs (Some n);
  Fun.protect ~finally:(fun () -> Pool.set_jobs None) f

(* A full snapshot is the suite's dominant cost, so each worker count's
   first one is taken once and shared by every test that needs it. *)
let snapshots = Hashtbl.create 2

let snapshot_at jobs =
  match Hashtbl.find_opt snapshots jobs with
  | Some s -> s
  | None ->
      let s = with_jobs jobs snapshot in
      Hashtbl.add snapshots jobs s;
      s

let test_parallel_is_bit_identical () =
  let seq_text, seq_cells = snapshot_at 1 in
  let par_text, par_cells = snapshot_at 4 in
  Alcotest.(check int) "jobs honored" 4 (with_jobs 4 Pool.current_jobs);
  Alcotest.(check string) "eight rendered tables byte-identical" seq_text
    par_text;
  Alcotest.(check int) "same cell count"
    (List.length seq_cells) (List.length par_cells);
  (* Exact equality, element by element: the pool must not reorder cells or
     perturb a single bit of any float. *)
  List.iteri
    (fun i (a, b) ->
      if Int64.bits_of_float a <> Int64.bits_of_float b then
        Alcotest.failf "cell %d differs: %.17g (seq) vs %.17g (par)" i a b)
    (List.combine seq_cells par_cells)

(* The metrics layer must be invisible to the default tables: rendering
   them, then running the full stall-attribution study (collectors active
   in every simulator family), then rendering them again, must produce the
   same bytes — at both worker counts. A collector that leaked into
   simulator state or perturbed the engine would show up here. The
   "before" rendering is the shared first snapshot at that worker count,
   taken before any attribution run. *)
let test_metrics_leave_tables_identical () =
  List.iter
    (fun jobs ->
      let before, cells_before = snapshot_at jobs in
      with_jobs jobs (fun () ->
          let rows = E.stall_attribution ~config:Config.m11br5 () in
          Alcotest.(check int)
            "attribution rows: 2 classes x all models"
            (2 * List.length E.attribution_model_names)
            (List.length rows);
          let after, cells_after = snapshot () in
          Alcotest.(check string)
            (Printf.sprintf "tables byte-identical around --metrics (jobs=%d)"
               jobs)
            before after;
          List.iteri
            (fun i (a, b) ->
              if Int64.bits_of_float a <> Int64.bits_of_float b then
                Alcotest.failf "cell %d differs after metrics run: %.17g vs %.17g"
                  i a b)
            (List.combine cells_before cells_after)))
    [ 1; 4 ]

(* -- shape snapshots against the published tables -------------------------- *)

let test_table1_shape () =
  let measured = R.flatten_measured_table1 (E.table1 ()) in
  let paper = P.flatten_table1 P.table1 in
  Alcotest.(check (list string))
    "Table 1 cell labels match the paper's, in order"
    (List.map fst paper) (List.map fst measured)

let test_table2_shape () =
  let measured = E.table2 () in
  let keys =
    List.concat_map
      (fun (t : E.limits_table) ->
        List.map
          (fun (r : E.limits_row) ->
            ( Livermore.classification_to_string t.E.lim_class,
              r.E.lim_pure,
              Config.name r.E.lim_machine ))
          t.E.lim_rows)
      measured
  in
  let paper_keys = List.map fst P.table2 in
  let norm ks =
    List.sort compare
      (List.map (fun (c, p, m) -> Printf.sprintf "%s/%b/%s" c p m) ks)
  in
  Alcotest.(check (list string))
    "Table 2 row keys match the paper's (class, purity, machine) set"
    (norm paper_keys) (norm keys);
  List.iter
    (fun (t : E.limits_table) ->
      Alcotest.(check int) "8 rows per class" 8 (List.length t.E.lim_rows))
    measured

let () =
  Alcotest.run "golden_tables"
    [
      ( "determinism",
        [
          Alcotest.test_case "MFU_JOBS=4 output == MFU_JOBS=1 output" `Slow
            test_parallel_is_bit_identical;
          Alcotest.test_case "--metrics leaves tables byte-identical" `Slow
            test_metrics_leave_tables_identical;
        ] );
      ( "shape",
        [
          Alcotest.test_case "table 1 labels vs Paper_data" `Quick
            test_table1_shape;
          Alcotest.test_case "table 2 keys vs Paper_data" `Quick
            test_table2_shape;
        ] );
    ]

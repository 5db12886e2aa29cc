(* Design-space exploration driver: enumerate an axes spec, bring the
   content-addressed result store up to date (resumably), and analyse the
   stored results — Pareto frontiers per loop class, or the paper's RUU
   tables reconstructed byte-identically from the store.

   Progress and statistics go to stderr; stdout carries only the
   requested reports, so outputs stay diffable across worker counts and
   resume states. *)

module Axes = Mfu_explore.Axes
module Store = Mfu_explore.Store
module Sweep = Mfu_explore.Sweep
module Analyze = Mfu_explore.Analyze
module Livermore = Mfu_loops.Livermore
module Config = Mfu_isa.Config

let progress ~done_ ~total =
  (* Reprint at most ~20 times per sweep to keep stderr readable. *)
  let step = max 1 (total / 20) in
  if done_ mod step = 0 || done_ = total then
    Printf.eprintf "[sweep] %d/%d point(s) computed\n%!" done_ total

let classes_covered points =
  let loops =
    List.sort_uniq compare (List.map (fun (p : Axes.point) -> p.Axes.loop) points)
  in
  List.filter
    (fun cls ->
      let wanted =
        List.map
          (fun (l : Livermore.loop) -> l.Livermore.number)
          (Livermore.of_class cls)
      in
      List.for_all (fun n -> List.mem n loops) wanted)
    [ Livermore.Scalar; Livermore.Vectorizable ]

let print_pareto ?top results points =
  List.iter
    (fun cls ->
      List.iter
        (fun config ->
          let cands = Analyze.candidates ~cls ~config results in
          if cands <> [] then begin
            let frontier = Analyze.pareto cands in
            let knee = Analyze.knee frontier in
            let title =
              Printf.sprintf
                "Pareto frontier: issue rate vs hardware cost, %s code, %s \
                 (%d machines, %d on frontier)"
                (Livermore.classification_to_string cls)
                (Config.name config) (List.length cands)
                (List.length frontier)
            in
            Mfu_util.Table.print
              (Analyze.render_pareto ~title ?knee ?top frontier);
            match knee with
            | Some k ->
                Printf.printf "Knee (%s, %s): %s at cost %.0f, rate %s\n\n"
                  (Livermore.classification_to_string cls)
                  (Config.name config) k.Analyze.label k.Analyze.cost
                  (Mfu_util.Table.cell_f2 k.Analyze.rate)
            | None -> ()
          end)
        (List.sort_uniq compare
           (List.map (fun (p : Axes.point) -> p.Axes.config) points)))
    (classes_covered points)

let print_table n results =
  let cls, title =
    match n with
    | 7 -> (Livermore.Scalar, "Table 7. RUU dependency resolution, scalar code")
    | 8 ->
        ( Livermore.Vectorizable,
          "Table 8. RUU dependency resolution, vectorizable code" )
    | _ -> invalid_arg "only tables 7 and 8 are RUU sweeps"
  in
  let t =
    Analyze.ruu_table ~cls ~sizes:Axes.paper_ruu_sizes
      ~units:Axes.paper_ruu_units results
  in
  Mfu_util.Table.print (Mfu.Reporting.render_ruu_table ~title t)

let print_store_stats store =
  let s = Store.stats store in
  Printf.printf "store %s: %d entries, %d bytes, %d quarantined\n"
    (Store.root store) s.Store.entries s.Store.bytes s.Store.quarantined_count;
  Printf.printf
    "layout: %d loose, %d packed in %d segment(s) (%d bytes on disk, %d \
     shadowed record(s)), %d foreign file(s) skipped\n"
    s.Store.loose_entries s.Store.packed_entries s.Store.segment_count
    s.Store.segment_bytes s.Store.shadowed_records s.Store.foreign_files;
  let occupied = ref 0 in
  let mn = ref max_int in
  let mx = ref 0 in
  Array.iter
    (fun n ->
      if n > 0 then incr occupied;
      if n < !mn then mn := n;
      if n > !mx then mx := n)
    s.Store.fanout_histogram;
  Printf.printf
    "fanout: %d/256 shards occupied, min %d / mean %.2f / max %d entries per \
     shard\n"
    !occupied !mn
    (float_of_int s.Store.entries /. 256.)
    !mx

let print_compaction store (c : Store.compaction) =
  match c.Store.segment with
  | None -> Printf.eprintf "[sweep] store %s: nothing to compact\n%!"
              (Store.root store)
  | Some seq ->
      Printf.eprintf
        "[sweep] store %s: segment %08d written (%d bytes): %d loose \
         folded (%d bytes reclaimed), %d rewritten, %d dead dropped\n\
         %!"
        (Store.root store) seq c.Store.pack_bytes c.Store.folded
        c.Store.reclaimed_bytes c.Store.rewritten c.Store.dropped

(* Per-family point breakdown of an enumerated job list. *)
let family_breakdown points =
  let tally = Hashtbl.create 4 in
  List.iter
    (fun (p : Axes.point) ->
      let f = Mfu_model.family_name (Mfu_model.family p.Axes.machine) in
      Hashtbl.replace tally f
        (1 + Option.value ~default:0 (Hashtbl.find_opt tally f)))
    points;
  List.filter_map
    (fun f -> Option.map (fun n -> (f, n)) (Hashtbl.find_opt tally f))
    (List.map Mfu_model.family_name Mfu_model.all_families)

let print_dry_run ~guided ~top points =
  Printf.printf "%d point(s)\n" (List.length points);
  List.iter
    (fun (f, n) -> Printf.printf "  %-12s %d point(s)\n" f n)
    (family_breakdown points);
  if guided then begin
    let k = Option.value ~default:10 top in
    let ranked = Axes.rank points in
    Printf.printf
      "top %d of %d by predicted Pareto-optimality (surrogate-calibrated \
       with %d exact runs):\n"
      (min k (List.length ranked))
      (List.length ranked)
      (Mfu_model.calibration_runs ());
    List.iteri
      (fun i ((p : Axes.point), pred) ->
        if i < k then
          Printf.printf "  %2d. %s %s LL%d  cost %.0f  predicted %.3f\n"
            (i + 1)
            (Axes.machine_to_string p.Axes.machine)
            (Config.name p.Axes.config) p.Axes.loop
            (Axes.cost p.Axes.machine)
            pred)
      ranked
  end

let run axes_spec store_dir resume pareto table top jobs lease lease_ttl
    guided budget frontier_stop dry_run store_stats compact compact_full
    compact_threshold unpack =
  match Axes.of_string axes_spec with
  | Error e -> `Error (false, "bad --axes spec: " ^ e)
  | Ok axes ->
      if (budget <> None || frontier_stop) && not guided then
        `Error (false, "--budget and --frontier-stop require --guided")
      else if guided && lease then
        `Error (false, "--guided does not compose with --lease")
      else if compact_full && not compact then
        `Error (false, "--full requires --compact")
      else if (compact || compact_full) && unpack then
        `Error (false, "--compact and --unpack are mutually exclusive")
      else if compact then begin
        (* Standalone maintenance: fold the store and exit. *)
        let store = Store.open_ store_dir in
        print_compaction store (Store.compact ~full:compact_full store);
        if store_stats then print_store_stats store;
        `Ok ()
      end
      else if unpack then begin
        let store = Store.open_ store_dir in
        let n = Store.unpack store in
        Printf.eprintf "[sweep] store %s: %d entr%s restored to loose files\n%!"
          (Store.root store) n
          (if n = 1 then "y" else "ies");
        if store_stats then print_store_stats store;
        `Ok ()
      end
      else if store_stats then begin
        print_store_stats (Store.open_ store_dir);
        `Ok ()
      end
      else begin
        Option.iter (fun n -> Mfu_util.Pool.set_jobs (Some n)) jobs;
        let points = Axes.enumerate axes in
        if points = [] then `Error (false, "the axes spec names no machines")
        else if dry_run then begin
          print_dry_run ~guided ~top points;
          `Ok ()
        end
        else begin
          let store = Store.open_ store_dir in
          let lease =
            if lease then
              Some
                (Mfu_explore.Lease.create ~ttl:lease_ttl
                   ~dir:(Mfu_explore.Lease.default_dir ~store_root:store_dir)
                   ())
            else None
          in
          Printf.eprintf "[sweep] %d point(s) over %s\n%!" (List.length points)
            (Axes.to_string axes);
          let t0 = Unix.gettimeofday () in
          let guided_policy =
            if guided then Some { Sweep.budget; frontier_stop } else None
          in
          let results, stats =
            Sweep.run ~resume ?lease ~progress ?guided:guided_policy
              ~store points
          in
          Printf.eprintf
            "[sweep] done in %.2fs: %d computed, %d reused, %d quarantined \
             (store %s)\n\
             %!"
            (Unix.gettimeofday () -. t0)
            stats.Sweep.computed stats.Sweep.reused stats.Sweep.quarantined
            (Store.root store);
          if guided then
            Printf.eprintf "[sweep] guided: %d inferred, %d pruned\n%!"
              stats.Sweep.inferred stats.Sweep.pruned;
          if lease <> None then
            Printf.eprintf "[sweep] leases: %d deferred, %d stolen\n%!"
              stats.Sweep.deferred stats.Sweep.stolen;
          (match compact_threshold with
          | Some n when (Store.stats store).Store.loose_entries >= n ->
              print_compaction store (Store.compact store)
          | Some _ | None -> ());
          (match table with Some n -> print_table n results | None -> ());
          if pareto then print_pareto ?top results points;
          `Ok ()
        end
      end

open Cmdliner

let axes_spec =
  let doc =
    "Design-space axes: a preset ($(b,table7), $(b,table8), \
     $(b,paper-ruu)) or a spec like \
     $(b,units=1-4;size=10,50;bus=nbus,1bus;config=all;loops=scalar)."
  in
  Arg.(value & opt string "table7" & info [ "axes" ] ~docv:"SPEC" ~doc)

let store_dir =
  let doc = "Result-store directory (created if missing)." in
  Arg.(value & opt string "_mfu_store" & info [ "store" ] ~docv:"DIR" ~doc)

let resume =
  let doc =
    "Reuse valid stored results and compute only missing points. Without \
     this flag every point is recomputed and rewritten."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let pareto =
  let doc =
    "Print the Pareto frontier (issue rate vs hardware cost) and its knee \
     for every fully covered loop class and machine variant."
  in
  Arg.(value & flag & info [ "pareto" ] ~doc)

let table =
  let doc =
    "Render paper table $(docv) (7 or 8) from the store, byte-identical to \
     $(b,tables.exe). The axes must cover the table's grid."
  in
  Arg.(value & opt (some int) None & info [ "t"; "table" ] ~docv:"N" ~doc)

let jobs =
  let doc =
    "Worker domains for the sweep (overrides MFU_JOBS; 1 runs \
     sequentially)."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let lease =
  let doc =
    "Coordinate with other sweep/serve processes draining the same store \
     through lease files in a work-queue directory next to it: keys leased \
     by a live process are not recomputed here, expired leases are stolen. \
     Results are unaffected — leases only remove duplicated work."
  in
  Arg.(value & flag & info [ "lease" ] ~doc)

let lease_ttl =
  let doc =
    "Lease lifetime in seconds; a worker killed mid-computation delays its \
     keys by at most this long before another process steals them."
  in
  Arg.(value & opt float 60. & info [ "lease-ttl" ] ~docv:"SEC" ~doc)

let store_stats =
  let doc =
    "Print store statistics (entries, bytes, loose/packed layout, segment \
     footprint, quarantine, shard fanout) and exit without sweeping; with \
     $(b,--compact) or $(b,--unpack), print them after the operation."
  in
  Arg.(value & flag & info [ "store-stats" ] ~doc)

let compact =
  let doc =
    "Fold loose store entries into a packed segment (crash-safe: loose \
     files are deleted only after the segment is durable) and exit \
     without sweeping. Rendered output is byte-identical before and \
     after, and $(b,--resume) on the packed store recomputes nothing."
  in
  Arg.(value & flag & info [ "compact" ] ~doc)

let compact_full =
  let doc =
    "With $(b,--compact): also rewrite existing segments into the new \
     one, dropping shadowed (superseded) records, so the store converges \
     to a single pack file."
  in
  Arg.(value & flag & info [ "full" ] ~doc)

let compact_threshold =
  let doc =
    "After the sweep, compact automatically if at least $(docv) loose \
     entries are present — keeps long resumable campaigns from \
     accumulating thousands of per-point files."
  in
  Arg.(
    value
    & opt (some int) None
    & info [ "compact-threshold" ] ~docv:"N" ~doc)

let unpack =
  let doc =
    "Restore every packed entry to its loose file (byte-identical to the \
     file that was packed), delete the segments, and exit without \
     sweeping — the inverse of $(b,--compact)."
  in
  Arg.(value & flag & info [ "unpack" ] ~doc)

let top =
  let doc =
    "Truncate every Pareto table to its first $(docv) rows (a footer names \
     how many points were cut); with $(b,--dry-run --guided), the length \
     of the predicted ranking shown (default 10)."
  in
  Arg.(value & opt (some int) None & info [ "top" ] ~docv:"K" ~doc)

let guided =
  let doc =
    "Surrogate-guided sweep: simulate points best-first in predicted \
     Pareto order, publish byte-identical results for structurally \
     equivalent machines and window-saturated RUU chains without \
     simulating them, and count the model's calibration runs against \
     the work done. Stored results are identical to an unguided sweep's \
     for every point actually resolved."
  in
  Arg.(value & flag & info [ "guided" ] ~doc)

let budget =
  let doc =
    "Stop launching simulations once $(docv) exact simulator runs \
     (calibration included) have been performed; unresolved points are \
     left for a resumed run. Requires $(b,--guided)."
  in
  Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"N" ~doc)

let frontier_stop =
  let doc =
    "Stop simulating a machine's loop-class cells as soon as an exactly \
     simulated machine dominates its model-error-inflated upper bound: \
     the Pareto frontier over the surviving results is byte-identical \
     to a full sweep's as long as the committed model bounds hold \
     (tables.exe --model-error). Requires $(b,--guided)."
  in
  Arg.(value & flag & info [ "frontier-stop" ] ~doc)

let dry_run =
  let doc =
    "Enumerate and report instead of simulating: the point count, the \
     per-family breakdown, and with $(b,--guided) the top $(b,--top) \
     points by predicted Pareto-optimality."
  in
  Arg.(value & flag & info [ "dry-run" ] ~doc)

let cmd =
  let doc = "sweep the multiple-functional-unit design space" in
  let info = Cmd.info "mfu-sweep" ~doc in
  Cmd.v info
    Term.(
      ret
        (const run $ axes_spec $ store_dir $ resume $ pareto $ table $ top
       $ jobs $ lease $ lease_ttl $ guided $ budget $ frontier_stop
       $ dry_run $ store_stats $ compact $ compact_full $ compact_threshold
       $ unpack))

let () = exit (Cmd.eval cmd)

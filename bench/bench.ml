(* The benchmark: every row times a fast path against its baseline in one
   process, interleaved, and reports the speedup of one over the other.
   A code regression moves that ratio; the host's speed moves both sides
   alike. Absolute rates are printed but never gated, and regressions
   smaller than a row's floor are left to the end-to-end benchmark
   (perfbench/run.py).

   Rows:

   - paper-sized families ("single_issue", ...): the production walker vs
     the original implementation it replaced, kept as the test-only
     oracle (Mfu_oracle, test/oracle), over the default Livermore
     workloads;
   - scaled families ("single_issue/scaled", ...): one ~10^6-instruction
     scaled Livermore loop, steady-state acceleration (Mfu_sim.Steady,
     the default) vs the same walker with [~accel:false]; the speedup is
     the telescoping gain, expected in the hundreds;
   - "store/packed": warm reads of a 2000-point result store, packed
     segments vs loose files;
   - "trace/digest": the trace digest of a scaled point's key, hand-written
     serializer vs the original Printf one (Mfu_oracle.Trace_io);
   - "model/..." (ungated): the calibrated surrogate's [Mfu_model.predict]
     vs exactly simulating the same machine on Livermore loop 7.

   Usage:
     bench.exe [--json FILE] [--check] [--only ROW[,ROW...]]

   --json FILE   write the rows as JSON (schema mfu-bench/v2)
   --check       exit 1 if a row's speedup is below its floor
   --only R,...  measure (and check) only the named rows *)

module Config = Mfu_isa.Config
module Sim_types = Mfu_sim.Sim_types
module Single_issue = Mfu_sim.Single_issue
module Dep_single = Mfu_sim.Dep_single
module Buffer_issue = Mfu_sim.Buffer_issue
module Ruu = Mfu_sim.Ruu
module Limits = Mfu_limits.Limits
module Oracle = Mfu_oracle
module Livermore = Mfu_loops.Livermore
module Store = Mfu_explore.Store
module Model = Mfu_model
module Json = Mfu_util.Json

let config = Config.m11br5

type spec = {
  name : string;
  floor : float option;  (** [--check] fails the row below this speedup *)
  unit : string;  (** what a pass counts *)
  sides : unit -> (unit -> int) * (unit -> int);
      (** builds the workload and returns one pass of the fast side and
          one of the baseline, each returning the work it did *)
}

(* A simulator row: each pass runs every trace of the workload and counts
   simulated cycles. *)
let sim name ~floor traces ~fast ~baseline =
  let sides () =
    let traces = traces () in
    let pass run () = List.fold_left (fun acc t -> acc + run t) 0 traces in
    (pass fast, pass baseline)
  in
  { name; floor = Some floor; unit = "cycles"; sides }

let all_loops () = List.map Livermore.trace (Livermore.all ())

(* Table 7's workload: the RUU machine on the paper's scalar loop class. *)
let scalar_loops () = List.map Livermore.trace (Livermore.scalar_loops ())

(* One large periodic workload, chosen so that the steady-state detector
   engages (see DESIGN.md, "Steady-state fast-forward"). *)
let scaled ~loop ~scale () =
  [ Livermore.trace (Livermore.scaled ~scale loop) ]

(* A machine family: its paper-sized row against the oracle and its
   scaled row against [~accel:false], floored at 50x. The paper-sized
   floors sit well below what 22 runs on a 2-vCPU host measured
   (single_issue 3.7-6.8x, dep_single 4.9-8.9x, buffer_issue 22-33x,
   ruu 7.9-17x, limits 1.6-2.4x): host noise stays above them, a fast
   path that stops working falls below. *)
let family name ~floor ~loops ~oracle ~scaled run =
  [
    sim name ~floor loops ~fast:(run ~accel:true) ~baseline:oracle;
    sim (name ^ "/scaled") ~floor:50.0 scaled ~fast:(run ~accel:true)
      ~baseline:(run ~accel:false);
  ]

let families =
  List.concat
    [
      family "single_issue" ~floor:2.5 ~loops:all_loops
        ~oracle:(fun t ->
          (Oracle.Single_issue.simulate ~config Single_issue.Cray_like t)
            .cycles)
        ~scaled:(scaled ~loop:11 ~scale:250)
        (fun ~accel t ->
          (Single_issue.simulate ~accel ~config Single_issue.Cray_like t)
            .cycles);
      family "dep_single" ~floor:3.0 ~loops:all_loops
        ~oracle:(fun t ->
          (Oracle.Dep_single.simulate ~config Dep_single.Tomasulo t).cycles)
        ~scaled:(scaled ~loop:12 ~scale:250)
        (fun ~accel t ->
          (Dep_single.simulate ~accel ~config Dep_single.Tomasulo t).cycles);
      family "buffer_issue" ~floor:12.0 ~loops:all_loops
        ~oracle:(fun t ->
          (Oracle.Buffer_issue.simulate ~config
             ~policy:Buffer_issue.Out_of_order ~stations:8
             ~bus:Sim_types.N_bus t)
            .cycles)
        ~scaled:(scaled ~loop:11 ~scale:250)
        (fun ~accel t ->
          (Buffer_issue.simulate ~accel ~config
             ~policy:Buffer_issue.Out_of_order ~stations:8
             ~bus:Sim_types.N_bus t)
            .cycles);
      family "ruu" ~floor:4.0 ~loops:scalar_loops
        ~oracle:(fun t ->
          (Oracle.Ruu.simulate ~config ~issue_units:4 ~ruu_size:50
             ~bus:Sim_types.N_bus t)
            .cycles)
        ~scaled:(scaled ~loop:11 ~scale:250)
        (fun ~accel t ->
          (Ruu.simulate ~accel ~config ~issue_units:4 ~ruu_size:50
             ~bus:Sim_types.N_bus t)
            .cycles);
      (* the limits machine's store-token table only telescopes on
         store-light loops; LL3 (inner product) is its showcase *)
      family "limits" ~floor:1.2 ~loops:all_loops
        ~oracle:(fun t -> Oracle.Limits.critical_path ~config t)
        ~scaled:(scaled ~loop:3 ~scale:260)
        (fun ~accel t -> Limits.critical_path ~accel ~config t);
    ]

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* A loose store pays open(2) + read(2) + close(2) + JSON parse + MD5 on
   a handle's first lookup of each entry; a packed store decodes each
   segment record once at [Store.open_] and serves lookups from memory.
   The store is synthetic (sequential keys, small distinct results), so
   the row measures the store, not the simulator. *)
let store_row =
  let points = 2000 in
  let key i = Printf.sprintf "mfu-point/v1 bench-key-%06d" i in
  let result i =
    { Sim_types.cycles = 1_000 + i; instructions = 100 + (i mod 97) }
  in
  let sides () =
    let fill () =
      let dir = Filename.temp_file "mfu_bench_store" "" in
      Sys.remove dir;
      at_exit (fun () -> rm_rf dir);
      let store = Store.open_ dir in
      for i = 0 to points - 1 do
        Store.put store ~key:(key i) (result i)
      done;
      (dir, store)
    in
    let loose, _ = fill () in
    let packed, store = fill () in
    ignore (Store.compact store : Store.compaction);
    let reads store =
      for i = 0 to points - 1 do
        if Store.find store ~key:(key i) <> Some (result i) then
          failwith ("wrong or missing store entry " ^ key i)
      done;
      points
    in
    (* The packed side reads through one handle, opened here. A handle
       keeps each loose entry it has read, so the loose side opens a
       fresh one per pass and every read goes to the filesystem, as in
       a resumed sweep. *)
    let packed_store = Store.open_ packed in
    ((fun () -> reads packed_store), fun () -> reads (Store.open_ loose))
  in
  { name = "store/packed"; floor = Some 10.0; unit = "points"; sides }

(* Keying a scaled point (Mfu_explore.Axes.key) hashes its loop's
   Trace_io text, so a sweep at [scale > 1] pays this before its first
   store lookup; paper-sized digests are computed at build time. Both
   sides serialize and MD5 the 14 paper-sized traces. On a 2-vCPU host
   the row measured 5.4-6.6x; spelling the integers with
   [string_of_int] instead of the digit writer measured 2.1-2.4x, under
   the 3.5x floor. *)
let digest_row =
  let sides () =
    let traces = all_loops () in
    let pass to_string () =
      List.fold_left
        (fun acc t ->
          ignore (Sys.opaque_identity (Digest.string (to_string t)));
          acc + Array.length t)
        0 traces
    in
    (pass Mfu_exec.Trace_io.to_string, pass Oracle.Trace_io.to_string)
  in
  { name = "trace/digest"; floor = Some 3.5; unit = "entries"; sides }

(* Per-point cost of pricing a machine with the surrogate (pure arithmetic
   over memoized histograms) against simulating it; calibration, itself
   a handful of exact runs, happens before the timing. *)
let model_row (name, machine) =
  let loop = 7 (* equation of state: the longest paper trace *) in
  let sides () =
    let c = Model.calibrate ~config ~loop ~scale:1 machine in
    let trace = Livermore.trace (Livermore.scaled loop) in
    let point f () =
      ignore (Sys.opaque_identity (f ()));
      1
    in
    ( point (fun () -> Model.predict c machine),
      point (fun () -> Model.simulate_exact machine config trace) )
  in
  { name = "model/" ^ name; floor = None; unit = "points"; sides }

let model_rows =
  List.map model_row
    [
      ("single", Model.Single Single_issue.Cray_like);
      ("dep", Model.Dep Dep_single.Tomasulo);
      ( "buffer",
        Model.Buffer
          {
            policy = Buffer_issue.Out_of_order;
            stations = 4;
            bus = Sim_types.N_bus;
          } );
      ( "ruu",
        Model.Ruu
          {
            issue_units = 4;
            ruu_size = 100;
            bus = Sim_types.N_bus;
            branches = Ruu.Stall;
          } );
    ]

let specs = families @ [ store_row; digest_row ] @ model_rows

(* Work per second of [f], best of the rounds it is timed in. A timing
   repeats [f] until it covers [min_time] seconds; the repeat count it
   reaches carries over to the next round. Outside interference (the VM
   scheduler, GC major slices) only ever slows a round down, so the
   maximum is the most repeatable estimate. *)
let min_time = 0.3
let rounds = 3

let timer f =
  let iters = ref 1 and best = ref 0.0 in
  let rec time () =
    let t0 = Unix.gettimeofday () in
    let work = ref 0 in
    for _ = 1 to !iters do
      work := !work + f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt < min_time then begin
      iters := 2 * !iters;
      time ()
    end
    else best := Float.max !best (float_of_int !work /. dt)
  in
  (time, best)

type row = { spec : spec; per_pass : int; fast : float; baseline : float }

let speedup r = r.fast /. r.baseline

(* The first pass of each side runs untimed, to warm the trace caches and
   the allocator. The sides alternate which goes first from round to
   round, so slow drift in machine speed (frequency ramp, page-cache
   state) biases neither side of the ratio. *)
let measure spec =
  let fast, baseline = spec.sides () in
  let per_pass = fast () in
  ignore (baseline () : int);
  let time_fast, best_fast = timer fast in
  let time_baseline, best_baseline = timer baseline in
  for round = 1 to rounds do
    if round mod 2 = 1 then begin
      time_fast ();
      time_baseline ()
    end
    else begin
      time_baseline ();
      time_fast ()
    end
  done;
  { spec; per_pass; fast = !best_fast; baseline = !best_baseline }

let floor_text = function Some f -> Printf.sprintf "%gx" f | None -> "-"

let print_row r =
  Printf.printf "%-20s %7s %10d %12.3e %12.3e %10.2fx %6s\n%!" r.spec.name
    r.spec.unit r.per_pass r.fast r.baseline (speedup r)
    (floor_text r.spec.floor)

let to_json rows =
  Json.Obj
    [
      ("schema", Json.String "mfu-bench/v2");
      ("config", Json.String (Config.name config));
      ( "rows",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("name", Json.String r.spec.name);
                   ("unit", Json.String r.spec.unit);
                   ("per_pass", Json.Int r.per_pass);
                   ("fast_per_sec", Json.Float r.fast);
                   ("baseline_per_sec", Json.Float r.baseline);
                   ("speedup", Json.Float (speedup r));
                   ( "floor",
                     Option.fold ~none:Json.Null
                       ~some:(fun f -> Json.Float f)
                       r.spec.floor );
                 ])
             rows) );
    ]

let check selected rows =
  let floors =
    List.filter_map (fun s -> Option.map (fun f -> (s.name, f)) s.floor) specs
  in
  match
    Bench_gate.failures ~floors
      ~selected:(List.map (fun s -> s.name) selected)
      (List.map (fun r -> (r.spec.name, speedup r)) rows)
  with
  | [] -> print_endline "check: every gated row is at or above its floor"
  | fs ->
      List.iter (Printf.eprintf "check FAILED: %s\n") fs;
      exit 1

let select spec =
  let valid = List.map (fun s -> s.name) specs in
  match Mfu_util.Selection.parse ~valid spec with
  | Error e -> failwith ("--only: " ^ e)
  | Ok names -> List.map (fun n -> List.find (fun s -> s.name = n) specs) names

let () =
  let json_file = ref None and gate = ref false and selected = ref specs in
  let rec parse = function
    | "--json" :: file :: rest ->
        json_file := Some file;
        parse rest
    | "--check" :: rest ->
        gate := true;
        parse rest
    | "--only" :: spec :: rest ->
        selected := select spec;
        parse rest
    | [] -> ()
    | arg :: _ -> failwith ("unknown argument " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  Printf.printf "%-20s %7s %10s %12s %12s %11s %6s\n%!" "row" "unit"
    "per pass" "fast/s" "baseline/s" "speedup" "floor";
  let rows =
    List.map
      (fun s ->
        let r = measure s in
        print_row r;
        r)
      !selected
  in
  Option.iter
    (fun file ->
      Out_channel.with_open_text file (fun oc ->
          Json.to_channel oc (to_json rows));
      Printf.eprintf "[bench] wrote %s\n%!" file)
    !json_file;
  if !gate then check !selected rows

module Config = Mfu_isa.Config
module Fu = Mfu_isa.Fu
module Sim_types = Mfu_sim.Sim_types
module Single_issue = Mfu_sim.Single_issue
module Dep_single = Mfu_sim.Dep_single
module Buffer_issue = Mfu_sim.Buffer_issue
module Ruu = Mfu_sim.Ruu
module Livermore = Mfu_loops.Livermore

let sim_version = "mfu-sim/1"

(* The machine taxonomy lives in {!Mfu_model} (the surrogate must price
   machines without depending on the explore layer); re-exporting the
   constructors keeps every existing [Axes.Ruu {...}] pattern working. *)
type machine = Mfu_model.machine =
  | Single of Single_issue.organization
  | Dep of Dep_single.scheme
  | Buffer of {
      policy : Buffer_issue.policy;
      stations : int;
      bus : Sim_types.bus_model;
    }
  | Ruu of {
      issue_units : int;
      ruu_size : int;
      bus : Sim_types.bus_model;
      branches : Ruu.branch_handling;
    }

let machine_to_string = Mfu_model.machine_to_string
let issue_units_of = Mfu_model.issue_units_of
let window_of = Mfu_model.window_of
let bus_of = Mfu_model.bus_of
let cost = Mfu_model.cost

type point = { machine : machine; config : Config.t; loop : int; scale : int }

(* The key must change whenever any latency differs, even between
   configurations sharing a name (the paper_scalar_add variant), so it
   spells out the full latency assignment rather than trusting the name. *)
let config_to_key (c : Config.t) =
  let l = c.Config.latencies in
  let i = string_of_int in
  String.concat ""
    [
      Config.name c;
      "{aa=";
      i l.Fu.address_add;
      ",am=";
      i l.Fu.address_multiply;
      ",lg=";
      i l.Fu.scalar_logical;
      ",sh=";
      i l.Fu.scalar_shift;
      ",sa=";
      i l.Fu.scalar_add;
      ",fa=";
      i l.Fu.float_add;
      ",fm=";
      i l.Fu.float_multiply;
      ",rc=";
      i l.Fu.reciprocal;
      ",me=";
      i l.Fu.memory;
      ",br=";
      i l.Fu.branch;
      ",tr=";
      i l.Fu.transfer;
      "}";
    ]

(* A paper-sized digest is read from [Paper_digests], which the build
   computes with [Livermore.trace_digest] (see dune), so keying a
   scale-1 point generates no trace. Scaled digests are memoized per
   (loop number, scale). The table is guarded by a mutex because the
   serve daemon keys points from concurrent client threads; the lock is
   uncontended in the batch drivers, which key every point on the
   calling domain before fanning out. The trace generation itself runs
   outside the lock (Trace_cache is already domain-safe), so a slow first
   digest never serializes unrelated keys. *)
let trace_digests : (int * int, string) Hashtbl.t = Hashtbl.create 16
let trace_digests_lock = Mutex.create ()

let trace_digest loop scale =
  if scale = 1 then Paper_digests.table.(loop - 1)
  else
    let memoized =
      Mutex.protect trace_digests_lock (fun () ->
          Hashtbl.find_opt trace_digests (loop, scale))
    in
    match memoized with
    | Some d -> d
    | None ->
        let d = Livermore.trace_digest (Livermore.scaled ~scale loop) in
        Mutex.protect trace_digests_lock (fun () ->
            Hashtbl.replace trace_digests (loop, scale) d);
        d

(* [scale] appears both as an explicit key dimension and through the trace
   digest, so a scaled run can never alias the default-size result even if
   two scales were ever to produce identical traces. Concatenated, not
   [sprintf]'d: every sweep and query keys each of its points. *)
let key p =
  String.concat ""
    [
      "mfu-point/v1 sim=";
      sim_version;
      " machine=";
      machine_to_string p.machine;
      " config=";
      config_to_key p.config;
      " loop=LL";
      string_of_int p.loop;
      " scale=";
      string_of_int p.scale;
      " trace=";
      trace_digest p.loop p.scale;
    ]

let run ?metrics p =
  let trace = Livermore.trace (Livermore.scaled ~scale:p.scale p.loop) in
  Mfu_model.simulate_exact ?metrics p.machine p.config trace

let run_metrics p =
  let metrics = Sim_types.Metrics.create () in
  let result = run ~metrics p in
  (result, metrics)

let family_tag = function
  | Single _ -> "single"
  | Dep _ -> "dep"
  | Buffer _ -> "buffer"
  | Ruu _ -> "ruu"

let family_key p =
  Printf.sprintf "%s loop=LL%d scale=%d" (family_tag p.machine) p.loop p.scale

(* -- surrogate ranking -------------------------------------------------------- *)

let rank points =
  (* Pareto depth per (machine, config, scale, loop class): a machine's
     figure of merit is its predicted class rate — the harmonic mean of
     its per-loop predictions over the class loops present, the same
     aggregation the exact Pareto analysis uses — so depth 0 is the
     predicted cost/class-rate frontier, depth 1 the frontier once
     depth 0 is peeled away, and so on. All of a machine's cells for
     one class share its depth: a best-first consumer finishes every
     predicted-optimal machine before touching a predicted-dominated
     one, which is exactly the order the guided sweep's dominance
     pruning profits from. *)
  let class_of loop = (Livermore.loop loop).Livermore.classification in
  let mk_of (p : point) =
    ( machine_to_string p.machine,
      config_to_key p.config,
      p.scale,
      class_of p.loop )
  in
  (* Build the machine key once per point, not once per comparison of
     the final sort. *)
  let scored =
    List.map
      (fun p ->
        let pred =
          Mfu_model.predict_rate ~config:p.config ~loop:p.loop ~scale:p.scale
            p.machine
        in
        (p, pred, mk_of p))
      points
  in
  (* machine key -> (cost, per-loop predictions) *)
  let machines = Hashtbl.create 64 in
  List.iter
    (fun ((p : point), pred, mk) ->
      match Hashtbl.find_opt machines mk with
      | Some (_, r) -> r := pred :: !r
      | None -> Hashtbl.add machines mk (cost p.machine, ref [ pred ]))
    scored;
  let class_pred = Hashtbl.create 64 in
  let groups = Hashtbl.create 16 in
  Hashtbl.iter
    (fun ((_, ck, scale, cls) as mk) (_, preds) ->
      Hashtbl.replace class_pred mk (Mfu_util.Stats.harmonic_mean !preds);
      match Hashtbl.find_opt groups (ck, scale, cls) with
      | Some r -> r := mk :: !r
      | None -> Hashtbl.add groups (ck, scale, cls) (ref [ mk ]))
    machines;
  let depth_tbl = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ members ->
      let rec peel depth remaining =
        if remaining <> [] then begin
          let sorted =
            List.sort
              (fun ((la, _, _, _) as a) ((lb, _, _, _) as b) ->
                let ca, _ = Hashtbl.find machines a
                and cb, _ = Hashtbl.find machines b in
                match compare ca cb with
                | 0 -> (
                    match
                      compare
                        (Hashtbl.find class_pred b)
                        (Hashtbl.find class_pred a)
                    with
                    | 0 -> String.compare la lb
                    | c -> c)
                | c -> c)
              remaining
          in
          let best = ref neg_infinity in
          let deeper =
            List.filter
              (fun mk ->
                let pred = Hashtbl.find class_pred mk in
                if pred > !best then begin
                  best := pred;
                  Hashtbl.replace depth_tbl mk depth;
                  false
                end
                else true)
              sorted
          in
          peel (depth + 1) deeper
        end
      in
      peel 0 !members)
    groups;
  (* Depth, then cost, then the higher class rate, then the point. *)
  List.map
    (fun ((p : point), pred, mk) ->
      ( Hashtbl.find depth_tbl mk,
        cost p.machine,
        Hashtbl.find class_pred mk,
        p,
        pred ))
    scored
  |> List.stable_sort (fun (da, ca, qa, a, _) (db, cb, qb, b, _) ->
         match Int.compare da db with
         | 0 -> (
             match Float.compare ca cb with
             | 0 -> (
                 match Float.compare qb qa with 0 -> compare a b | c -> c)
             | c -> c)
         | c -> c)
  |> List.map (fun (_, _, _, p, pred) -> (p, pred))

(* -- axis specification ------------------------------------------------------ *)

type t = {
  orgs : Single_issue.organization list;
  schemes : Dep_single.scheme list;
  policies : Buffer_issue.policy list;
  stations : int list;
  units : int list;
  sizes : int list;
  buses : Sim_types.bus_model list;
  branches : Ruu.branch_handling list;
  configs : Config.t list;
  loops : int list;
  scales : int list;
}

let all_loops = List.init 14 (fun i -> i + 1)

let empty =
  {
    orgs = [];
    schemes = [];
    policies = [];
    stations = [];
    units = [];
    sizes = [];
    buses = [ Sim_types.N_bus ];
    branches = [ Ruu.Stall ];
    configs = Config.all;
    loops = all_loops;
    scales = [ 1 ];
  }

let class_loops cls =
  List.map (fun (l : Livermore.loop) -> l.Livermore.number)
    (Livermore.of_class cls)

let paper_ruu_sizes = [ 10; 20; 30; 40; 50; 100 ]
let paper_ruu_units = [ 1; 2; 3; 4 ]

let table7 =
  {
    empty with
    units = paper_ruu_units;
    sizes = paper_ruu_sizes;
    buses = [ Sim_types.N_bus; Sim_types.One_bus ];
    loops = class_loops Livermore.Scalar;
  }

let table8 = { table7 with loops = class_loops Livermore.Vectorizable }

let machines axes =
  List.concat
    [
      List.map (fun org -> Single org) axes.orgs;
      List.map (fun scheme -> Dep scheme) axes.schemes;
      List.concat_map
        (fun policy ->
          List.concat_map
            (fun stations ->
              List.map (fun bus -> Buffer { policy; stations; bus }) axes.buses)
            axes.stations)
        axes.policies;
      List.concat_map
        (fun issue_units ->
          List.concat_map
            (fun ruu_size ->
              if ruu_size < issue_units then []
              else
                List.concat_map
                  (fun bus ->
                    List.map
                      (fun branches ->
                        Ruu { issue_units; ruu_size; bus; branches })
                      axes.branches)
                  axes.buses)
            axes.sizes)
        axes.units;
    ]

let enumerate axes =
  let points =
    List.concat_map
      (fun machine ->
        List.concat_map
          (fun config ->
            List.concat_map
              (fun loop ->
                List.map
                  (fun scale -> { machine; config; loop; scale })
                  axes.scales)
              axes.loops)
          axes.configs)
      (machines axes)
  in
  List.sort_uniq compare points

(* [a * b] and [a + b] for non-negative counts, saturating at [max_int]. *)
let sat_mul a b =
  if a = 0 || b = 0 then 0 else if a > max_int / b then max_int else a * b

let sat_add a b = if a > max_int - b then max_int else a + b

let count axes =
  let distinct xs = List.sort_uniq compare xs in
  let n xs = List.length (distinct xs) in
  (* RUU (units, size) pairs with [size >= units], as {!machines} keeps
     them: both axes ascending and deduplicated, so one merge pass. *)
  let ruu_pairs =
    let sizes = Array.of_list (distinct axes.sizes) in
    let rec go i acc = function
      | [] -> acc
      | u :: us when i < Array.length sizes && sizes.(i) < u ->
          go (i + 1) acc (u :: us)
      | _ :: us -> go i (acc + Array.length sizes - i) us
    in
    go 0 0 (distinct axes.units)
  in
  let machines =
    List.fold_left sat_add 0
      [
        n axes.orgs;
        n axes.schemes;
        sat_mul (n axes.policies) (sat_mul (n axes.stations) (n axes.buses));
        sat_mul ruu_pairs (sat_mul (n axes.buses) (n axes.branches));
      ]
  in
  List.fold_left sat_mul machines
    [ n axes.configs; n axes.loops; n axes.scales ]

(* -- spec parsing ------------------------------------------------------------ *)

let ( let* ) = Result.bind

(* An axis lists at most this many values: a spec arrives over the
   network, and a range or a run of [all]s must not make the parser
   allocate without bound. *)
let max_axis_values = 65_536

(* The values of the comma-separated parts of [s], in order, each part
   giving a list of values through [part_values]. *)
let axis_values field part_values s =
  let rec go acc n = function
    | [] -> Ok (List.rev acc)
    | part :: rest ->
        let* xs = part_values part in
        let n = n + List.length xs in
        if n > max_axis_values then
          Error
            (Printf.sprintf "%s: more than %d values" field max_axis_values)
        else go (List.rev_append xs acc) n rest
  in
  go [] 0 (String.split_on_char ',' s)

let int_list_of_string field s =
  let range part =
    match String.index_opt part '-' with
    | Some i when i > 0 ->
        let lo = int_of_string_opt (String.sub part 0 i) in
        let hi =
          int_of_string_opt (String.sub part (i + 1) (String.length part - i - 1))
        in
        (match (lo, hi) with
        | Some lo, Some hi
          when lo <= hi && hi - lo >= 0 && hi - lo < max_axis_values ->
            Ok (List.init (hi - lo + 1) (fun k -> lo + k))
        | _ -> Error (Printf.sprintf "%s: bad range %S" field part))
    | _ -> (
        match int_of_string_opt part with
        | Some n -> Ok [ n ]
        | None -> Error (Printf.sprintf "%s: bad integer %S" field part))
  in
  axis_values field (fun part -> range (String.trim part)) s

let keyword_list ~field ~table ~all s =
  axis_values field
    (fun part ->
      let part = String.trim (String.lowercase_ascii part) in
      if part = "all" then Ok all
      else
        match List.assoc_opt part table with
        | Some v -> Ok [ v ]
        | None -> Error (Printf.sprintf "%s: unknown value %S" field part))
    s

let org_table =
  [
    ("simple", Single_issue.Simple);
    ("serial", Single_issue.Serial_memory);
    ("nonseg", Single_issue.Non_segmented);
    ("cray", Single_issue.Cray_like);
  ]

let scheme_table =
  [ ("scoreboard", Dep_single.Scoreboard); ("tomasulo", Dep_single.Tomasulo) ]

let policy_table =
  [ ("inorder", Buffer_issue.In_order); ("ooo", Buffer_issue.Out_of_order) ]

let bus_table =
  [
    ("nbus", Sim_types.N_bus);
    ("1bus", Sim_types.One_bus);
    ("xbar", Sim_types.X_bar);
  ]

let config_table =
  List.map (fun c -> (String.lowercase_ascii (Config.name c), c)) Config.all

let branch_of_string field part =
  match String.trim (String.lowercase_ascii part) with
  | "stall" -> Ok Ruu.Stall
  | "oracle" -> Ok Ruu.Oracle
  | "static" -> Ok Ruu.Static_taken
  | s when String.length s > 8 && String.sub s 0 8 = "bimodal:" -> (
      match int_of_string_opt (String.sub s 8 (String.length s - 8)) with
      | Some n when n >= 1 -> Ok (Ruu.Bimodal n)
      | _ -> Error (Printf.sprintf "%s: bad bimodal size in %S" field part))
  | s -> Error (Printf.sprintf "%s: unknown value %S" field s)

let branch_list field s =
  axis_values field
    (fun part -> Result.map (fun b -> [ b ]) (branch_of_string field part))
    s

let loops_of_string field s =
  match String.trim (String.lowercase_ascii s) with
  | "all" -> Ok all_loops
  | "scalar" -> Ok (class_loops Livermore.Scalar)
  | "vector" | "vectorizable" -> Ok (class_loops Livermore.Vectorizable)
  | _ ->
      let* ns = int_list_of_string field s in
      if List.for_all (fun n -> n >= 1 && n <= 14) ns then Ok ns
      else Error (Printf.sprintf "%s: loop numbers must be 1..14" field)

let apply_clause axes clause =
  match String.index_opt clause '=' with
  | None -> Error (Printf.sprintf "clause %S is not axis=values" clause)
  | Some i ->
      let axis = String.trim (String.sub clause 0 i) in
      let values = String.sub clause (i + 1) (String.length clause - i - 1) in
      (match String.lowercase_ascii axis with
      | "org" ->
          let* orgs =
            keyword_list ~field:"org" ~table:org_table
              ~all:(List.map snd org_table) values
          in
          Ok { axes with orgs }
      | "dep" ->
          let* schemes =
            keyword_list ~field:"dep" ~table:scheme_table
              ~all:(List.map snd scheme_table) values
          in
          Ok { axes with schemes }
      | "policy" ->
          let* policies =
            keyword_list ~field:"policy" ~table:policy_table
              ~all:(List.map snd policy_table) values
          in
          Ok { axes with policies }
      | "stations" ->
          let* stations = int_list_of_string "stations" values in
          Ok { axes with stations }
      | "units" ->
          let* units = int_list_of_string "units" values in
          Ok { axes with units }
      | "size" ->
          let* sizes = int_list_of_string "size" values in
          Ok { axes with sizes }
      | "bus" ->
          let* buses =
            keyword_list ~field:"bus" ~table:bus_table
              ~all:(List.map snd bus_table) values
          in
          Ok { axes with buses }
      | "branch" ->
          let* branches = branch_list "branch" values in
          Ok { axes with branches }
      | "config" ->
          let* configs =
            keyword_list ~field:"config" ~table:config_table ~all:Config.all
              values
          in
          Ok { axes with configs }
      | "loops" ->
          let* loops = loops_of_string "loops" values in
          Ok { axes with loops }
      | "scale" ->
          let* scales = int_list_of_string "scale" values in
          if List.for_all (fun s -> s >= 1) scales then Ok { axes with scales }
          else Error "scale: factors must be >= 1"
      | other -> Error (Printf.sprintf "unknown axis %S" other))

let of_string s =
  match String.trim (String.lowercase_ascii s) with
  | "table7" -> Ok table7
  | "table8" -> Ok table8
  | "paper-ruu" -> Ok { table7 with loops = all_loops }
  | _ ->
      List.fold_left
        (fun acc clause ->
          let* axes = acc in
          let clause = String.trim clause in
          if clause = "" then Ok axes else apply_clause axes clause)
        (Ok empty)
        (String.split_on_char ';' s)

let to_string axes =
  let ints xs = String.concat "," (List.map string_of_int xs) in
  let keywords table vs =
    String.concat ","
      (List.filter_map
         (fun v ->
           List.find_map (fun (k, v') -> if v' = v then Some k else None) table)
         vs)
  in
  let branches =
    String.concat ","
      (List.map
         (function
           | Ruu.Stall -> "stall"
           | Ruu.Oracle -> "oracle"
           | Ruu.Static_taken -> "static"
           | Ruu.Bimodal n -> Printf.sprintf "bimodal:%d" n)
         axes.branches)
  in
  let clauses =
    List.filter
      (fun (_, v) -> v <> "")
      [
        ("org", keywords org_table axes.orgs);
        ("dep", keywords scheme_table axes.schemes);
        ("policy", keywords policy_table axes.policies);
        ("stations", ints axes.stations);
        ("units", ints axes.units);
        ("size", ints axes.sizes);
        ("bus", keywords bus_table axes.buses);
        ("branch", branches);
        ("config", keywords config_table axes.configs);
        ("loops", ints axes.loops);
        ("scale", if axes.scales = [ 1 ] then "" else ints axes.scales);
      ]
  in
  String.concat "; " (List.map (fun (k, v) -> k ^ "=" ^ v) clauses)

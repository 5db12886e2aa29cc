(* The design-space exploration subsystem: enumerator, content-addressed
   store, resumable sweep driver, and analysis layer.

   The two load-bearing guarantees exercised here:
   - crash safety: a store with a torn/corrupt entry heals on the next
     resumed sweep, which recomputes exactly the missing work (counted
     via simulator invocations in Sweep.stats);
   - fidelity: Table 7 reconstructed from stored results renders
     byte-identically to the direct engine. *)

module Axes = Mfu_explore.Axes
module Store = Mfu_explore.Store
module Sweep = Mfu_explore.Sweep
module Analyze = Mfu_explore.Analyze
module Sim_types = Mfu_sim.Sim_types
module Config = Mfu_isa.Config
module Livermore = Mfu_loops.Livermore
module Lease = Mfu_explore.Lease
module Writer = Mfu_util.Writer

let temp_store_dir () =
  let path = Filename.temp_file "mfu_store" "" in
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

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Child processes re-execute this binary with [child_flag] first on
   the command line: OCaml refuses [Unix.fork] in a process that has
   spawned a domain, and every sweep here spawns the store's writer
   domain. *)
let child_flag = "--explore-child"

let start_child ?(stdin = Unix.stdin) ?(stdout = Unix.stdout) args =
  let exe = Sys.executable_name in
  Unix.create_process exe
    (Array.of_list (exe :: child_flag :: args))
    stdin stdout Unix.stderr

let race_result = { Sim_types.cycles = 4242; instructions = 1717 }

let crash_of_string = function
  | "before" -> Store.Crash_before_publish
  | _ -> Store.Crash_after_publish

(* A child's whole life: open the store, do one thing, _exit. *)
let child_main = function
  | [ "put"; root; key ] ->
      let store = Store.open_ root in
      (* Ready on stdout; then the starting gun: stdin reaches EOF for
         every racer at once. *)
      ignore (Unix.write_substring Unix.stdout "r" 0 1);
      ignore (Unix.read Unix.stdin (Bytes.create 1) 0 1);
      Unix._exit
        (match Store.put store ~key race_result with
        | () -> 0
        | exception _ -> 1)
  | [ "compact"; crash; root ] ->
      (* exits 42 inside compact at the crash point *)
      (try
         ignore
           (Store.compact ~crash:(crash_of_string crash) (Store.open_ root))
       with _ -> ());
      Unix._exit 99
  | _ -> Unix._exit 2

let small_axes =
  { Axes.empty with units = [ 1; 2 ]; sizes = [ 10 ]; configs = [ Config.m11br5 ]; loops = [ 5 ] }

(* -- enumerator -------------------------------------------------------------- *)

let test_table7_grid () =
  let points = Axes.enumerate Axes.table7 in
  (* 4 units x 6 sizes x 2 buses x 4 configs x 5 scalar loops *)
  Alcotest.(check int) "table7 point count" (4 * 6 * 2 * 4 * 5)
    (List.length points);
  let points8 = Axes.enumerate Axes.table8 in
  Alcotest.(check int) "table8 point count" (4 * 6 * 2 * 4 * 9)
    (List.length points8)

let test_enumerate_dedups () =
  let doubled =
    {
      small_axes with
      Axes.units = [ 1; 2; 2; 1 ];
      sizes = [ 10; 10 ];
      loops = [ 5; 5 ];
    }
  in
  Alcotest.(check int) "duplicate axis values collapse"
    (List.length (Axes.enumerate small_axes))
    (List.length (Axes.enumerate doubled))

let test_enumerate_drops_invalid_ruu () =
  let axes = { small_axes with Axes.units = [ 4 ]; sizes = [ 2 ] } in
  Alcotest.(check int) "ruu smaller than issue width dropped" 0
    (List.length (Axes.enumerate axes))

let test_spec_roundtrip () =
  List.iter
    (fun axes ->
      match Axes.of_string (Axes.to_string axes) with
      | Ok axes' ->
          Alcotest.(check bool)
            (Printf.sprintf "roundtrip %S" (Axes.to_string axes))
            true
            (Axes.enumerate axes = Axes.enumerate axes')
      | Error e -> Alcotest.fail e)
    [ Axes.table7; Axes.table8; small_axes ]

let test_spec_parsing () =
  (match Axes.of_string "table7" with
  | Ok axes ->
      Alcotest.(check bool) "preset" true
        (Axes.enumerate axes = Axes.enumerate Axes.table7)
  | Error e -> Alcotest.fail e);
  (match Axes.of_string "org=cray,simple; policy=ooo; stations=1-3; loops=scalar" with
  | Ok axes ->
      (* 2 single orgs + 1 policy x 3 stations x 1 bus, x 4 configs x 5 loops *)
      Alcotest.(check int) "mixed families" ((2 + 3) * 4 * 5)
        (List.length (Axes.enumerate axes))
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Axes.of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" bad))
    [
      "nope=1"; "units=x"; "stations=5-1"; "loops=0"; "loops=15"; "bus=2bus";
      "branch=bimodal:0"; "units";
    ]

(* -- keys -------------------------------------------------------------------- *)

let test_keys_distinguish () =
  let base =
    {
      Axes.machine =
        Axes.Ruu
          {
            issue_units = 2;
            ruu_size = 10;
            bus = Sim_types.N_bus;
            branches = Mfu_sim.Ruu.Stall;
          };
      config = Config.m11br5;
      loop = 5;
      scale = 1;
    }
  in
  Alcotest.(check string) "key is stable" (Axes.key base) (Axes.key base);
  let variants =
    [
      { base with Axes.loop = 6 };
      { base with Axes.config = Config.m5br2 };
      (* same config name, different latency accounting *)
      {
        base with
        Axes.config = Config.make ~paper_scalar_add:true Config.M11 Config.BR5;
      };
      { base with Axes.machine = Axes.Single Mfu_sim.Single_issue.Cray_like };
      (* a scaled workload must never alias the default-size result *)
      { base with Axes.scale = 3 };
    ]
  in
  List.iter
    (fun p ->
      Alcotest.(check bool) "distinct keys" false (Axes.key p = Axes.key base))
    variants

(* A paper-sized digest comes from the table the build generates, so
   keying the whole Table 7/8 grid generates no trace. *)
let test_paper_keys_generate_no_trace () =
  let points =
    match Axes.of_string "paper-ruu" with
    | Ok axes -> Axes.enumerate axes
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "paper-ruu points" 2688 (List.length points);
  Mfu_loops.Trace_cache.clear ();
  List.iter (fun p -> ignore (Axes.key p : string)) points;
  let s = Mfu_loops.Trace_cache.stats () in
  Alcotest.(check (pair int int)) "trace cache misses, entries" (0, 0)
    (s.misses, s.entries)

(* The serve daemon's /stats attributes compute time under these
   labels, and consumers sum them by name: the strings are part of the
   interface. Machine parameters and the latency configuration collapse
   into one family; loop and scale stay apart. *)
let test_family_key () =
  let ruu issue_units ruu_size bus =
    Axes.Ruu { issue_units; ruu_size; bus; branches = Mfu_sim.Ruu.Stall }
  in
  let point ?(config = Config.m11br5) ?(loop = 5) ?(scale = 1) machine =
    { Axes.machine; config; loop; scale }
  in
  List.iter
    (fun (want, p) -> Alcotest.(check string) want want (Axes.family_key p))
    [
      ("ruu loop=LL5 scale=1", point (ruu 2 10 Sim_types.N_bus));
      ("ruu loop=LL5 scale=1", point (ruu 4 50 Sim_types.X_bar));
      ( "ruu loop=LL5 scale=1",
        point ~config:Config.m5br2 (ruu 1 10 Sim_types.One_bus) );
      ("ruu loop=LL12 scale=1", point ~loop:12 (ruu 2 10 Sim_types.N_bus));
      ("ruu loop=LL5 scale=3", point ~scale:3 (ruu 2 10 Sim_types.N_bus));
      ( "single loop=LL5 scale=1",
        point (Axes.Single Mfu_sim.Single_issue.Cray_like) );
      ("dep loop=LL5 scale=1", point (Axes.Dep Mfu_sim.Dep_single.Tomasulo));
      ( "buffer loop=LL5 scale=1",
        point
          (Axes.Buffer
             {
               policy = Mfu_sim.Buffer_issue.Out_of_order;
               stations = 4;
               bus = Sim_types.N_bus;
             }) );
    ]

let mixed_spec =
  "org=cray,simple; dep=all; policy=ooo; stations=1-2; units=1-2; size=10; \
   config=m11br5; loops=1,5,12"

let mixed_points () =
  match Axes.of_string mixed_spec with
  | Ok axes -> Axes.enumerate axes
  | Error e -> Alcotest.fail e

(* Surrogate ranking is a deterministic permutation: every point comes
   back exactly once, and the order does not depend on the order the
   points were handed in. *)
let test_rank_is_deterministic_permutation () =
  let points = mixed_points () in
  let ranked = List.map fst (Axes.rank points) in
  let keys ps = List.sort compare (List.map Axes.key ps) in
  Alcotest.(check (list string)) "a permutation" (keys points) (keys ranked);
  Alcotest.(check (list string))
    "input order does not matter"
    (List.map Axes.key ranked)
    (List.map (fun (p, _) -> Axes.key p) (Axes.rank (List.rev points)))

(* The table7 rank order, pinned: one line per ranked point, its key
   and its predicted rate in hex, so a reorder or a changed prediction
   shows up here rather than only as a slower stream. The serve tests
   compare streams against [Axes.rank] itself and cannot catch one. *)
let test_rank_order_pinned () =
  let lines =
    List.map
      (fun (p, pred) -> Axes.key p ^ Printf.sprintf " %h" pred)
      (Axes.rank (Axes.enumerate Axes.table7))
  in
  Alcotest.(check string) "table7 rank md5" "1bfcd52b441e2651f478e5f14bb1f0f9"
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

let test_scale_axis () =
  (* the scale axis parses, roundtrips and crosses into the enumeration *)
  (match Axes.of_string "org=cray; loops=5; scale=1,3" with
  | Ok axes ->
      let points = Axes.enumerate axes in
      Alcotest.(check int) "scales crossed" (2 * List.length Config.all)
        (List.length points);
      Alcotest.(check bool) "roundtrip" true
        (match Axes.of_string (Axes.to_string axes) with
        | Ok axes' -> Axes.enumerate axes' = points
        | Error _ -> false)
  | Error e -> Alcotest.fail e);
  (match Axes.of_string "scale=0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "scale=0 should not parse");
  (* a scaled point's result is a genuinely different experiment: the
     store must file it separately and return distinct numbers *)
  with_store (fun store ->
      let point scale =
        {
          Axes.machine = Axes.Single Mfu_sim.Single_issue.Cray_like;
          config = Config.m11br5;
          loop = 5;
          scale;
        }
      in
      let points = [ point 1; point 3 ] in
      let results, stats = Sweep.run ~jobs:1 ~store points in
      Alcotest.(check int) "both computed" 2 stats.Sweep.computed;
      match List.map snd results with
      | [ r1; r3 ] ->
          Alcotest.(check bool) "scaled trace is longer" true
            (r3.Sim_types.instructions > 2 * r1.Sim_types.instructions)
      | _ -> Alcotest.fail "expected two results")

(* -- store ------------------------------------------------------------------- *)

let test_store_roundtrip () =
  with_store (fun store ->
      let key = "mfu-point/v1 test-key" in
      let result = { Sim_types.cycles = 123; instructions = 45 } in
      Alcotest.(check bool) "miss before put" true (Store.find store ~key = None);
      Store.put store ~key result;
      Alcotest.(check bool) "hit after put" true
        (Store.find store ~key = Some result);
      Alcotest.(check int) "entry count" 1 (Store.entry_count store);
      (* writes are temp+rename: no residue in tmp/ *)
      Alcotest.(check int) "tmp is empty" 0
        (Array.length (Sys.readdir (Filename.concat (Store.root store) "tmp"))))

(* The writing handle answers its own entries from memory, so the
   corrupt file is read through a second handle. *)
let test_store_quarantines_corruption () =
  with_store (fun store ->
      let key = "some key" in
      Store.put store ~key { Sim_types.cycles = 1; instructions = 1 };
      let path = Store.entry_path store ~key in
      (* torn write: truncate the entry mid-JSON *)
      let oc = open_out path in
      output_string oc "{ \"schema\": \"mfu-result/v1\",";
      close_out oc;
      let reader = Store.open_ (Store.root store) in
      (match Store.lookup reader ~key with
      | `Corrupt -> ()
      | `Hit _ | `Miss -> Alcotest.fail "expected `Corrupt");
      Alcotest.(check bool) "entry quarantined, gone from objects/" false
        (Sys.file_exists path);
      Alcotest.(check int) "quarantine holds the bad file" 1
        (List.length (Store.quarantined reader));
      Alcotest.(check bool) "subsequent lookups miss" true
        (Store.lookup reader ~key = `Miss))

(* A handle answers what it [put] from memory: no read, even once the
   file is damaged. Any other handle reads and validates the file, and a
   compaction by the writer validates it too. An entry another handle
   wrote is read and validated once, then answered from memory. *)
let test_store_answers_own_writes () =
  with_store (fun store ->
      let result = { Sim_types.cycles = 31; instructions = 17 } in
      let damaged = "mfu-point/v1 own-write-damaged" in
      let folded = "mfu-point/v1 own-write-folded" in
      List.iter (fun key -> Store.put store ~key result) [ damaged; folded ];
      let reads = Store.loose_reads store in
      Alcotest.(check bool) "own write hits" true
        (Store.lookup store ~key:damaged = `Hit result);
      Alcotest.(check int) "own write: no read" reads (Store.loose_reads store);
      let truncate key =
        let path = Store.entry_path store ~key in
        let text = read_file path in
        let oc = open_out path in
        output_string oc (String.sub text 0 20);
        close_out oc
      in
      List.iter truncate [ damaged; folded ];
      Alcotest.(check bool) "truncated own write still hits" true
        (Store.lookup store ~key:damaged = `Hit result);
      Alcotest.(check int) "truncated own write: no read" reads
        (Store.loose_reads store);
      let fresh = Store.open_ (Store.root store) in
      Alcotest.(check bool) "fresh handle: corrupt" true
        (Store.lookup fresh ~key:damaged = `Corrupt);
      Alcotest.(check bool) "fresh handle quarantined the file" false
        (Sys.file_exists (Store.entry_path store ~key:damaged));
      let c = Store.compact store in
      Alcotest.(check int) "compact folds nothing damaged" 0 c.Store.folded;
      Alcotest.(check bool) "compact quarantined the writer's file" false
        (Sys.file_exists (Store.entry_path store ~key:folded));
      Alcotest.(check int) "both damaged files in quarantine" 2
        (List.length (Store.quarantined store));
      List.iter
        (fun key ->
          Alcotest.(check bool) "writer misses after compaction" true
            (Store.lookup store ~key = `Miss))
        [ damaged; folded ];
      (* Once another handle republishes a key, the file is no longer
         this handle's write: damage done before the first read is
         caught, and a valid file is read once. *)
      List.iter (fun key -> Store.put fresh ~key result) [ damaged; folded ];
      truncate damaged;
      Alcotest.(check bool) "damaged republished entry: corrupt" true
        (Store.lookup store ~key:damaged = `Corrupt);
      (* [store] finds the valid file by probing, [later] by its open
         scan; each reads it once. *)
      let later = Store.open_ (Store.root store) in
      List.iter
        (fun h ->
          let reads = Store.loose_reads h in
          Alcotest.(check bool) "republished entry hits" true
            (Store.lookup h ~key:folded = `Hit result);
          Alcotest.(check int) "republished entry: one read" (reads + 1)
            (Store.loose_reads h);
          Alcotest.(check bool) "read entry hits again" true
            (Store.lookup h ~key:folded = `Hit result);
          Alcotest.(check int) "read entry: no second read" (reads + 1)
            (Store.loose_reads h))
        [ store; later ])

let test_store_rejects_key_swap () =
  with_store (fun store ->
      (* an entry copied under the wrong name must not be served *)
      let key_a = "key a" and key_b = "key b" in
      Store.put store ~key:key_a { Sim_types.cycles = 7; instructions = 7 };
      let path_b = Store.entry_path store ~key:key_b in
      let dir = Filename.dirname path_b in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let text = read_file (Store.entry_path store ~key:key_a) in
      let oc = open_out path_b in
      output_string oc text;
      close_out oc;
      Alcotest.(check bool) "wrong-name entry rejected" true
        (Store.lookup store ~key:key_b = `Corrupt))

(* A process killed between open_out and rename leaves a torn staging
   file in tmp/. It must be invisible to lookups and swept on the next
   open — never renamed into objects/ or served. *)
let test_store_ignores_and_sweeps_torn_tmp () =
  let dir = temp_store_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let store = Store.open_ dir in
      let key = "mfu-point/v1 torn-tmp-key" in
      let tmp = Filename.concat (Store.root store) "tmp" in
      let torn = Filename.concat tmp "deadbeef.json.tmp.12345.0" in
      let oc = open_out torn in
      output_string oc "{ \"schema\": \"mfu-result/v1\", \"key\": ";
      close_out oc;
      Alcotest.(check bool) "torn tmp never serves a key" true
        (Store.lookup store ~key = `Miss);
      Alcotest.(check int) "no quarantine from a tmp orphan" 0
        (List.length (Store.quarantined store));
      (* Too young to sweep: a live writer's staging file is protected. *)
      let store = Store.open_ dir in
      Alcotest.(check bool) "fresh staging file survives open" true
        (Sys.file_exists torn);
      Alcotest.(check int) "explicit sweep removes it" 1
        (Store.sweep_tmp ~older_than:0. store);
      Alcotest.(check bool) "orphan gone" false (Sys.file_exists torn);
      Alcotest.(check int) "sweep is idempotent" 0
        (Store.sweep_tmp ~older_than:0. store))

let test_store_stats () =
  with_store (fun store ->
      let s0 = Store.stats store in
      Alcotest.(check int) "empty store: no entries" 0 s0.Store.entries;
      Alcotest.(check int) "empty store: no bytes" 0 s0.Store.bytes;
      let keys = List.init 20 (Printf.sprintf "mfu-point/v1 stats-key-%d") in
      List.iter
        (fun key -> Store.put store ~key { Sim_types.cycles = 9; instructions = 3 })
        keys;
      let s = Store.stats store in
      Alcotest.(check int) "entries counted" 20 s.Store.entries;
      Alcotest.(check int) "histogram sums to entries" 20
        (Array.fold_left ( + ) 0 s.Store.fanout_histogram);
      Alcotest.(check int) "256 shards" 256
        (Array.length s.Store.fanout_histogram);
      let on_disk =
        List.fold_left
          (fun acc key ->
            acc + String.length (read_file (Store.entry_path store ~key)))
          0 keys
      in
      Alcotest.(check int) "bytes are the entry files' sizes" on_disk
        s.Store.bytes;
      Alcotest.(check int) "reopened: sizes stat'ed on demand" on_disk
        (Store.stats (Store.open_ (Store.root store))).Store.bytes;
      Alcotest.(check int) "no quarantine" 0 s.Store.quarantined_count;
      (* Quarantine one and recount, through a handle that did not write
         the entry and so reads it. *)
      let victim = List.hd keys in
      let oc = open_out (Store.entry_path store ~key:victim) in
      output_string oc "torn";
      close_out oc;
      let reader = Store.open_ (Store.root store) in
      (match Store.lookup reader ~key:victim with
      | `Corrupt -> ()
      | _ -> Alcotest.fail "expected `Corrupt");
      let s' = Store.stats reader in
      Alcotest.(check int) "entry moved out" 19 s'.Store.entries;
      Alcotest.(check int) "quarantine counted" 1 s'.Store.quarantined_count)

(* -- packed segments --------------------------------------------------------- *)

let pack_key i = Printf.sprintf "mfu-point/v1 pack-key-%d" i

let pack_result i = { Sim_types.cycles = 1000 + i; instructions = 100 + i }

let populate store n =
  List.iter
    (fun i -> Store.put store ~key:(pack_key i) (pack_result i))
    (List.init n Fun.id)

let check_all_hit ?(msg = "packed lookup hits") store n =
  List.iter
    (fun i ->
      match Store.lookup store ~key:(pack_key i) with
      | `Hit r -> Alcotest.(check bool) msg true (r = pack_result i)
      | `Miss | `Corrupt ->
          Alcotest.fail (Printf.sprintf "%s: key %d missing" msg i))
    (List.init n Fun.id)

let test_compact_roundtrip () =
  with_store (fun store ->
      let n = 25 in
      populate store n;
      let loose_texts =
        List.init n (fun i -> read_file (Store.entry_path store ~key:(pack_key i)))
      in
      let c = Store.compact store in
      Alcotest.(check int) "all loose entries folded" n c.Store.folded;
      Alcotest.(check bool) "a segment was written" true
        (c.Store.segment = Some 1);
      Alcotest.(check bool) "pack has bytes" true (c.Store.pack_bytes > 0);
      Alcotest.(check bool) "loose bytes reclaimed" true
        (c.Store.reclaimed_bytes > 0);
      Alcotest.(check bool) "pack file exists" true
        (Sys.file_exists (Store.segment_pack_path store ~seq:1));
      Alcotest.(check bool) "idx sidecar exists" true
        (Sys.file_exists (Store.segment_idx_path store ~seq:1));
      List.iteri
        (fun i _ ->
          Alcotest.(check bool) "loose file gone" false
            (Sys.file_exists (Store.entry_path store ~key:(pack_key i))))
        loose_texts;
      check_all_hit store n;
      let s = Store.stats store in
      Alcotest.(check int) "entries unchanged" n s.Store.entries;
      Alcotest.(check int) "no loose entries left" 0 s.Store.loose_entries;
      Alcotest.(check int) "all entries packed" n s.Store.packed_entries;
      Alcotest.(check int) "one segment" 1 s.Store.segment_count;
      Alcotest.(check bool) "nothing to do twice" true
        (Store.compact store = Store.no_compaction);
      (* A cold reopen serves the same results from the pack alone. *)
      let reopened = Store.open_ (Store.root store) in
      check_all_hit ~msg:"reopened packed lookup hits" reopened n;
      (* unpack restores the exact loose bytes and removes the segments *)
      Alcotest.(check int) "unpack restores every entry" n
        (Store.unpack store);
      List.iteri
        (fun i text ->
          Alcotest.(check string) "restored loose file is byte-identical" text
            (read_file (Store.entry_path store ~key:(pack_key i))))
        loose_texts;
      Alcotest.(check bool) "segments deleted" false
        (Sys.file_exists (Store.segment_pack_path store ~seq:1));
      let s' = Store.stats store in
      Alcotest.(check int) "back to loose" n s'.Store.loose_entries;
      Alcotest.(check int) "no segments" 0 s'.Store.segment_count)

(* kill -9 at the two interesting instants of a compaction. The child
   process runs the real compaction code up to the injected crash point
   and _exits; the parent then reopens cold and checks that no entry
   was lost or duplicated. *)
let crash_during_compaction crash check =
  with_store (fun store ->
      let n = 12 in
      populate store n;
      (match
         Unix.waitpid [] (start_child [ "compact"; crash; Store.root store ])
       with
      | _, Unix.WEXITED 42 -> ()
      | _ -> Alcotest.fail "child did not stop at the crash point");
      let reopened = Store.open_ (Store.root store) in
      Alcotest.(check int) "no entry lost or duplicated" n
        (Store.entry_count reopened);
      check_all_hit ~msg:"post-crash lookup hits" reopened n;
      check reopened n)

let test_compact_crash_before_publish () =
  crash_during_compaction "before" (fun store n ->
      let s = Store.stats store in
      (* the segment never appeared: only tmp/ residue, swept as usual *)
      Alcotest.(check int) "no segment published" 0 s.Store.segment_count;
      Alcotest.(check int) "all entries still loose" n s.Store.loose_entries;
      Alcotest.(check bool) "staging residue swept" true
        (Store.sweep_tmp ~older_than:0. store >= 1))

let test_compact_crash_after_publish () =
  crash_during_compaction "after" (fun store n ->
      let s = Store.stats store in
      (* both copies exist; loose shadows packed, so nothing is wrong *)
      Alcotest.(check int) "segment published" 1 s.Store.segment_count;
      Alcotest.(check int) "loose copies survive" n s.Store.loose_entries;
      Alcotest.(check int) "packed copies shadowed" n s.Store.shadowed_records;
      (* a full compaction converges the store back to one clean pack *)
      let c = Store.compact ~full:true store in
      Alcotest.(check int) "loose copies folded" n c.Store.folded;
      let s' = Store.stats store in
      Alcotest.(check int) "one segment again" 1 s'.Store.segment_count;
      Alcotest.(check int) "no shadowed records" 0 s'.Store.shadowed_records;
      Alcotest.(check int) "entry count stable" n s'.Store.entries;
      check_all_hit ~msg:"converged lookup hits" store n)

(* A handle that indexed loose entries before another process compacted
   them must keep answering: the vanished loose file triggers a segment
   rescan, and the read is served from the new pack. The entries are
   written through a handle of their own: a writer answers its own
   entries from memory and never notices the files vanish. *)
let test_reader_during_compaction () =
  with_store (fun writer ->
      let n = 10 in
      populate writer n;
      let reader = Store.open_ (Store.root writer) in
      let compactor = Store.open_ (Store.root writer) in
      let c = Store.compact compactor in
      Alcotest.(check int) "compactor folded everything" n c.Store.folded;
      check_all_hit ~msg:"reader follows the compaction" reader n;
      let s = Store.stats reader in
      Alcotest.(check int) "reader sees packed entries" n
        s.Store.packed_entries)

(* Two handles opened on one store, each compacting its own write: the
   second finds the first's segment number taken, loads that segment
   and claims the next, so a fresh handle finds both entries. *)
let test_two_compactors_keep_both () =
  with_store (fun a ->
      let b = Store.open_ (Store.root a) in
      let x = { Sim_types.cycles = 11; instructions = 5 } in
      let y = { Sim_types.cycles = 13; instructions = 7 } in
      Store.put a ~key:"key-x" x;
      Store.put b ~key:"key-y" y;
      let ca = Store.compact a in
      let cb = Store.compact b in
      Alcotest.(check (option int)) "A publishes segment 1" (Some 1)
        ca.Store.segment;
      Alcotest.(check (option int)) "B publishes segment 2" (Some 2)
        cb.Store.segment;
      let fresh = Store.open_ (Store.root a) in
      Alcotest.(check bool) "key-x found" true
        (Store.find fresh ~key:"key-x" = Some x);
      Alcotest.(check bool) "key-y found" true
        (Store.find fresh ~key:"key-y" = Some y);
      Alcotest.(check bool) "B sees key-x too" true
        (Store.find b ~key:"key-x" = Some x);
      Alcotest.(check int) "no staging residue" 0
        (Store.sweep_tmp ~older_than:0. fresh))

let test_corrupt_segment_record () =
  with_store (fun store ->
      let n = 5 in
      populate store n;
      Store.compact store |> ignore;
      let pack_path = Store.segment_pack_path store ~seq:1 in
      let pack = read_file pack_path in
      (* flip a byte inside record 2's key: its MD5 closes over the key,
         so validation fails for exactly that record, and the idx
         sidecar preserves framing for the rest *)
      let victim = 2 in
      let pos =
        let needle = pack_key victim in
        let rec find i =
          if i + String.length needle > String.length pack then
            Alcotest.fail "victim key not found in pack"
          else if String.sub pack i (String.length needle) = needle then i
          else find (i + 1)
        in
        find 0
      in
      let bytes = Bytes.of_string pack in
      Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 1));
      let oc = open_out_bin pack_path in
      output_bytes oc bytes;
      close_out oc;
      let reopened = Store.open_ (Store.root store) in
      Alcotest.(check bool) "victim record is gone" true
        (Store.lookup reopened ~key:(pack_key victim) = `Miss);
      List.iter
        (fun i ->
          if i <> victim then
            match Store.lookup reopened ~key:(pack_key i) with
            | `Hit r ->
                Alcotest.(check bool) "other records survive" true
                  (r = pack_result i)
            | `Miss | `Corrupt ->
                Alcotest.fail
                  (Printf.sprintf "record %d lost to a neighbour's corruption" i))
        (List.init n Fun.id);
      Alcotest.(check bool) "corrupt record quarantined" true
        (List.length (Store.quarantined reopened) >= 1))

let test_idx_rebuilt_when_missing () =
  with_store (fun store ->
      let n = 8 in
      populate store n;
      Store.compact store |> ignore;
      let idx = Store.segment_idx_path store ~seq:1 in
      Sys.remove idx;
      let reopened = Store.open_ (Store.root store) in
      check_all_hit ~msg:"sequential scan recovers every record" reopened n;
      Alcotest.(check bool) "idx sidecar rebuilt" true (Sys.file_exists idx))

let test_put_shadows_packed () =
  with_store (fun store ->
      populate store 3;
      Store.compact store |> ignore;
      (* republish key 1 with different numbers: the loose write wins *)
      let fresh = { Sim_types.cycles = 777777; instructions = 4242 } in
      Store.put store ~key:(pack_key 1) fresh;
      Alcotest.(check bool) "loose rewrite shadows the packed record" true
        (Store.find store ~key:(pack_key 1) = Some fresh);
      let s = Store.stats store in
      Alcotest.(check int) "entry count stable" 3 s.Store.entries;
      Alcotest.(check int) "one shadowed record" 1 s.Store.shadowed_records;
      (* the same is true for a cold reopen *)
      let reopened = Store.open_ (Store.root store) in
      Alcotest.(check bool) "reopen prefers the loose copy" true
        (Store.find reopened ~key:(pack_key 1) = Some fresh);
      (* and a full compaction drops the dead record *)
      let c = Store.compact ~full:true store in
      Alcotest.(check bool) "dead record dropped" true (c.Store.dropped >= 1);
      let s' = Store.stats store in
      Alcotest.(check int) "no shadowed records" 0 s'.Store.shadowed_records;
      Alcotest.(check int) "one segment" 1 s'.Store.segment_count;
      Alcotest.(check bool) "fresh result survived the rewrite" true
        (Store.find store ~key:(pack_key 1) = Some fresh))

let test_foreign_files_tolerated () =
  with_store (fun store ->
      populate store 2;
      let objects = Filename.concat (Store.root store) "objects" in
      (* a stray top-level file and a stray file inside a shard dir *)
      let write path text =
        let oc = open_out path in
        output_string oc text;
        close_out oc
      in
      write (Filename.concat objects "README.txt") "not an entry\n";
      let shard = Filename.dirname (Store.entry_path store ~key:(pack_key 0)) in
      write (Filename.concat shard "notes.orig") "editor backup\n";
      let reopened = Store.open_ (Store.root store) in
      let s = Store.stats reopened in
      Alcotest.(check int) "entries unaffected" 2 s.Store.entries;
      Alcotest.(check int) "foreign files counted, not fatal" 2
        s.Store.foreign_files;
      check_all_hit ~msg:"entries still served" reopened 2)

(* A directory named like an entry is no entry, wherever the store
   meets it: the open scan indexes names only, so the first read or
   stats call demotes it to foreign — counted once, never served, never
   quarantined, never folded by a compaction. *)
let test_entry_named_directory_is_foreign () =
  with_store (fun store ->
      populate store 2;
      let impostor = Store.entry_path store ~key:(pack_key 7) in
      (try Sys.mkdir (Filename.dirname impostor) 0o755
       with Sys_error _ -> ());
      Sys.mkdir impostor 0o755;
      let untouched what store =
        Alcotest.(check bool) (what ^ ": directory still in place") true
          (Sys.is_directory impostor);
        Alcotest.(check (list string)) (what ^ ": nothing quarantined") []
          (Store.quarantined store)
      in
      let by_stats = Store.open_ (Store.root store) in
      let s = Store.stats by_stats in
      Alcotest.(check int) "stats: two entries" 2 s.Store.entries;
      Alcotest.(check int) "stats: one foreign" 1 s.Store.foreign_files;
      Alcotest.(check bool) "stats: then a miss" true
        (Store.lookup by_stats ~key:(pack_key 7) = `Miss);
      untouched "stats first" by_stats;
      let by_read = Store.open_ (Store.root store) in
      Alcotest.(check bool) "read: a miss" true
        (Store.lookup by_read ~key:(pack_key 7) = `Miss);
      Alcotest.(check bool) "read: again a miss" true
        (Store.lookup by_read ~key:(pack_key 7) = `Miss);
      let s = Store.stats by_read in
      Alcotest.(check int) "read: two entries" 2 s.Store.entries;
      Alcotest.(check int) "read: counted once" 1 s.Store.foreign_files;
      untouched "read first" by_read;
      let by_compact = Store.open_ (Store.root store) in
      let c = Store.compact by_compact in
      Alcotest.(check int) "compact: folds the real entries" 2 c.Store.folded;
      Alcotest.(check int) "compact: one foreign" 1
        (Store.stats by_compact).Store.foreign_files;
      untouched "compact" by_compact;
      check_all_hit ~msg:"entries still served" by_compact 2)

(* The open scan accepts exactly [<32 lower-case hex>.json] in the shard
   its first two digits name, and counts every other name as foreign. *)
let test_loose_name_scan () =
  with_store (fun store ->
      let key = pack_key 0 in
      Store.put store ~key (pack_result 0);
      let path = Store.entry_path store ~key in
      let shard_dir = Filename.dirname path in
      let shard = Filename.basename shard_dir in
      let hex = Filename.chop_suffix (Filename.basename path) ".json" in
      let other_shard = if shard = "00" then "01" else "00" in
      let touch dir name =
        (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
        close_out (open_out (Filename.concat dir name))
      in
      (* accepted: a well-formed name of this shard (with no valid
         entry inside, which only a read would find) *)
      let accepted = shard ^ String.make 30 'e' in
      touch shard_dir (accepted ^ ".json");
      let foreign =
        [
          (* mixed-case hex *)
          shard ^ "ABCDEF" ^ String.make 24 'a' ^ ".json";
          shard ^ String.make 29 'a' ^ "F.json";
          (* a well-formed name filed under the wrong shard *)
          other_shard ^ String.make 30 'a' ^ ".json";
          (* a staging name *)
          hex ^ ".json.tmp";
          (* 36 and 38 bytes *)
          String.sub hex 0 31 ^ ".json";
          hex ^ "0.json";
          (* 37 bytes, not hex, or not .json *)
          shard ^ String.make 29 'a' ^ "g.json";
          hex ^ ".jsom";
        ]
      in
      List.iter (touch shard_dir) foreign;
      (* a shard directory named in upper case is foreign as a whole *)
      touch
        (Filename.concat (Filename.dirname shard_dir) "AB")
        ("ab" ^ String.make 30 'a' ^ ".json");
      let reopened = Store.open_ (Store.root store) in
      let s = Store.stats reopened in
      Alcotest.(check int) "entry and well-formed name accepted" 2
        s.Store.entries;
      Alcotest.(check int) "every other name foreign" (List.length foreign + 1)
        s.Store.foreign_files;
      (* the accepted name decodes to the digest of its key *)
      let reads = Store.loose_reads reopened in
      Alcotest.(check bool) "scanned entry hits" true
        (Store.lookup reopened ~key = `Hit (pack_result 0));
      Alcotest.(check int) "read from the scanned name" (reads + 1)
        (Store.loose_reads reopened))

(* The manifest is rewritten only when its bytes would change: a warm
   sweep leaves the file (inode and mtime) alone, and a tampered or
   missing one is repaired. *)
let test_manifest_written_when_changed () =
  with_store (fun store ->
      let manifest = Filename.concat (Store.root store) "MANIFEST.json" in
      let points = Axes.enumerate small_axes in
      ignore (Sweep.run ~jobs:1 ~store points);
      let text = read_file manifest in
      let before = Unix.stat manifest in
      let warm = Store.open_ (Store.root store) in
      let _, stats = Sweep.run ~jobs:1 ~store:warm points in
      Alcotest.(check int) "warm sweep computes nothing" 0 stats.Sweep.computed;
      let after = Unix.stat manifest in
      Alcotest.(check int) "same inode" before.Unix.st_ino after.Unix.st_ino;
      Alcotest.(check (float 0.)) "same mtime" before.Unix.st_mtime
        after.Unix.st_mtime;
      Alcotest.(check string) "same bytes" text (read_file manifest);
      let oc = open_out manifest in
      output_string oc "{\"entries\": 99}\n";
      close_out oc;
      ignore (Sweep.run ~jobs:1 ~store:warm points);
      Alcotest.(check string) "tampered manifest rewritten" text
        (read_file manifest);
      Sys.remove manifest;
      Store.refresh_manifest warm;
      Alcotest.(check string) "missing manifest rewritten" text
        (read_file manifest))

(* A packed record whose framing and MD5 are intact but whose entry
   names another key is no entry of its framing key: quarantined at
   open, served under neither key. *)
let test_packed_key_mismatch () =
  with_store (fun store ->
      populate store 2;
      ignore (Store.compact store);
      let framed = "mfu-point/v1 framed-key" in
      let named = "mfu-point/v1 named-key" in
      let payload =
        Mfu_util.Json.(
          to_string
            (Obj
               [
                 ("schema", String Store.schema);
                 ("key", String named);
                 ("digest", String (Store.digest_of_key framed));
                 ("result", Obj [ ("cycles", Int 5); ("instructions", Int 3) ]);
               ]))
        ^ "\n"
      in
      let buf = Buffer.create 1024 in
      Buffer.add_string buf Store.pack_magic;
      let u32 n =
        let b = Bytes.create 4 in
        Bytes.set_int32_be b 0 (Int32.of_int n);
        Buffer.add_bytes buf b
      in
      u32 (String.length framed);
      u32 (String.length payload);
      Buffer.add_string buf framed;
      Buffer.add_string buf payload;
      Buffer.add_string buf (Digest.string (framed ^ payload));
      let oc = open_out_bin (Store.segment_pack_path store ~seq:2) in
      Buffer.output_buffer oc buf;
      close_out oc;
      let reopened = Store.open_ (Store.root store) in
      List.iter
        (fun key ->
          Alcotest.(check bool) ("never served: " ^ key) true
            (Store.lookup reopened ~key = `Miss))
        [ framed; named ];
      Alcotest.(check (list string)) "record quarantined"
        [
          Printf.sprintf "pack-00000002-%d.record"
            (String.length Store.pack_magic);
        ]
        (Store.quarantined reopened);
      check_all_hit ~msg:"first segment still served" reopened 2;
      Alcotest.(check int) "two entries" 2 (Store.entry_count reopened))

(* A key holding a quote and a backslash takes the parser's escape
   path: it survives every layout change byte for byte. *)
let test_escaped_key_roundtrip () =
  with_store (fun store ->
      let key = "mfu-point/v1 q\"uote\\back\\\"slash" in
      let result = { Sim_types.cycles = 66; instructions = 22 } in
      Store.put store ~key result;
      let path = Store.entry_path store ~key in
      let text = read_file path in
      let reader = Store.open_ (Store.root store) in
      Alcotest.(check bool) "read back by a fresh handle" true
        (Store.lookup reader ~key = `Hit result);
      Alcotest.(check int) "compaction folds it" 1
        (Store.compact reader).Store.folded;
      let reopened = Store.open_ (Store.root store) in
      Alcotest.(check bool) "served from the pack" true
        (Store.lookup reopened ~key = `Hit result);
      Alcotest.(check (list string)) "nothing quarantined" []
        (Store.quarantined reopened);
      Alcotest.(check int) "unpacked" 1 (Store.unpack reopened);
      Alcotest.(check string) "loose bytes restored" text (read_file path);
      Alcotest.(check bool) "unpacked entry read by a fresh handle" true
        (Store.lookup (Store.open_ (Store.root store)) ~key = `Hit result))

(* Opening a packed store reads its sidecars, not its records: a record
   is read and validated by its first lookup, once, and the open's
   [stats] reports the store exactly as the handle that wrote it sees
   it. *)
let test_packed_validated_on_first_read () =
  with_store (fun store ->
      let n = 6 in
      populate store n;
      ignore (Store.compact store);
      let reopened = Store.open_ (Store.root store) in
      Alcotest.(check int) "open validates no record" 0
        (Store.packed_reads reopened);
      Alcotest.(check bool) "stats of unread records equal the writer's" true
        (Store.stats reopened = Store.stats store);
      Alcotest.(check int) "stats read no record" 0
        (Store.packed_reads reopened);
      let hit i =
        Alcotest.(check bool) "packed hit" true
          (Store.lookup reopened ~key:(pack_key i) = `Hit (pack_result i))
      in
      hit 3;
      Alcotest.(check int) "first lookup validates its record" 1
        (Store.packed_reads reopened);
      hit 3;
      Alcotest.(check int) "second lookup reads nothing" 1
        (Store.packed_reads reopened);
      hit 0;
      Alcotest.(check int) "another key validates its own record" 2
        (Store.packed_reads reopened);
      Alcotest.(check int) "no loose read" 0 (Store.loose_reads reopened))

(* Two domains taking the first read of the same records: each gets
   every result right, and each record is validated at most twice. *)
let test_packed_first_read_race () =
  with_store (fun store ->
      let n = 40 in
      populate store n;
      ignore (Store.compact store);
      let reader = Store.open_ (Store.root store) in
      let read_all () =
        List.for_all
          (fun i ->
            Store.lookup reader ~key:(pack_key i) = `Hit (pack_result i))
          (List.init n Fun.id)
      in
      let other = Domain.spawn read_all in
      let here = read_all () in
      Alcotest.(check bool) "this domain's results" true here;
      Alcotest.(check bool) "the other domain's results" true
        (Domain.join other);
      let reads = Store.packed_reads reader in
      Alcotest.(check bool) "each record read once or twice" true
        (reads >= n && reads <= 2 * n);
      check_all_hit ~msg:"answered from memory" reader n;
      Alcotest.(check int) "no further read" reads (Store.packed_reads reader))

(* A record a handle has not read yet stays readable when another handle
   deletes its segment: after a full compaction the handle finds the
   record's copy in the new segment, after an unpack its loose file. *)
let test_unread_record_outlives_its_segment () =
  with_store (fun store ->
      let n = 5 in
      populate store n;
      ignore (Store.compact store);
      let root = Store.root store in
      let before_full = Store.open_ root in
      let before_unpack = Store.open_ root in
      let other = Store.open_ root in
      Store.put other ~key:(pack_key n) (pack_result n);
      let c = Store.compact ~full:true other in
      Alcotest.(check int) "full compaction rewrote the records" n
        c.Store.rewritten;
      Alcotest.(check bool) "segment 1 deleted" false
        (Sys.file_exists (Store.segment_pack_path store ~seq:1));
      check_all_hit ~msg:"served from the new segment" before_full (n + 1);
      Alcotest.(check int) "unpacked" (n + 1) (Store.unpack other);
      check_all_hit ~msg:"served from the unpacked files" before_unpack
        (n + 1);
      Alcotest.(check (list string)) "nothing quarantined" []
        (Store.quarantined other))

(* A sidecar whose digests were swapped between two offsets (its own
   checksum redone) files each of the two records under the other's key.
   The first read finds the framing key is not the key looked up: both
   records are quarantined and neither is served under the wrong key. *)
let test_sidecar_naming_wrong_record () =
  with_store (fun store ->
      let n = 4 in
      populate store n;
      ignore (Store.compact store);
      let path = Store.segment_idx_path store ~seq:1 in
      let idx = Bytes.of_string (read_file path) in
      let body = String.length "mfu-pack-idx/v1\n" in
      let first = Bytes.sub idx (body + 4) 16 in
      Bytes.blit idx (body + 4 + 24) idx (body + 4) 16;
      Bytes.blit first 0 idx (body + 4 + 24) 16;
      let body_len = Bytes.length idx - body - 16 in
      Bytes.blit_string
        (Digest.string (Bytes.sub_string idx body body_len))
        0 idx (body + body_len) 16;
      let oc = open_out_bin path in
      output_bytes oc idx;
      close_out oc;
      let reopened = Store.open_ (Store.root store) in
      let answers =
        List.init n (fun i ->
            match Store.lookup reopened ~key:(pack_key i) with
            | `Hit r when r = pack_result i -> `Right
            | `Hit _ -> `Wrong
            | `Miss | `Corrupt -> `Absent)
      in
      Alcotest.(check int) "no wrong result" 0
        (List.length (List.filter (( = ) `Wrong) answers));
      Alcotest.(check int) "the two misfiled records are absent" 2
        (List.length (List.filter (( = ) `Absent) answers));
      Alcotest.(check int) "and quarantined" 2
        (List.length (Store.quarantined reopened)))

(* Byte-level damage to a segment and its sidecar: flips, truncations
   and splices of a compacted store's .pack and .idx, and digits changed
   in place — damage that keeps the JSON well-formed, which only the
   record's MD5 can catch. Reopened with the damaged sidecar (records
   indexed, validated on first read) and without one (sequential scan),
   every key must answer its exact result, a miss or corrupt — never a
   wrong result, an exception or a hang. *)
type damage =
  | Flip of int * int
  | Digit of int * int
  | Truncate of int
  | Splice of int * int * int

let damage_gen =
  QCheck.Gen.(
    let pos = int_bound 100_000 in
    frequency
      [
        (3, map2 (fun p b -> Flip (p, b)) pos (int_bound 7));
        (2, map2 (fun p d -> Digit (p, d)) pos (int_range 1 9));
        (1, map (fun n -> Truncate n) pos);
        ( 2,
          map3
            (fun src dst n -> Splice (src, dst, n))
            pos pos (int_range 1 600) );
      ])

let apply_damage text = function
  | _ when text = "" -> text
  | Digit (p, d) -> (
      (* the [p]-th ASCII digit, if any, moved [d] places on *)
      let digits =
        List.filter
          (fun i -> text.[i] >= '0' && text.[i] <= '9')
          (List.init (String.length text) Fun.id)
      in
      match digits with
      | [] -> text
      | _ ->
          let i = List.nth digits (p mod List.length digits) in
          let b = Bytes.of_string text in
          Bytes.set b i
            (Char.chr (48 + ((Char.code text.[i] - 48 + d) mod 10)));
          Bytes.to_string b)
  | Flip (p, bit) ->
      let b = Bytes.of_string text in
      let p = p mod Bytes.length b in
      Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor (1 lsl bit)));
      Bytes.to_string b
  | Truncate n -> String.sub text 0 (n mod (String.length text + 1))
  | Splice (src, dst, n) ->
      (* copy [n] bytes from [src] over [dst], within the file *)
      let len = String.length text in
      let src = src mod len and dst = dst mod len in
      let n = min n (min (len - src) (len - dst)) in
      let b = Bytes.of_string text in
      Bytes.blit_string text src b dst n;
      Bytes.to_string b

let show_damage = function
  | Flip (p, b) -> Printf.sprintf "flip %d bit %d" p b
  | Digit (p, d) -> Printf.sprintf "digit %d +%d" p d
  | Truncate n -> Printf.sprintf "truncate %d" n
  | Splice (s, d, n) -> Printf.sprintf "splice %d->%d x%d" s d n

let segment_fuzz =
  let n = 6 in
  let pristine =
    lazy
      (let dir = temp_store_dir () in
       Fun.protect
         ~finally:(fun () -> rm_rf dir)
         (fun () ->
           let store = Store.open_ dir in
           populate store n;
           ignore (Store.compact store);
           ( read_file (Store.segment_pack_path store ~seq:1),
             read_file (Store.segment_idx_path store ~seq:1) )))
  in
  let arb =
    QCheck.make
      ~print:(fun (p, i) ->
        Printf.sprintf "pack: [%s] idx: [%s]"
          (String.concat "; " (List.map show_damage p))
          (String.concat "; " (List.map show_damage i)))
      QCheck.Gen.(
        pair (list_size (int_bound 3) damage_gen)
          (list_size (int_bound 2) damage_gen))
  in
  QCheck.Test.make ~name:"damaged segments never serve a wrong result"
    ~count:120 arb (fun (pack_damage, idx_damage) ->
      let pack, idx = Lazy.force pristine in
      let pack = List.fold_left apply_damage pack pack_damage in
      let idx = List.fold_left apply_damage idx idx_damage in
      List.for_all
        (fun with_idx ->
          let dir = temp_store_dir () in
          Fun.protect
            ~finally:(fun () -> rm_rf dir)
            (fun () ->
              let write name text =
                let oc = open_out_bin (Filename.concat dir name) in
                output_string oc text;
                close_out oc
              in
              Sys.mkdir dir 0o755;
              Sys.mkdir (Filename.concat dir "segments") 0o755;
              write "segments/00000001.pack" pack;
              if with_idx then write "segments/00000001.idx" idx;
              let store = Store.open_ dir in
              let answers () =
                List.for_all
                  (fun i ->
                    match Store.lookup store ~key:(pack_key i) with
                    | `Hit r -> r = pack_result i
                    | `Miss | `Corrupt -> true)
                  (List.init n Fun.id)
              in
              answers () && answers ()))
        [ true; false ])

(* Two processes racing to publish the same mfu-point/v1 key: exactly
   one valid entry must survive, and every reader must see one writer's
   complete bytes. The children synchronize on a pipe so both write
   windows genuinely overlap. *)
let test_store_concurrent_publication () =
  with_store (fun store ->
      let key = "mfu-point/v1 race-key" in
      let result = race_result in
      let expected_text =
        (* What a clean single-writer publication looks like. *)
        Store.put store ~key result;
        let text = read_file (Store.entry_path store ~key) in
        Sys.remove (Store.entry_path store ~key);
        text
      in
      for _round = 1 to 10 do
        let go_r, go_w = Unix.pipe ~cloexec:true () in
        let ready_r, ready_w = Unix.pipe ~cloexec:true () in
        (* Child: say it is ready, wait for the starting gun on its
           stdin, publish, exit. *)
        let spawn () =
          start_child ~stdin:go_r ~stdout:ready_w
            [ "put"; Store.root store; key ]
        in
        let pids = [ spawn (); spawn () ] in
        Unix.close go_r;
        Unix.close ready_w;
        let rec await n =
          if n > 0 then
            match Unix.read ready_r (Bytes.create 2) 0 n with
            | 0 -> ()
            | got -> await (n - got)
        in
        await 2;
        Unix.close ready_r;
        (* Fire the gun by closing the write end: every child's read
           returns EOF at the same instant. *)
        Unix.close go_w;
        List.iter
          (fun pid ->
            match Unix.waitpid [] pid with
            | _, Unix.WEXITED 0 -> ()
            | _ -> Alcotest.fail "racing publisher crashed")
          pids;
        (* A fresh handle reads the file the race left. *)
        (match Store.lookup (Store.open_ (Store.root store)) ~key with
        | `Hit r ->
            Alcotest.(check bool) "surviving entry is valid and exact" true
              (r = result)
        | `Miss | `Corrupt -> Alcotest.fail "no valid entry after the race");
        Alcotest.(check string) "surviving bytes are one complete write"
          expected_text
          (read_file (Store.entry_path store ~key));
        Sys.remove (Store.entry_path store ~key)
      done;
      Alcotest.(check int) "no staging residue" 0
        (Store.sweep_tmp ~older_than:0. store))

(* -- sweep ------------------------------------------------------------------- *)

let test_sweep_resume_counts () =
  with_store (fun store ->
      let points = Axes.enumerate small_axes in
      let n = List.length points in
      Alcotest.(check int) "two points" 2 n;
      let results, stats = Sweep.run ~jobs:1 ~store points in
      Alcotest.(check int) "first run computes all" n stats.Sweep.computed;
      Alcotest.(check int) "first run reuses none" 0 stats.Sweep.reused;
      (* every result equals a direct simulation *)
      List.iter
        (fun (p, r) ->
          Alcotest.(check bool) "store returns the engine's numbers" true
            (r = Axes.run p))
        results;
      let results', stats' = Sweep.run ~jobs:1 ~store points in
      Alcotest.(check int) "resume computes nothing" 0 stats'.Sweep.computed;
      Alcotest.(check int) "resume reuses all" n stats'.Sweep.reused;
      Alcotest.(check bool) "identical results" true (results = results');
      let _, stats'' = Sweep.run ~jobs:1 ~resume:false ~store points in
      Alcotest.(check int) "resume:false recomputes all" n
        stats''.Sweep.computed)

(* One scalar walk per point, whatever the worker count: a sweep over
   every machine family writes byte-identical entries at one and at
   three workers, each holding the engine's own numbers. *)
let test_sweep_mixed_families_jobs_identical () =
  let points = List.filter (fun p -> p.Axes.loop = 5) (mixed_points ()) in
  with_store (fun seq ->
      with_store (fun par ->
          let results, stats = Sweep.run ~jobs:1 ~store:seq points in
          let _, stats' = Sweep.run ~jobs:3 ~store:par points in
          let n = List.length points in
          Alcotest.(check int) "jobs=1 computes all" n stats.Sweep.computed;
          Alcotest.(check int) "jobs=3 computes all" n stats'.Sweep.computed;
          List.iter
            (fun (p, r) ->
              Alcotest.(check bool) "store holds the engine's numbers" true
                (r = Axes.run p))
            results;
          List.iter
            (fun p ->
              let key = Axes.key p in
              Alcotest.(check string) "entry bytes identical"
                (read_file (Store.entry_path seq ~key))
                (read_file (Store.entry_path par ~key)))
            points))

(* What a sweep returns is what the store holds: every result equals
   [Store.find] of its key. *)
let check_results_match_store ~what store results =
  List.iter
    (fun (p, r) ->
      Alcotest.(check bool) (what ^ ": result is the stored one") true
        (Store.find store ~key:(Axes.key p) = Some r))
    results

(* The read path, counted: a cold sweep reads no entry (its lookups
   probe paths holding nothing, and it returns what it published), a
   warm sweep over loose entries reads each exactly once, a compaction
   reads each loose file once, and a warm sweep over packed entries
   reads none. *)
let test_sweep_reads_each_entry_once () =
  with_store (fun store ->
      let points = Axes.enumerate { small_axes with Axes.sizes = [ 10; 20 ] } in
      let n = List.length points in
      Alcotest.(check int) "four points" 4 n;
      let reads_of store f =
        let before = Store.loose_reads store in
        let v = f () in
        (Store.loose_reads store - before, v)
      in
      let cold_reads, (cold, _) =
        reads_of store (fun () -> Sweep.run ~jobs:1 ~store points)
      in
      Alcotest.(check int) "cold: no reads" 0 cold_reads;
      check_results_match_store ~what:"cold" store cold;
      let warm = Store.open_ (Store.root store) in
      let loose_reads, (loose, stats) =
        reads_of warm (fun () -> Sweep.run ~jobs:1 ~store:warm points)
      in
      Alcotest.(check int) "warm loose: all reused" n stats.Sweep.reused;
      Alcotest.(check int) "warm loose: one read per entry" n loose_reads;
      check_results_match_store ~what:"warm loose" warm loose;
      let compact_reads, c = reads_of warm (fun () -> Store.compact warm) in
      Alcotest.(check int) "compact: all folded" n c.Store.folded;
      Alcotest.(check int) "compact: one read per loose file" n compact_reads;
      let packed_reads, (packed, _) =
        reads_of warm (fun () -> Sweep.run ~jobs:1 ~store:warm points)
      in
      Alcotest.(check int) "warm packed: no reads" 0 packed_reads;
      check_results_match_store ~what:"warm packed" warm packed;
      Alcotest.(check bool) "same results on every path" true
        (cold = loose && loose = packed))

let test_sweep_heals_truncated_entry () =
  with_store (fun store ->
      let points = Axes.enumerate small_axes in
      let _, _ = Sweep.run ~jobs:1 ~store points in
      let victim = List.hd points in
      let path = Store.entry_path store ~key:(Axes.key victim) in
      let before = read_file path in
      (* kill mid-write: truncate the entry file *)
      let oc = open_out path in
      output_string oc (String.sub before 0 20);
      close_out oc;
      (* The resumed sweep is a later process: a handle that did not
         write the entries, so it reads them. *)
      let store = Store.open_ (Store.root store) in
      let results, stats = Sweep.run ~jobs:1 ~store points in
      Alcotest.(check int) "exactly one invocation to heal" 1
        stats.Sweep.computed;
      Alcotest.(check int) "one corrupt entry detected" 1
        stats.Sweep.quarantined;
      Alcotest.(check int) "others reused"
        (List.length points - 1)
        stats.Sweep.reused;
      Alcotest.(check string) "healed entry is byte-identical" before
        (read_file path);
      List.iter
        (fun (p, r) ->
          Alcotest.(check bool) "healed results correct" true (r = Axes.run p))
        results;
      check_results_match_store ~what:"healed" store results)

(* A leased sweep publishes on the writer domain: store entry, then
   lease release. At one job the releases come in point order, so a
   watcher domain follows them key by key: it polls a key's lease file
   (named by the key's digest) until it is gone, and the key's entry
   file must exist by then. *)
let test_sweep_releases_lease_after_entry () =
  with_store (fun store ->
      let dir = Lease.default_dir ~store_root:(Store.root store) in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let lease = Lease.create ~dir () in
          let points =
            Axes.enumerate
              {
                small_axes with
                Axes.sizes = [ 10; 20; 30; 40; 50; 60; 70; 80 ];
              }
          in
          let files =
            List.map
              (fun p ->
                let key = Axes.key p in
                ( Filename.concat dir (Store.digest_of_key key ^ ".lease"),
                  Store.entry_path store ~key ))
              points
          in
          let stop = Atomic.make false in
          let watcher =
            Domain.spawn (fun () ->
                while
                  (not (Atomic.get stop))
                  && not (List.exists (fun (l, _) -> Sys.file_exists l) files)
                do
                  Domain.cpu_relax ()
                done;
                List.filter_map
                  (fun (lease_file, entry) ->
                    let seen = ref false in
                    while Sys.file_exists lease_file && not (Atomic.get stop) do
                      seen := true
                    done;
                    if !seen && not (Sys.file_exists entry) then Some entry
                    else None)
                  files)
          in
          let _, stats =
            Fun.protect
              ~finally:(fun () -> Atomic.set stop true)
              (fun () -> Sweep.run ~jobs:1 ~lease ~store points)
          in
          let early = Domain.join watcher in
          Alcotest.(check int) "all computed" (List.length points)
            stats.Sweep.computed;
          Alcotest.(check (list string)) "no lease released before its entry"
            [] early))

(* A publication that fails (tmp/ is a regular file, so staging fails
   even for root) raises out of Sweep.run once the writer has run every
   submitted publication, rather than hanging. *)
let test_sweep_publication_failure_raises () =
  with_store (fun store ->
      let tmp = Filename.concat (Store.root store) "tmp" in
      rm_rf tmp;
      close_out (open_out tmp);
      match Sweep.run ~jobs:1 ~store (Axes.enumerate small_axes) with
      | exception Sys_error _ -> ()
      | _ -> Alcotest.fail "a failed publication must raise")

(* A run that publishes nothing starts no writer domain; a cold one
   starts it and joins it before returning. *)
let test_warm_sweep_starts_no_writer () =
  with_store (fun store ->
      let points = Axes.enumerate small_axes in
      let before = Writer.started () in
      let _, cold = Sweep.run ~jobs:1 ~store points in
      Alcotest.(check int) "cold: every point published"
        (List.length points) cold.Sweep.published;
      Alcotest.(check bool) "cold: a writer domain ran" true
        (Writer.started () > before);
      let after_cold = Writer.started () in
      let _, warm = Sweep.run ~jobs:1 ~store points in
      Alcotest.(check int) "warm: nothing published" 0 warm.Sweep.published;
      Alcotest.(check int) "warm: no writer domain" after_cold
        (Writer.started ()))

let test_sweep_rejects_duplicate_keys () =
  with_store (fun store ->
      let p = List.hd (Axes.enumerate small_axes) in
      match Sweep.run ~jobs:1 ~store [ p; p ] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "duplicate keys must be rejected")

(* -- analysis ---------------------------------------------------------------- *)

let cand label cost rate =
  {
    Analyze.machine = Axes.Single Mfu_sim.Single_issue.Simple;
    label;
    cost;
    rate;
  }

let labels cs = List.map (fun c -> c.Analyze.label) cs

let test_pareto () =
  let cands =
    [
      cand "cheap-slow" 1. 0.2;
      cand "dominated" 2. 0.1;
      cand "mid" 3. 0.6;
      cand "tie-a" 3. 0.6;
      cand "rich-fast" 10. 0.9;
      cand "rich-slower" 11. 0.8;
    ]
  in
  Alcotest.(check (list string)) "frontier"
    [ "cheap-slow"; "mid"; "rich-fast" ]
    (labels (Analyze.pareto cands));
  Alcotest.(check (list string)) "empty" [] (labels (Analyze.pareto []))

let test_knee () =
  (match Analyze.knee [] with
  | None -> ()
  | Some _ -> Alcotest.fail "knee of empty frontier");
  let frontier =
    [ cand "a" 0. 0.; cand "b" 1. 0.9; cand "c" 2. 0.95; cand "d" 10. 1.0 ]
  in
  match Analyze.knee frontier with
  | Some k -> Alcotest.(check string) "diminishing returns at b" "b" k.Analyze.label
  | None -> Alcotest.fail "expected a knee"

let test_table7_byte_identical_via_store () =
  with_store (fun store ->
      let points = Axes.enumerate Axes.table7 in
      let results, _ = Sweep.run ~store points in
      let from_store =
        Analyze.ruu_table ~cls:Livermore.Scalar ~sizes:Axes.paper_ruu_sizes
          ~units:Axes.paper_ruu_units results
      in
      let direct = Mfu.Experiments.table7 () in
      let render t =
        Mfu_util.Table.render
          (Mfu.Reporting.render_ruu_table
             ~title:"Table 7. RUU dependency resolution, scalar code" t)
      in
      Alcotest.(check string) "store reproduces Table 7 byte-identically"
        (render direct) (render from_store))

let () =
  match Array.to_list Sys.argv with
  | _ :: flag :: args when flag = child_flag -> child_main args
  | _ ->
  Alcotest.run "explore"
    [
      ( "axes",
        [
          Alcotest.test_case "table7/8 grids" `Quick test_table7_grid;
          Alcotest.test_case "dedup" `Quick test_enumerate_dedups;
          Alcotest.test_case "invalid ruu dropped" `Quick
            test_enumerate_drops_invalid_ruu;
          Alcotest.test_case "spec roundtrip" `Quick test_spec_roundtrip;
          Alcotest.test_case "spec parsing" `Quick test_spec_parsing;
          Alcotest.test_case "keys distinguish" `Quick test_keys_distinguish;
          Alcotest.test_case "scale axis" `Quick test_scale_axis;
          Alcotest.test_case "family key labels" `Quick test_family_key;
          Alcotest.test_case "paper-sized keys generate no trace" `Quick
            test_paper_keys_generate_no_trace;
          Alcotest.test_case "rank is a deterministic permutation" `Quick
            test_rank_is_deterministic_permutation;
          Alcotest.test_case "table7 rank order pinned" `Quick
            test_rank_order_pinned;
        ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "quarantines corruption" `Quick
            test_store_quarantines_corruption;
          Alcotest.test_case "rejects key swap" `Quick
            test_store_rejects_key_swap;
          Alcotest.test_case "ignores and sweeps torn tmp files" `Quick
            test_store_ignores_and_sweeps_torn_tmp;
          Alcotest.test_case "stats" `Quick test_store_stats;
          Alcotest.test_case "answers its writes and reads from memory" `Quick
            test_store_answers_own_writes;
          Alcotest.test_case "concurrent publication race" `Quick
            test_store_concurrent_publication;
        ] );
      ( "segments",
        [
          Alcotest.test_case "compact/unpack roundtrip" `Quick
            test_compact_roundtrip;
          Alcotest.test_case "crash before segment publish" `Quick
            test_compact_crash_before_publish;
          Alcotest.test_case "crash after segment publish" `Quick
            test_compact_crash_after_publish;
          Alcotest.test_case "reader survives concurrent compaction" `Quick
            test_reader_during_compaction;
          Alcotest.test_case "two compactors keep both entries" `Quick
            test_two_compactors_keep_both;
          Alcotest.test_case "corrupt record quarantined, rest served" `Quick
            test_corrupt_segment_record;
          Alcotest.test_case "idx rebuilt when missing" `Quick
            test_idx_rebuilt_when_missing;
          Alcotest.test_case "loose rewrite shadows packed" `Quick
            test_put_shadows_packed;
          Alcotest.test_case "foreign files tolerated" `Quick
            test_foreign_files_tolerated;
          Alcotest.test_case "directory named like an entry is foreign"
            `Quick test_entry_named_directory_is_foreign;
          Alcotest.test_case "loose name scan" `Quick test_loose_name_scan;
          Alcotest.test_case "packed entry naming another key" `Quick
            test_packed_key_mismatch;
          Alcotest.test_case "escaped key round trip" `Quick
            test_escaped_key_roundtrip;
          Alcotest.test_case "packed record validated on first read" `Quick
            test_packed_validated_on_first_read;
          Alcotest.test_case "two domains take one first read" `Quick
            test_packed_first_read_race;
          Alcotest.test_case "sidecar naming the wrong record" `Quick
            test_sidecar_naming_wrong_record;
          Alcotest.test_case "unread record outlives its segment" `Quick
            test_unread_record_outlives_its_segment;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 27 |])
            segment_fuzz;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "resume counts invocations" `Quick
            test_sweep_resume_counts;
          Alcotest.test_case "manifest written only when changed" `Quick
            test_manifest_written_when_changed;
          Alcotest.test_case "mixed families identical across jobs" `Quick
            test_sweep_mixed_families_jobs_identical;
          Alcotest.test_case "reads each entry once" `Quick
            test_sweep_reads_each_entry_once;
          Alcotest.test_case "heals truncated entry" `Quick
            test_sweep_heals_truncated_entry;
          Alcotest.test_case "rejects duplicate keys" `Quick
            test_sweep_rejects_duplicate_keys;
          Alcotest.test_case "lease released only after its entry" `Quick
            test_sweep_releases_lease_after_entry;
          Alcotest.test_case "publication failure raises" `Quick
            test_sweep_publication_failure_raises;
          Alcotest.test_case "warm sweep starts no writer" `Quick
            test_warm_sweep_starts_no_writer;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "pareto" `Quick test_pareto;
          Alcotest.test_case "knee" `Quick test_knee;
          Alcotest.test_case "table 7 via store is byte-identical" `Slow
            test_table7_byte_identical_via_store;
        ] );
    ]

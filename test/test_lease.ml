(* The lease layer under multi-process store draining: atomic
   acquisition, visibility of live leases across holders, steal on
   expiry (or on a torn lease file), owner-checked release, and the
   Sweep.run integration — a held key must settle via the owner's
   published entry (deferred) or via a steal, never by waiting forever
   or computing twice while the owner is live. *)

module Axes = Mfu_explore.Axes
module Store = Mfu_explore.Store
module Sweep = Mfu_explore.Sweep
module Lease = Mfu_explore.Lease
module Sim_types = Mfu_sim.Sim_types
module Config = Mfu_isa.Config
module Server = Mfu_serve.Server
module Client = Mfu_serve.Client
module Protocol = Mfu_serve.Protocol

let temp_dir () =
  let path = Filename.temp_file "mfu_lease" "" in
  Sys.remove path;
  path

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let key = "mfu-point/v1 lease-test-key"

let test_acquire_and_hold () =
  with_dir (fun dir ->
      let a = Lease.create ~ttl:60. ~dir () in
      let b = Lease.create ~ttl:60. ~dir () in
      (match Lease.try_acquire a ~key with
      | Lease.Acquired -> ()
      | Lease.Held _ -> Alcotest.fail "fresh key should acquire");
      (match Lease.try_acquire b ~key with
      | Lease.Held { pid; expires_in } ->
          Alcotest.(check int) "owner pid visible" (Unix.getpid ()) pid;
          (* The stored deadline is JSON ~%.12g — an epoch rounds by a
             few ms, so allow a hair over the nominal TTL. *)
          Alcotest.(check bool) "deadline in the future" true
            (expires_in > 0. && expires_in <= 60.1)
      | Lease.Acquired -> Alcotest.fail "live lease must not be reacquired");
      (* The owner itself may re-enter (retry loops do this). *)
      (match Lease.try_acquire a ~key with
      | Lease.Acquired -> ()
      | Lease.Held _ -> Alcotest.fail "own live lease should re-acquire");
      Alcotest.(check int) "no steal involved" 0 (Lease.stolen a);
      Lease.release a ~key;
      (match Lease.try_acquire b ~key with
      | Lease.Acquired -> ()
      | Lease.Held _ -> Alcotest.fail "released key should acquire");
      (* Releasing a key someone else now owns must not drop their lease. *)
      Lease.release a ~key;
      match Lease.try_acquire a ~key with
      | Lease.Held _ -> ()
      | Lease.Acquired -> Alcotest.fail "foreign release must be a no-op")

let test_steal_on_expiry () =
  with_dir (fun dir ->
      let a = Lease.create ~ttl:0.05 ~dir () in
      let b = Lease.create ~ttl:60. ~dir () in
      (match Lease.try_acquire a ~key with
      | Lease.Acquired -> ()
      | Lease.Held _ -> Alcotest.fail "fresh key should acquire");
      Unix.sleepf 0.08;
      (match Lease.try_acquire b ~key with
      | Lease.Acquired -> ()
      | Lease.Held _ -> Alcotest.fail "expired lease should be stolen");
      Alcotest.(check int) "steal counted" 1 (Lease.stolen b);
      (* The original owner's release must not remove the thief's lease. *)
      Lease.release a ~key;
      match Lease.try_acquire a ~key with
      | Lease.Held _ -> ()
      | Lease.Acquired -> Alcotest.fail "stolen lease still live for others")

let lease_path dir k = Filename.concat dir (Store.digest_of_key k ^ ".lease")

let lease_files dir =
  List.filter
    (fun f -> Filename.check_suffix f ".lease")
    (Array.to_list (Sys.readdir dir))

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A batch-linked lease stolen after expiry, then released by its old
   owner along with the rest of the batch: the thief's lease stays,
   byte for byte, and the old owner's other leases go. *)
let test_old_owner_release_spares_stolen_key () =
  with_dir (fun dir ->
      let a = Lease.create ~ttl:0.05 ~dir () in
      let ks = List.init 3 (Printf.sprintf "mfu-point/v1 stolen-batch-%d") in
      List.iter
        (function
          | Lease.Acquired -> () | Lease.Held _ -> Alcotest.fail "fresh batch")
        (Lease.try_acquire_many a ks);
      Unix.sleepf 0.08;
      let stolen_key = List.nth ks 1 in
      let thief = Lease.create ~ttl:60. ~dir () in
      (match Lease.try_acquire thief ~key:stolen_key with
      | Lease.Acquired -> ()
      | Lease.Held _ -> Alcotest.fail "expired lease should be stolen");
      let path = lease_path dir stolen_key in
      let thiefs = read_all path in
      List.iter (fun key -> Lease.release a ~key) ks;
      Alcotest.(check (list string)) "only the stolen lease is left"
        [ Filename.basename path ] (lease_files dir);
      Alcotest.(check string) "the thief's bytes, untouched" thiefs
        (read_all path);
      Lease.release thief ~key:stolen_key;
      Alcotest.(check (list string)) "the thief releases its own" []
        (lease_files dir))

(* Expired and torn leases are collected in one pass; live ones, ours
   or another holder's, and staged files are not. *)
let test_collect_expired () =
  with_dir (fun dir ->
      let dead = Lease.create ~ttl:0.05 ~dir () in
      let live = Lease.create ~ttl:60. ~dir () in
      let k = Printf.sprintf "mfu-point/v1 collect-%d" in
      ignore (Lease.try_acquire_many dead [ k 0; k 1 ]);
      ignore (Lease.try_acquire live ~key:(k 2));
      let torn = lease_path dir (k 3) in
      let oc = open_out torn in
      output_string oc "{ \"schema\": \"mfu-lease/v1\", \"pid";
      close_out oc;
      let staged = Filename.concat dir "stage.someone.0.tmp" in
      close_out (open_out staged);
      Unix.sleepf 0.08;
      let collector = Lease.create ~ttl:60. ~dir () in
      Alcotest.(check int) "two expired and one torn" 3
        (Lease.collect_expired collector);
      Alcotest.(check (list string)) "the live lease is left"
        [ Store.digest_of_key (k 2) ^ ".lease" ]
        (lease_files dir);
      Alcotest.(check bool) "staged file left alone" true
        (Sys.file_exists staged);
      (match Lease.try_acquire collector ~key:(k 2) with
      | Lease.Held _ -> ()
      | Lease.Acquired -> Alcotest.fail "live lease must stay held");
      Alcotest.(check int) "collection is not stealing" 0
        (Lease.stolen collector);
      Alcotest.(check int) "nothing left to collect" 0
        (Lease.collect_expired collector))

let test_steal_on_torn_file () =
  with_dir (fun dir ->
      let a = Lease.create ~ttl:60. ~dir () in
      let torn = Filename.concat dir (Store.digest_of_key key ^ ".lease") in
      let oc = open_out torn in
      output_string oc "{ \"schema\": \"mfu-lease/v1\", \"pid";
      close_out oc;
      (match Lease.try_acquire a ~key with
      | Lease.Acquired -> ()
      | Lease.Held _ -> Alcotest.fail "torn lease should be stolen");
      Alcotest.(check int) "torn file counts as a steal" 1 (Lease.stolen a))

let keys n = List.init n (Printf.sprintf "mfu-point/v1 lease-batch-key-%04d")

let staged_files dir =
  List.filter
    (String.starts_with ~prefix:"stage.")
    (Array.to_list (Sys.readdir dir))

let check_all_acquired what outcomes =
  List.iteri
    (fun i -> function
      | Lease.Acquired -> ()
      | Lease.Held _ -> Alcotest.failf "%s: key %d held" what i)
    outcomes

(* A table7-sized batch: 960 fresh leases are 960 names of one inode. *)
let test_batch_shares_one_inode () =
  with_dir (fun dir ->
      let a = Lease.create ~ttl:60. ~dir () in
      let ks = keys 960 in
      check_all_acquired "fresh batch" (Lease.try_acquire_many a ks);
      let stats = List.map (fun k -> Unix.stat (lease_path dir k)) ks in
      let ino = (List.hd stats).Unix.st_ino in
      List.iter
        (fun st ->
          Alcotest.(check int) "same inode" ino st.Unix.st_ino;
          Alcotest.(check int) "one link per key" 960 st.Unix.st_nlink)
        stats;
      Alcotest.(check (list string)) "no staged file left" []
        (staged_files dir);
      Alcotest.(check int) "every key counted" 960 (Lease.acquired a);
      (* Releasing drops one name; the others keep their leases. *)
      Lease.release a ~key:(List.hd ks);
      let b = Lease.create ~ttl:60. ~dir () in
      (match Lease.try_acquire b ~key:(List.nth ks 1) with
      | Lease.Held _ -> ()
      | Lease.Acquired -> Alcotest.fail "sibling lease must stay live");
      Alcotest.(check int) "one name fewer" 959
        (Unix.stat (lease_path dir (List.nth ks 1))).Unix.st_nlink)

(* A staged inode serves 1000 links; the 1001st key gets a fresh one. *)
let test_batch_rolls_over_staged_file () =
  with_dir (fun dir ->
      let a = Lease.create ~ttl:60. ~dir () in
      let ks = keys 1001 in
      check_all_acquired "fresh batch" (Lease.try_acquire_many a ks);
      let st k = Unix.stat (lease_path dir k) in
      let first = st (List.hd ks) and last = st (List.nth ks 1000) in
      Alcotest.(check int) "first inode links" 1000 first.Unix.st_nlink;
      Alcotest.(check int) "second inode links" 1 last.Unix.st_nlink;
      Alcotest.(check bool) "two inodes" true
        (first.Unix.st_ino <> last.Unix.st_ino);
      Alcotest.(check (list string)) "no staged file left" []
        (staged_files dir))

(* Free, foreign-live, expired and own-live keys in one call: outcomes
   come back in key order, the expired lease is stolen, and only the
   free key costs a link. *)
let test_batch_mixed_outcomes () =
  with_dir (fun dir ->
      let a = Lease.create ~ttl:60. ~dir () in
      let foreign = Lease.create ~ttl:60. ~dir () in
      let dead = Lease.create ~ttl:0.05 ~dir () in
      let k_free, k_foreign, k_expired, k_own =
        match keys 4 with
        | [ w; x; y; z ] -> (w, x, y, z)
        | _ -> assert false
      in
      check_all_acquired "setup"
        [
          Lease.try_acquire foreign ~key:k_foreign;
          Lease.try_acquire dead ~key:k_expired;
          Lease.try_acquire a ~key:k_own;
        ];
      Unix.sleepf 0.08;
      let outcomes =
        Lease.try_acquire_many a [ k_foreign; k_free; k_expired; k_own ]
      in
      (match outcomes with
      | [ Lease.Held { pid; expires_in }; Lease.Acquired; Lease.Acquired;
          Lease.Acquired ] ->
          Alcotest.(check int) "holder pid" (Unix.getpid ()) pid;
          Alcotest.(check bool) "holder live" true (expires_in > 0.)
      | _ -> Alcotest.fail "expected Held, Acquired, Acquired, Acquired");
      Alcotest.(check int) "one steal (the expired key)" 1 (Lease.stolen a);
      Alcotest.(check int) "free key is a lone link" 1
        (Unix.stat (lease_path dir k_free)).Unix.st_nlink;
      (* The stolen key is ours now, and still live for everyone else. *)
      (match Lease.try_acquire foreign ~key:k_expired with
      | Lease.Held _ -> ()
      | Lease.Acquired -> Alcotest.fail "stolen lease must be live");
      Alcotest.(check (list string)) "no staged file left" []
        (staged_files dir))

(* An exception mid-batch still unlinks the staged file: a directory in
   a lease's place makes the steal's rename fail. *)
let test_batch_cleans_up_on_error () =
  with_dir (fun dir ->
      let a = Lease.create ~ttl:60. ~dir () in
      let k_ok, k_dir =
        match keys 2 with [ x; y ] -> (x, y) | _ -> assert false
      in
      Sys.mkdir (lease_path dir k_dir) 0o755;
      (match Lease.try_acquire_many a [ k_ok; k_dir ] with
      | _ -> Alcotest.fail "a directory cannot be stolen"
      | exception Sys_error _ -> ());
      Alcotest.(check (list string)) "no staged file left" []
        (staged_files dir))

(* A fresh lease is whole the moment its name exists: every file parses
   with schema, pid, token and deadline (and no key), and two holders
   racing over the same fresh keys from two domains never see a torn
   lease to steal; each key goes to exactly one of them. *)
let test_fresh_lease_always_parses () =
  with_dir (fun dir ->
      let a = Lease.create ~ttl:60. ~dir () in
      let b = Lease.create ~ttl:60. ~dir () in
      let ks = keys 400 in
      let other =
        Domain.spawn (fun () -> Lease.try_acquire_many b (List.rev ks))
      in
      let mine = Lease.try_acquire_many a ks in
      let theirs = List.rev (Domain.join other) in
      List.iter2
        (fun x y ->
          match (x, y) with
          | Lease.Acquired, Lease.Held _ | Lease.Held _, Lease.Acquired -> ()
          | _ -> Alcotest.fail "each key has exactly one holder")
        mine theirs;
      Alcotest.(check int) "a stole nothing" 0 (Lease.stolen a);
      Alcotest.(check int) "b stole nothing" 0 (Lease.stolen b);
      List.iter
        (fun k ->
          let ic = open_in (lease_path dir k) in
          let text = really_input_string ic (in_channel_length ic) in
          close_in ic;
          match Mfu_util.Json.of_string text with
          | Error e -> Alcotest.failf "lease does not parse: %s" e
          | Ok json ->
              let has f = Option.is_some (Mfu_util.Json.member f json) in
              Alcotest.(check (option string)) "schema" (Some "mfu-lease/v1")
                (Option.bind
                   (Mfu_util.Json.member "schema" json)
                   Mfu_util.Json.to_str);
              Alcotest.(check bool) "pid, token, deadline" true
                (List.for_all has [ "pid"; "token"; "deadline" ]);
              Alcotest.(check bool) "no key field" false (has "key"))
        ks)

let point =
  {
    Axes.machine = Axes.Single Mfu_sim.Single_issue.Cray_like;
    config = Config.m11br5;
    loop = 5;
    scale = 1;
  }

(* Two callers settle a key another process holds a lease on: a
   leased [Sweep.run], and a query to a server whose leases share the
   store's lease directory. Each reports the result it settled with,
   its computed / deferred / stolen counts and, for the server, the
   point event's source. *)
type settled = {
  result : Sim_types.result;
  computed : int;
  deferred : int;
  stolen : int;
  source : Protocol.source option;
}

type caller = {
  point : Axes.point;
  settle : store_dir:string -> Axes.point -> settled;
}

let via_sweep =
  {
    point;
    settle =
      (fun ~store_dir p ->
        let store = Store.open_ store_dir in
        let ours =
          Lease.create ~ttl:60.
            ~dir:(Lease.default_dir ~store_root:store_dir)
            ()
        in
        match Sweep.run ~jobs:1 ~lease:ours ~store [ p ] with
        | [ (_, result) ], stats ->
            {
              result;
              computed = stats.Sweep.computed;
              deferred = stats.Sweep.deferred;
              stolen = stats.Sweep.stolen;
              source = None;
            }
        | _ -> Alcotest.fail "one result expected");
  }

let serve_spec = "units=1;size=10;bus=nbus;config=m11br5;loops=5"

let via_server =
  {
    point =
      (match Axes.of_string serve_spec with
      | Ok a -> List.hd (Axes.enumerate a)
      | Error e -> failwith e);
    settle =
      (fun ~store_dir _ ->
        let cfg =
          {
            (Server.default_config ~store_dir
               ~listen:(Server.Tcp ("127.0.0.1", 0)))
            with
            jobs = Some 1;
            lease_ttl = 60.;
          }
        in
        let t = Server.start cfg in
        Fun.protect
          ~finally:(fun () -> Server.stop t)
          (fun () ->
            let c = Client.connect ~timeout:30. (Server.bound_addr t) in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                let events = ref [] in
                let on_event = function
                  | Protocol.Point e -> events := e :: !events
                  | Protocol.Aborted _ | Protocol.Summary _ -> ()
                in
                match (Client.query ~on_event c ~spec:serve_spec, !events) with
                | Ok s, [ e ] ->
                    {
                      result =
                        {
                          Sim_types.cycles = e.Protocol.cycles;
                          instructions = e.Protocol.instructions;
                        };
                      computed = s.Protocol.computed;
                      deferred = s.Protocol.lease_deferred;
                      stolen = s.Protocol.lease_stolen;
                      source = Some e.Protocol.source;
                    }
                | Ok _, evs ->
                    Alcotest.failf "one point event expected, got %d"
                      (List.length evs)
                | Error e, _ -> Alcotest.failf "query failed: %s" e)));
  }

let check_source what expected = function
  | Some s ->
      Alcotest.(check string) what
        (Protocol.source_to_string expected)
        (Protocol.source_to_string s)
  | None -> ()

(* A caller under a foreign live lease: the owner publishes while it
   waits, and it must pick the entry up as [deferred] without ever
   simulating the point itself. *)
let test_defers_to_live_owner { point; settle } () =
  with_dir (fun store_dir ->
      let store = Store.open_ store_dir in
      let lease_dir = Lease.default_dir ~store_root:store_dir in
      Fun.protect
        ~finally:(fun () -> rm_rf lease_dir)
        (fun () ->
          let owner = Lease.create ~ttl:60. ~dir:lease_dir () in
          let k = Axes.key point in
          (match Lease.try_acquire owner ~key:k with
          | Lease.Acquired -> ()
          | Lease.Held _ -> Alcotest.fail "owner could not acquire");
          let expected = Axes.run point in
          let publisher =
            Thread.create
              (fun () ->
                Unix.sleepf 0.15;
                Store.put ~meta:(Sweep.meta_of_point point) store ~key:k
                  expected;
                Lease.release owner ~key:k)
              ()
          in
          let s = settle ~store_dir point in
          Thread.join publisher;
          Alcotest.(check int) "nothing computed here" 0 s.computed;
          Alcotest.(check int) "settled as deferred" 1 s.deferred;
          Alcotest.(check int) "no steal" 0 s.stolen;
          check_source "served from the store" Protocol.Store s.source;
          Alcotest.(check bool) "owner's result served" true
            (s.result = expected);
          Alcotest.(check bool) "the stored result" true
            (Store.find store ~key:k = Some s.result)))

(* A caller against a dead owner: the lease expires, the caller steals
   it and computes the point itself. *)
let test_steals_from_dead_owner { point; settle } () =
  with_dir (fun store_dir ->
      let lease_dir = Lease.default_dir ~store_root:store_dir in
      Fun.protect
        ~finally:(fun () -> rm_rf lease_dir)
        (fun () ->
          (* long enough to outlast starting a server, so the lease is
             still live when the caller first claims the key *)
          let dead = Lease.create ~ttl:0.5 ~dir:lease_dir () in
          let k = Axes.key point in
          (match Lease.try_acquire dead ~key:k with
          | Lease.Acquired -> ()
          | Lease.Held _ -> Alcotest.fail "owner could not acquire");
          let s = settle ~store_dir point in
          Alcotest.(check int) "computed after the steal" 1 s.computed;
          Alcotest.(check int) "steal counted" 1 s.stolen;
          Alcotest.(check int) "not deferred" 0 s.deferred;
          check_source "computed here" Protocol.Computed s.source;
          Alcotest.(check bool) "stolen point simulated exactly" true
            (s.result = Axes.run point);
          Alcotest.(check bool) "the stored result" true
            (Store.find (Store.open_ store_dir) ~key:k = Some s.result)))

(* A worker killed between publishing a key and releasing its lease:
   no later sweep needs the key, so only the end-of-run collection
   removes the lease, and it leaves the run's own numbers alone. *)
let test_sweep_collects_orphan_leases () =
  with_dir (fun store_dir ->
      let store = Store.open_ store_dir in
      let lease_dir = Lease.default_dir ~store_root:store_dir in
      Fun.protect
        ~finally:(fun () -> rm_rf lease_dir)
        (fun () ->
          let killed = Lease.create ~ttl:0.05 ~dir:lease_dir () in
          let k = Axes.key point in
          ignore (Lease.try_acquire killed ~key:k);
          Store.put ~meta:(Sweep.meta_of_point point) store ~key:k
            (Axes.run point);
          Unix.sleepf 0.08;
          let ours = Lease.create ~ttl:60. ~dir:lease_dir () in
          let results, stats =
            Sweep.run ~jobs:1 ~lease:ours ~store [ point ]
          in
          Alcotest.(check int) "reused" 1 stats.Sweep.reused;
          Alcotest.(check int) "nothing stolen" 0 stats.Sweep.stolen;
          Alcotest.(check (list string)) "no lease left" []
            (lease_files lease_dir);
          match results with
          | [ (_, r) ] ->
              Alcotest.(check bool) "stored result served" true
                (Store.find store ~key:k = Some r)
          | _ -> Alcotest.fail "one result expected"))

let test_lease_dir_is_outside_store () =
  with_dir (fun store_dir ->
      let store = Store.open_ store_dir in
      let lease_dir = Lease.default_dir ~store_root:store_dir in
      Fun.protect
        ~finally:(fun () -> rm_rf lease_dir)
        (fun () ->
          let l = Lease.create ~ttl:60. ~dir:lease_dir () in
          (match Lease.try_acquire l ~key with
          | Lease.Acquired -> ()
          | Lease.Held _ -> Alcotest.fail "fresh key should acquire");
          (* The work queue must not perturb the store's bytes: stores
             swept with and without leases diff clean in CI. *)
          Alcotest.(check bool) "lease dir is a sibling" false
            (String.length lease_dir >= String.length store_dir
            && String.sub lease_dir 0 (String.length store_dir) = store_dir
            && String.length lease_dir > String.length store_dir
            && lease_dir.[String.length store_dir] = '/');
          Alcotest.(check int) "store untouched" 0
            (Store.stats store).Store.entries))

let () =
  Alcotest.run "lease"
    [
      ( "lease",
        [
          Alcotest.test_case "acquire, hold, release" `Quick
            test_acquire_and_hold;
          Alcotest.test_case "steal on expiry" `Quick test_steal_on_expiry;
          Alcotest.test_case "steal on torn file" `Quick
            test_steal_on_torn_file;
          Alcotest.test_case "old owner's release spares a stolen key"
            `Quick test_old_owner_release_spares_stolen_key;
          Alcotest.test_case "expired and torn leases collected" `Quick
            test_collect_expired;
          Alcotest.test_case "lease dir outside store" `Quick
            test_lease_dir_is_outside_store;
        ] );
      ( "batch",
        [
          Alcotest.test_case "one inode for a batch" `Quick
            test_batch_shares_one_inode;
          Alcotest.test_case "staged file rolls over at 1000 links" `Quick
            test_batch_rolls_over_staged_file;
          Alcotest.test_case "mixed outcomes in key order" `Quick
            test_batch_mixed_outcomes;
          Alcotest.test_case "staged file removed on error" `Quick
            test_batch_cleans_up_on_error;
          Alcotest.test_case "fresh lease always parses" `Quick
            test_fresh_lease_always_parses;
        ] );
      ( "sweep integration",
        [
          Alcotest.test_case "defers to a live owner" `Quick
            (test_defers_to_live_owner via_sweep);
          Alcotest.test_case "steals from a dead owner" `Quick
            (test_steals_from_dead_owner via_sweep);
          Alcotest.test_case "server defers to a live owner" `Quick
            (test_defers_to_live_owner via_server);
          Alcotest.test_case "server steals from a dead owner" `Quick
            (test_steals_from_dead_owner via_server);
          Alcotest.test_case "collects a killed worker's orphan leases"
            `Quick test_sweep_collects_orphan_leases;
        ] );
    ]

module Json = Mfu_util.Json

let schema = "mfu-lease/v1"

type t = {
  dir : string;
  ttl : float;
  token : string;  (* distinguishes two holders with a recycled pid *)
  stolen : int Atomic.t;
  acquired : int Atomic.t;
  counter : int Atomic.t;  (* staging-name uniqueness within the process *)
}

let default_dir ~store_root =
  (* Sibling of the store root: keeps the store itself byte-comparable
     between leased and plain runs. *)
  Filename.concat
    (Filename.dirname store_root)
    (Filename.basename store_root ^ ".leases")

let mkdir_p path =
  let rec go path =
    if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path)
    then begin
      go (Filename.dirname path);
      try Sys.mkdir path 0o755
      with Sys_error _ when Sys.is_directory path -> ()
    end
  in
  go path

let create ?(ttl = 60.) ~dir () =
  mkdir_p dir;
  let token =
    Printf.sprintf "%d-%08Lx" (Unix.getpid ())
      (Random.State.int64
         (Random.State.make_self_init ())
         Int64.max_int)
  in
  {
    dir;
    ttl;
    token;
    stolen = Atomic.make 0;
    acquired = Atomic.make 0;
    counter = Atomic.make 0;
  }

let ttl t = t.ttl

let path t ~key =
  Filename.concat t.dir (Store.digest_of_key key ^ ".lease")

(* No [key] field: the file name is the key's digest, and nothing reads
   one back. Key-less text is what lets one staged file stand for every
   key of a batch. *)
let lease_json t ~deadline =
  Json.to_string ~indent:0
    (Json.Obj
       [
         ("schema", Json.String schema);
         ("pid", Json.Int (Unix.getpid ()));
         ("token", Json.String t.token);
         ("deadline", Json.Float deadline);
       ])
  ^ "\n"

type outcome = Acquired | Held of { pid : int; expires_in : float }

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          try Some (really_input_string ic (in_channel_length ic))
          with End_of_file | Sys_error _ -> None)

(* (pid, token, deadline) of a well-formed lease file. *)
let parse text =
  match Json.of_string text with
  | Error _ -> None
  | Ok json -> (
      let field name conv = Option.bind (Json.member name json) conv in
      match
        ( field "schema" Json.to_str,
          field "pid" Json.to_int,
          field "token" Json.to_str,
          field "deadline" Json.to_float )
      with
      | Some s, Some pid, Some token, Some deadline when s = schema ->
          Some (pid, token, deadline)
      | _ -> None)

(* A complete lease of ours, at a fresh private name in the lease dir
   ([prefix.<token>.<n>.tmp]); the caller renames or links it into
   place, so no reader ever sees a half-written lease. *)
let write_temp t ~prefix =
  let temp =
    Filename.concat t.dir
      (Printf.sprintf "%s.%s.%d.tmp" prefix t.token
         (Atomic.fetch_and_add t.counter 1))
  in
  let oc = open_out temp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (lease_json t ~deadline:(Unix.gettimeofday () +. t.ttl)));
  temp

(* Atomically replace [dest] with our fresh lease. Two concurrent
   stealers both rename complete files; the loser's lease is simply
   overwritten, and idempotent publication makes the double computation
   harmless. A rename replaces the name only, so the other keys linked
   to the same staged inode keep their leases. *)
let steal t ~dest =
  Sys.rename (write_temp t ~prefix:"steal") dest;
  Atomic.incr t.stolen;
  Atomic.incr t.acquired;
  Acquired

(* What [dest]'s existing lease ([Some text]) means to us: someone
   holds, held, or just released it. *)
let contended t ~dest text =
  match Option.bind text parse with
  | None ->
      (* Torn or vanished. Leases are only ever linked or renamed into
         place whole, so a torn one was written by something else (a
         killed writer of the older create-then-write protocol, say); a
         vanished one was just released. Either way it is free. *)
      steal t ~dest
  | Some (pid, token, deadline) ->
      let now = Unix.gettimeofday () in
      if deadline <= now then steal t ~dest
      else if token = t.token then begin
        (* Re-acquiring our own live lease (e.g. retry loop). *)
        Atomic.incr t.acquired;
        Acquired
      end
      else Held { pid; expires_in = deadline -. now }

(* One staged inode serves this many keys before the next is written:
   far below any file system's hard-link limit (ext4: 65000). *)
let links_per_stage = 1000

(* A fresh lease is a hard link from a complete staged lease to
   [<digest>.lease]: link(2) fails with EEXIST exactly as O_EXCL does,
   and costs no new inode, so a batch of N keys creates one file instead
   of N. Every lease of a batch shares the staged deadline. An existing
   lease is read first, so polling a held key stages nothing; one that
   appears between that read and the link is read again on EEXIST. *)
let try_acquire_many t keys =
  let stage = ref None in
  let drop () =
    Option.iter
      (fun (staged, _) ->
        stage := None;
        try Sys.remove staged with Sys_error _ -> ())
      !stage
  in
  let staged () =
    match !stage with
    | Some (staged, links) when links < links_per_stage ->
        stage := Some (staged, links + 1);
        staged
    | _ ->
        drop ();
        let staged = write_temp t ~prefix:"stage" in
        stage := Some (staged, 1);
        staged
  in
  Fun.protect ~finally:drop (fun () ->
      List.map
        (fun key ->
          let dest = path t ~key in
          match read_file dest with
          | Some _ as text -> contended t ~dest text
          | None -> (
              match Unix.link (staged ()) dest with
              | () ->
                  Atomic.incr t.acquired;
                  Acquired
              | exception Unix.Unix_error (Unix.EEXIST, _, _) ->
                  contended t ~dest (read_file dest)))
        keys)

let try_acquire t ~key =
  match try_acquire_many t [ key ] with
  | [ outcome ] -> outcome
  | _ -> assert false

(* Read-check-remove is not atomic: between parsing our token and the
   remove, our *expired* lease can be stolen (renamed over) by another
   process, and the remove then deletes the new owner's file. That is
   within the advisory contract — the key merely re-opens, and at worst
   two processes compute it, which idempotent publication absorbs —
   but it costs duplicated work. Closing the window would need
   flock/renameat2-style atomicity, not worth it for a lease that only
   dedups effort. *)
let release t ~key =
  let dest = path t ~key in
  match Option.bind (read_file dest) parse with
  | Some (_, token, _) when token = t.token -> (
      try Sys.remove dest with Sys_error _ -> ())
  | _ -> ()

let stolen t = Atomic.get t.stolen
let acquired t = Atomic.get t.acquired

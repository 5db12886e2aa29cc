module Json = Mfu_util.Json

let schema = "mfu-lease/v1"

type t = {
  dir : string;
  ttl : float;
  token : string;  (* distinguishes two holders with a recycled pid *)
  stolen : int Atomic.t;
  acquired : int Atomic.t;
  counter : int Atomic.t;  (* staging-name uniqueness within the process *)
  prefix : string;
      (* every lease this holder writes begins with these bytes: all
         its fields but the deadline's value *)
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
  let head =
    Json.to_string ~indent:0
      (Json.Obj
         [
           ("schema", Json.String schema);
           ("pid", Json.Int (Unix.getpid ()));
           ("token", Json.String token);
         ])
  in
  {
    dir;
    ttl;
    token;
    stolen = Atomic.make 0;
    acquired = Atomic.make 0;
    counter = Atomic.make 0;
    (* [head] without its closing brace, opening the last field *)
    prefix = String.sub head 0 (String.length head - 1) ^ ",\"deadline\":";
  }

let ttl t = t.ttl

let path t ~key =
  Filename.concat t.dir (Store.digest_of_key key ^ ".lease")

(* No [key] field: the file name is the key's digest, and nothing reads
   one back. Key-less text is what lets one staged file stand for every
   key of a batch. *)
let lease_json t ~deadline =
  t.prefix ^ Json.to_string ~indent:0 (Json.Float deadline) ^ "}\n"

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

(* Atomically replace [dest] with a fresh lease of ours. Two concurrent
   replacers both rename complete files; the loser's lease is simply
   overwritten, and idempotent publication makes the double computation
   harmless. A rename replaces the name only, so the other keys linked
   to the same staged inode keep their leases. *)
let replace t ~dest = Sys.rename (write_temp t ~prefix:"steal") dest

let steal t ~dest =
  replace t ~dest;
  Atomic.incr t.stolen;
  Atomic.incr t.acquired;
  Acquired

(* What [dest]'s existing lease ([Some text]) means to us: someone
   holds, held, or just released it. *)
let contended t ~dest text =
  let now = Unix.gettimeofday () in
  match Option.bind text parse with
  | Some (pid, token, deadline) when deadline > now ->
      if token = t.token then begin
        (* Re-acquiring our own live lease (e.g. retry loop). *)
        Atomic.incr t.acquired;
        Acquired
      end
      else Held { pid; expires_in = deadline -. now }
  | _ ->
      (* Expired, torn or vanished. Leases are only ever linked or
         renamed into place whole, so a torn one was written by
         something else (a killed writer of the older
         create-then-write protocol, say); a vanished one was just
         released. Either way it is free. *)
      steal t ~dest

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

(* Ownership is proved by bytes, without parsing: every lease this
   holder writes begins with its [prefix] — schema, pid and token — so a
   file that still begins so is ours, and a lease stolen by another
   holder (another token) is left alone. Read-check-remove is not
   atomic: between the read and the remove, our *expired* lease can be
   stolen (renamed over) by another process, and the remove then
   deletes the new owner's file. That is within the advisory contract —
   the key merely re-opens, and at worst two processes compute it,
   which idempotent publication absorbs — but it costs duplicated work.
   Closing the window would need flock/renameat2-style atomicity, not
   worth it for a lease that only dedups effort. *)
let holds t path =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> false
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let len = String.length t.prefix in
          let buf = Bytes.create len in
          match Unix.read fd buf 0 len with
          | n -> n = len && String.equal (Bytes.unsafe_to_string buf) t.prefix
          | exception Unix.Unix_error _ -> false)

let release_path t ~dest =
  if holds t dest then try Sys.remove dest with Sys_error _ -> ()

let release t ~key = release_path t ~dest:(path t ~key)

(* One listing of the directory; each expired (or torn) lease goes the
   way a settling sweep takes it — stolen, then released — so a lease
   renewed between our read and our rename is overwritten at worst,
   exactly as in a steal race, and a live one is never touched. *)
let collect_expired t =
  let now = Unix.gettimeofday () in
  Array.fold_left
    (fun collected f ->
      let dest = Filename.concat t.dir f in
      if not (Filename.check_suffix f ".lease") then collected
      else
        match read_file dest with
        | None -> collected
        | Some text -> (
            match parse text with
            | Some (_, _, deadline) when deadline > now -> collected
            | _ -> (
                match replace t ~dest with
                | () ->
                    release_path t ~dest;
                    collected + 1
                | exception Sys_error _ -> collected)))
    0
    (try Sys.readdir t.dir with Sys_error _ -> [||])

let stolen t = Atomic.get t.stolen
let acquired t = Atomic.get t.acquired

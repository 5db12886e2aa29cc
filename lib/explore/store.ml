module Json = Mfu_util.Json
module Sim_types = Mfu_sim.Sim_types

let schema = "mfu-result/v1"
let manifest_schema = "mfu-store/v1"
let pack_magic = "mfu-pack/v1\n"
let pack_idx_magic = "mfu-pack-idx/v1\n"

(* ------------------------------------------------------------------ *)
(* In-memory index                                                    *)

(* A segment with the whole segments/<seq>.pack this handle loaded (or
   wrote): segments are immutable, so the bytes outlive the file. *)
type seg = { seq : int; pack : string; mutable records : int }

(* One live packed record: where its verbatim payload lies in its
   segment's bytes, plus the result once a read has digest-verified,
   validated and decoded it. The open indexes a record from its segment's
   sidecar without checking it; the first lookup checks it and keeps the
   result. *)
type packed = {
  seg : seg;
  off : int;  (* offset of the record header in the pack *)
  len : int;  (* bytes from the header to the next record or EOF *)
  payload_bytes : int;  (* from the header, for {!stats} *)
  mutable result : Sim_types.result option;  (* [None] until validated *)
}

(* What this handle knows of a key's loose entry file. [Unread]: a
   file was seen by name (open scan) and is read and validated on its
   next access. [Known r]: this handle wrote [r] there ({!put},
   {!unpack}) or read and validated the file once: later accesses are
   answered from memory, like a packed hit. Damage done to the file
   afterwards is caught by the next {!compact} or by any other handle's
   read. *)
type loose = No_file | Unread | Known of Sim_types.result

(* Index entry for one key digest. [loose_bytes] is the loose file's
   size once something learnt it ([put], [unpack] and reads know it,
   {!stats} stats the file on first need), -1 before: the open scan
   reads directory names only. [packed] is the decoded segment record.
   A loose file shadows a packed record for the same digest: new writes
   always land loose, so the loose side is never staler than the pack. *)
type ent = {
  digest : string;  (* 16 raw bytes *)
  mutable loose : loose;
  mutable loose_bytes : int;
  mutable packed : packed option;
}

let has_loose e = match e.loose with No_file -> false | Unread | Known _ -> true
let ent_live e = has_loose e || e.packed <> None

(* The index, keyed by the 16 raw bytes of a key's MD5 and hashed by
   their first 8: the digest is already uniform, so a warm lookup costs
   the one MD5 it takes to name the key, then one hash and one probe.
   Entries are never removed — one with neither a loose file nor a
   packed record reads as absent. Nothing reads the table's order:
   {!compact} writes its records in digest order. *)
module Digest_tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash digest = Int64.to_int (String.get_int64_le digest 0) land max_int
end)

type index = {
  tbl : ent Digest_tbl.t;
  mutable segs : seg list;  (* ascending seq *)
  mutable max_seq : int;
  mutable replay_dead : int;  (* packed records superseded by later ones *)
  mutable foreign : int;  (* non-entry files seen under objects/ *)
  mutable seg_stamp : float;  (* segments/ mtime at the last scan *)
}

type t = {
  root : string;
  lock : Mutex.t;
  idx : index;
  loose_reads : int Atomic.t;  (* loose entry files read by this handle *)
  packed_reads : int Atomic.t;  (* packed records it read and validated *)
}

let root t = t.root

(* The entry for [digest], inserting an empty one if absent. *)
let upsert t digest =
  match Digest_tbl.find_opt t.idx.tbl digest with
  | Some e -> e
  | None ->
      let e = { digest; loose = No_file; loose_bytes = -1; packed = None } in
      Digest_tbl.add t.idx.tbl digest e;
      e

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

let objects_dir t = Filename.concat t.root "objects"
let tmp_dir t = Filename.concat t.root "tmp"
let quarantine_dir t = Filename.concat t.root "quarantine"
let segments_dir t = Filename.concat t.root "segments"
let manifest_path t = Filename.concat t.root "MANIFEST.json"
let digest_of_key key = Digest.to_hex (Digest.string key)
let shard_dir t digest = Filename.concat (objects_dir t) (String.sub digest 0 2)

let loose_path t hex = Filename.concat (shard_dir t hex) (hex ^ ".json")
let entry_path t ~key = loose_path t (digest_of_key key)

let segment_pack_path t ~seq =
  Filename.concat (segments_dir t) (Printf.sprintf "%08d.pack" seq)

let segment_idx_path t ~seq =
  Filename.concat (segments_dir t) (Printf.sprintf "%08d.idx" seq)

(* Atomic publication: write the full payload to a private file in tmp/
   and rename it into place. rename(2) within one filesystem is atomic,
   so readers (and a rerun after a kill) see either the whole entry or
   nothing. The temp name includes the pid and a process-wide counter in
   addition to the digest, so two processes (or threads) racing to
   publish the same key never share a staging file — each writes its own
   and the renames serialize, last writer winning with a complete entry
   either way. That is what makes mfu-point/v1 publication idempotent
   under multi-process draining (lease steals included). *)
let temp_counter = Atomic.make 0

let stage ?(fsync = false) t ~temp_name text =
  let temp =
    Filename.concat (tmp_dir t)
      (Printf.sprintf "%s.%d.%d" temp_name (Unix.getpid ())
         (Atomic.fetch_and_add temp_counter 1))
  in
  let oc = open_out_bin temp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc text;
      if fsync then begin
        flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc)
      end);
  temp

let write_atomically ?fsync t ~temp_name ~dest text =
  mkdir_p (Filename.dirname dest);
  Sys.rename (stage ?fsync t ~temp_name text) dest

let quarantined t =
  let dir = quarantine_dir t in
  if not (Sys.file_exists dir) then []
  else List.sort String.compare (Array.to_list (Sys.readdir dir))

(* A leftover staging file means a writer died between open_out and
   rename. Reads never see it (entries live under objects/), but it
   would accumulate forever, so open_ sweeps stale ones. The age
   threshold protects a live writer in another process that is
   mid-publication: writes take milliseconds, so a staging file minutes
   old is certainly an orphan of a killed process. *)
let sweep_tmp ?(older_than = 600.) t =
  let dir = tmp_dir t in
  if not (Sys.file_exists dir) then 0
  else begin
    let now = Unix.gettimeofday () in
    Array.fold_left
      (fun removed f ->
        let path = Filename.concat dir f in
        match Unix.stat path with
        | { Unix.st_kind = Unix.S_REG; st_mtime; _ }
          when now -. st_mtime >= older_than -> (
            match Sys.remove path with
            | () -> removed + 1
            | exception Sys_error _ -> removed)
        | _ -> removed
        | exception Unix.Unix_error _ -> removed)
      0 (Sys.readdir dir)
  end

(* Move a failed entry aside rather than deleting it: the quarantine
   preserves the corrupt bytes for diagnosis while making the key look
   absent, so the sweep recomputes it. *)
let quarantine t path =
  mkdir_p (quarantine_dir t);
  let dest = Filename.concat (quarantine_dir t) (Filename.basename path) in
  try Sys.rename path dest
  with Sys_error _ -> ( try Sys.remove path with Sys_error _ -> ())

let quarantine_bytes t ~name text =
  mkdir_p (quarantine_dir t);
  let dest = Filename.concat (quarantine_dir t) name in
  try
    let oc = open_out_bin dest in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc text)
  with Sys_error _ -> ()

let hex_digits = "0123456789abcdef"

(* [hex] is [raw]'s {!Digest.to_hex} spelling, without building it. *)
let spells_digest hex raw =
  String.length hex = 32
  &&
  let rec from i =
    i = 16
    ||
    let b = Char.code raw.[i] in
    hex.[2 * i] = hex_digits.[b lsr 4]
    && hex.[(2 * i) + 1] = hex_digits.[b land 15]
    && from (i + 1)
  in
  from 0

(* Check an entry's text against [digest], the 16 raw bytes of the key
   it is filed under. A caller that knows that key (a record's framing
   key, a lookup's key) passes it, and the entry's "key" field must equal
   it; without one (compaction of a loose file) the field must hash to
   [digest]. *)
let validate ?key ~digest text =
  match Json.of_string text with
  | Error e -> Error ("unparseable JSON: " ^ e)
  | Ok json -> (
      let field name = Json.member name json in
      match
        ( Option.bind (field "schema") Json.to_str,
          Option.bind (field "key") Json.to_str,
          Option.bind (field "digest") Json.to_str,
          field "result" )
      with
      | Some s, _, _, _ when s <> schema -> Error ("wrong schema " ^ s)
      | Some _, Some stored_key, Some stored_digest, Some result -> (
          if not (spells_digest stored_digest digest) then
            Error "digest field mismatch"
          else if
            not
              (match key with
              | Some key -> String.equal stored_key key
              | None -> String.equal (Digest.string stored_key) digest)
          then Error "key field does not match the file's key"
          else
            match
              ( Option.bind (Json.member "cycles" result) Json.to_int,
                Option.bind (Json.member "instructions" result) Json.to_int )
            with
            | Some cycles, Some instructions
              when cycles >= 0 && instructions >= 0 ->
                Ok (stored_key, { Sim_types.cycles; instructions })
            | _ -> Error "bad result payload")
      | _ -> Error "missing required field")

(* Up to [len] bytes from [fd]'s offset, fewer at EOF, in as many reads
   as they need. *)
let read_upto fd len =
  let buf = Bytes.create len in
  let rec fill got =
    if got = len then got
    else
      match Unix.read fd buf got (len - got) with
      | 0 -> got
      | n -> fill (got + n)
  in
  let got = fill 0 in
  if got = len then Bytes.unsafe_to_string buf else Bytes.sub_string buf 0 got

(* A whole regular file with one open, one fstat and as many reads as
   its size needs (one for an entry) — no channel and no 64 KiB channel
   buffer per file. A directory or other non-regular file is [`Foreign]:
   it is no entry, so it is neither served nor quarantined. *)
let read_regular path =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> `Vanished
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          match Unix.fstat fd with
          | { Unix.st_kind = Unix.S_REG; st_size; _ } -> (
              match read_upto fd st_size with
              | text when String.length text = st_size -> `Text text
              | _ -> `Short
              | exception Unix.Unix_error _ -> `Short)
          | _ -> `Foreign
          | exception Unix.Unix_error _ -> `Short)

(* ------------------------------------------------------------------ *)
(* Segment format                                                     *)

(* A pack record is
     u32BE key-length | u32BE payload-length | key | payload
       | MD5(key ^ payload)
   with the payload being the loose entry file's bytes verbatim —
   packing and unpacking are byte-exact inverses, and the trailing
   digest proves a record intact without re-validating its JSON. *)
let record_append buf ~key ~payload =
  let b = Bytes.create 8 in
  Bytes.set_int32_be b 0 (Int32.of_int (String.length key));
  Bytes.set_int32_be b 4 (Int32.of_int (String.length payload));
  Buffer.add_bytes buf b;
  Buffer.add_string buf key;
  Buffer.add_string buf payload;
  Buffer.add_string buf (Digest.string (key ^ payload))

let record_length ~key ~payload =
  8 + String.length key + String.length payload + 16

(* The key and payload lengths in the header at [off], if the record
   they frame ends by [limit]. *)
let record_frame pack off ~limit =
  if off + 8 > limit then None
  else
    let klen = Int32.to_int (String.get_int32_be pack off) in
    let plen = Int32.to_int (String.get_int32_be pack (off + 4)) in
    if
      klen <= 0 || plen <= 0 || klen > 65536
      || off + 8 + klen + plen + 16 > limit
    then None
    else Some (klen, plen)

(* Parse and digest-check the record at [off], which must end by
   [limit]: the MD5 is taken over the key and payload where they lie,
   and compared in place. *)
let record_read pack off ~limit =
  match record_frame pack off ~limit with
  | None -> Error "record frame out of bounds"
  | Some (klen, plen) ->
      let body = off + 8 in
      let trailer = body + klen + plen in
      let d = Digest.substring pack body (klen + plen) in
      if
        String.get_int64_ne pack trailer <> String.get_int64_ne d 0
        || String.get_int64_ne pack (trailer + 8) <> String.get_int64_ne d 8
      then Error "record digest mismatch"
      else
        Ok
          ( String.sub pack body klen,
            String.sub pack (body + klen) plen,
            8 + klen + plen + 16 )

(* The .idx sidecar — u32BE count, then per record a 16-byte key digest
   and u64BE offset, closed by an MD5 of the entry area. It is advisory
   (rebuilt from the pack when missing or damaged) but it is what keeps
   the rest of a segment readable past a corrupt record: lengths inside
   a damaged record cannot be trusted, offsets from the sidecar can. *)
let idx_render entries =
  let buf =
    Buffer.create
      (String.length pack_idx_magic + (24 * List.length entries) + 20)
  in
  Buffer.add_string buf pack_idx_magic;
  let b = Bytes.create 8 in
  Bytes.set_int32_be b 0 (Int32.of_int (List.length entries));
  Buffer.add_subbytes buf b 0 4;
  List.iter
    (fun (digest, off) ->
      Buffer.add_string buf digest;
      Bytes.set_int64_be b 0 (Int64.of_int off);
      Buffer.add_bytes buf b)
    entries;
  let body =
    String.sub (Buffer.contents buf)
      (String.length pack_idx_magic)
      (Buffer.length buf - String.length pack_idx_magic)
  in
  Buffer.add_string buf (Digest.string body);
  Buffer.contents buf

let read_file_opt path =
  match read_regular path with `Text s -> Some s | _ -> None

let idx_parse ~pack_len text =
  let m = String.length pack_idx_magic in
  if
    String.length text < m + 4 + 16
    || not (String.equal (String.sub text 0 m) pack_idx_magic)
  then None
  else
    let count = Int32.to_int (String.get_int32_be text m) in
    let body_len = 4 + (24 * count) in
    if count < 0 || String.length text <> m + body_len + 16 then None
    else if
      not
        (String.equal
           (String.sub text (m + body_len) 16)
           (Digest.string (String.sub text m body_len)))
    then None
    else begin
      let entries = ref [] in
      let ok = ref true in
      for i = count - 1 downto 0 do
        let base = m + 4 + (24 * i) in
        let digest = String.sub text base 16 in
        let off = Int64.to_int (String.get_int64_be text (base + 16)) in
        if off < String.length pack_magic || off >= pack_len then ok := false;
        entries := (digest, off) :: !entries
      done;
      let prev = ref (-1) in
      List.iter
        (fun (_, off) ->
          if off <= !prev then ok := false;
          prev := off)
        !entries;
      if !ok then Some !entries else None
    end

(* ------------------------------------------------------------------ *)
(* Open-time scan                                                     *)

let insert_packed t e p =
  (match e.packed with
  | Some _ ->
      (* A later record (or later segment) supersedes an earlier one;
         the dead bytes stay on disk until a full compaction. *)
      t.idx.replay_dead <- t.idx.replay_dead + 1
  | None -> ());
  e.packed <- Some p;
  p.seg.records <- p.seg.records + 1

let record_name ~seq ~off = Printf.sprintf "pack-%08d-%d.record" seq off

(* Load segments/<seq>.pack, bytes kept, into the index. With a valid
   idx sidecar this costs what the index costs: each digest the sidecar
   lists is filed at its offset, the record running to the next listed
   offset or EOF, with the payload size its header gives ({!stats}
   reports it) — no MD5 and no JSON: {!lookup} validates a record on its
   first read.
   A segment without a usable sidecar is scanned sequentially instead,
   each record digest-verified, validated and decoded on the way; a
   failing record is copied to quarantine/ and skipped, the unframeable
   tail is quarantined whole, and the sidecar is rebuilt from what
   survived. *)
let load_segment t seq =
  let path = segment_pack_path t ~seq in
  match read_file_opt path with
  | None -> ()
  | Some pack
    when String.length pack < String.length pack_magic
         || not
              (String.equal
                 (String.sub pack 0 (String.length pack_magic))
                 pack_magic) ->
      quarantine_bytes t ~name:(Printf.sprintf "pack-%08d.bad-magic" seq) pack;
      (try Sys.remove path with Sys_error _ -> ())
  | Some pack ->
      let pack_len = String.length pack in
      let seg_meta = { seq; pack; records = 0 } in
      let insert ~digest ~off ~len ~payload_bytes result =
        insert_packed t
          (upsert t digest)
          { seg = seg_meta; off; len; payload_bytes; result }
      in
      (match
         Option.bind
           (read_file_opt (segment_idx_path t ~seq))
           (idx_parse ~pack_len)
       with
      | Some entries ->
          let rec index = function
            | [] -> ()
            | (digest, off) :: rest ->
                let next = match rest with (_, o) :: _ -> o | [] -> pack_len in
                let payload_bytes =
                  match record_frame pack off ~limit:next with
                  | Some (_, plen) -> plen
                  | None -> 0
                in
                insert ~digest ~off ~len:(next - off) ~payload_bytes None;
                index rest
          in
          index entries
      | None ->
          let rebuilt = ref [] in
          let off = ref (String.length pack_magic) in
          let stop = ref false in
          while (not !stop) && !off < pack_len do
            match record_read pack !off ~limit:pack_len with
            | Ok (key, payload, reclen) ->
                Atomic.incr t.packed_reads;
                let digest = Digest.string key in
                (match validate ~key ~digest payload with
                | Ok (_, r) ->
                    insert ~digest ~off:!off ~len:reclen
                      ~payload_bytes:(String.length payload) (Some r);
                    rebuilt := (digest, !off) :: !rebuilt
                | Error _ ->
                    quarantine_bytes t
                      ~name:(record_name ~seq ~off:!off)
                      (String.sub pack !off reclen));
                off := !off + reclen
            | Error _ ->
                quarantine_bytes t
                  ~name:(Printf.sprintf "pack-%08d-%d.tail" seq !off)
                  (String.sub pack !off (pack_len - !off));
                stop := true
          done;
          write_atomically t
            ~temp_name:(Printf.sprintf "%08d.idx.tmp" seq)
            ~dest:(segment_idx_path t ~seq)
            (idx_render (List.rev !rebuilt)));
      t.idx.segs <- t.idx.segs @ [ seg_meta ];
      t.idx.max_seq <- max t.idx.max_seq seq

let seg_seqs_on_disk t =
  let dir = segments_dir t in
  if not (Sys.file_exists dir) then []
  else
    Array.to_list (Sys.readdir dir)
    |> List.filter_map (fun f ->
           if Filename.check_suffix f ".pack" then
             int_of_string_opt (Filename.chop_suffix f ".pack")
           else None)
    |> List.sort compare

let seg_dir_stamp t =
  match Unix.stat (segments_dir t) with
  | st -> st.Unix.st_mtime
  | exception Unix.Unix_error _ -> 0.

(* Pick up segments published by another process since our last scan.
   Segments are append-only and immutable once renamed into place, so a
   refresh only loads sequence numbers we have not seen. *)
let rescan_segments_locked t =
  t.idx.seg_stamp <- seg_dir_stamp t;
  List.iter
    (fun seq -> if seq > t.idx.max_seq then load_segment t seq)
    (seg_seqs_on_disk t)

(* Lower case only, as {!Digest.to_hex} writes. *)
let lower_hex_value = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | _ -> -1

let is_hex s = String.for_all (fun c -> lower_hex_value c >= 0) s

(* The raw digest a file of directory [shard] names, if the name is an
   entry's of that shard: 32 lower-case hex digits, the first two the
   shard's, then [.json]. One pass over the name, no substring. *)
let entry_name_digest ~shard f =
  if
    String.length f <> 37
    || f.[0] <> shard.[0]
    || f.[1] <> shard.[1]
    || not (String.ends_with ~suffix:".json" f)
  then None
  else
    let raw = Bytes.create 16 in
    let rec decode i =
      if i = 16 then Some (Bytes.unsafe_to_string raw)
      else
        let hi = lower_hex_value f.[2 * i]
        and lo = lower_hex_value f.[(2 * i) + 1] in
        if hi < 0 || lo < 0 then None
        else begin
          Bytes.unsafe_set raw i (Char.unsafe_chr ((hi lsl 4) lor lo));
          decode (i + 1)
        end
    in
    decode 0

(* Record the loose entries by name only: one listing per shard and no
   syscall per entry — contents are read (and fully validated) on
   access, sizes stat'ed only by {!stats}. Anything that is not named
   like an entry of its shard is skipped and counted, never a reason to
   fail the open: store roots drained by several lease processes
   accumulate stray files (editor droppings, partial transfers, foreign
   tooling). A non-regular file named like an entry is indexed here and
   demoted to foreign by the first read or {!stats} that meets it. *)
let scan_loose t =
  let dir = objects_dir t in
  if Sys.file_exists dir then
    Array.iter
      (fun shard ->
        let files =
          if String.length shard = 2 && is_hex shard then
            try Some (Sys.readdir (Filename.concat dir shard))
            with Sys_error _ -> None
          else None
        in
        match files with
        | None -> t.idx.foreign <- t.idx.foreign + 1
        | Some files ->
            Array.iter
              (fun f ->
                match entry_name_digest ~shard f with
                | Some digest -> (upsert t digest).loose <- Unread
                | None -> t.idx.foreign <- t.idx.foreign + 1)
              files)
      (Sys.readdir dir)

(* A non-regular file sits where [e]'s loose entry would: it is no
   entry, so count it with the foreign files, once. *)
let demote_foreign_locked t e =
  if has_loose e then begin
    e.loose <- No_file;
    t.idx.foreign <- t.idx.foreign + 1
  end

(* ------------------------------------------------------------------ *)
(* Stats and manifest                                                 *)

type stats = {
  entries : int;
  bytes : int;
  loose_entries : int;
  packed_entries : int;
  segment_count : int;
  segment_bytes : int;
  shadowed_records : int;
  foreign_files : int;
  quarantined_count : int;
  fanout_histogram : int array;
}

(* Size the loose files nobody has sized yet, one stat each, demoting
   the ones that are not regular files to foreign. A file gone since the
   scan (another process compacted) leaves the index, and the segments
   it moved to are folded in, as a lookup would. *)
let size_loose_locked t =
  let vanished = ref false in
  Digest_tbl.iter
    (fun _ e ->
      if has_loose e && e.loose_bytes < 0 then
        match Unix.stat (loose_path t (Digest.to_hex e.digest)) with
        | { Unix.st_kind = Unix.S_REG; st_size; _ } -> e.loose_bytes <- st_size
        | _ -> demote_foreign_locked t e
        | exception Unix.Unix_error _ ->
            e.loose <- No_file;
            vanished := true)
    t.idx.tbl;
  if !vanished then rescan_segments_locked t

(* One pass over the in-memory table, no directory walk, plus a stat per
   loose file not sized yet. The numbers describe this handle's view —
   entries other processes published after our open and that we have
   not looked up yet are not counted (seeing those would need the
   directory walk this replaced). *)
let stats_locked t =
  size_loose_locked t;
  let fanout = Array.make 256 0 in
  let entries = ref 0 in
  let bytes = ref 0 in
  let loose = ref 0 in
  let packed = ref 0 in
  let shadow_pairs = ref 0 in
  Digest_tbl.iter
    (fun _ e ->
      if ent_live e then begin
        incr entries;
        fanout.(Char.code e.digest.[0]) <- fanout.(Char.code e.digest.[0]) + 1;
        if has_loose e then begin
          incr loose;
          if e.packed <> None then incr shadow_pairs;
          bytes := !bytes + e.loose_bytes
        end
        else
          Option.iter
            (fun p ->
              incr packed;
              bytes := !bytes + p.payload_bytes)
            e.packed
      end)
    t.idx.tbl;
  {
    entries = !entries;
    bytes = !bytes;
    loose_entries = !loose;
    packed_entries = !packed;
    segment_count = List.length t.idx.segs;
    segment_bytes =
      List.fold_left (fun a s -> a + String.length s.pack) 0 t.idx.segs;
    shadowed_records = !shadow_pairs + t.idx.replay_dead;
    foreign_files = t.idx.foreign;
    quarantined_count = List.length (quarantined t);
    fanout_histogram = fanout;
  }

let stats t = Mutex.protect t.lock (fun () -> stats_locked t)

(* Live entries by the index alone — no stat, so the manifest refresh
   that ends every sweep costs no syscall per entry. *)
let entry_count t =
  Mutex.protect t.lock (fun () ->
      let n = ref 0 in
      Digest_tbl.iter (fun _ e -> if ent_live e then incr n) t.idx.tbl;
      !n)

let manifest_json ~entries ~segments =
  Json.Obj
    [
      ("schema", Json.String manifest_schema);
      ("result_schema", Json.String schema);
      ("sim_version", Json.String Axes.sim_version);
      ("entries", Json.Int entries);
      ("segments", Json.Int segments);
    ]

(* Written only when its bytes change: a warm sweep, which ends here,
   leaves the file as it found it. The segments are counted on disk, not
   in the index: a handle keeps serving segments another process has
   since deleted, and the manifest must not name them. *)
let refresh_manifest t =
  let entries = entry_count t in
  let segments = List.length (seg_seqs_on_disk t) in
  let text = Json.to_string (manifest_json ~entries ~segments) ^ "\n" in
  if read_file_opt (manifest_path t) <> Some text then
    write_atomically t ~temp_name:"MANIFEST.json.tmp" ~dest:(manifest_path t)
      text

(* ------------------------------------------------------------------ *)
(* Open                                                               *)

let open_ root_path =
  let t =
    {
      root = root_path;
      lock = Mutex.create ();
      idx =
        {
          tbl = Digest_tbl.create 1024;
          segs = [];
          max_seq = 0;
          replay_dead = 0;
          foreign = 0;
          seg_stamp = 0.;
        };
      loose_reads = Atomic.make 0;
      packed_reads = Atomic.make 0;
    }
  in
  mkdir_p (objects_dir t);
  mkdir_p (tmp_dir t);
  mkdir_p (quarantine_dir t);
  mkdir_p (segments_dir t);
  ignore (sweep_tmp t);
  t.idx.seg_stamp <- seg_dir_stamp t;
  List.iter (load_segment t) (seg_seqs_on_disk t);
  scan_loose t;
  if not (Sys.file_exists (manifest_path t)) then refresh_manifest t;
  t

(* ------------------------------------------------------------------ *)
(* Reads and writes                                                   *)

let entry_text ~key result ~meta =
  let digest = digest_of_key key in
  let json =
    Json.Obj
      ([
         ("schema", Json.String schema);
         ("key", Json.String key);
         ("digest", Json.String digest);
         ( "result",
           Json.Obj
             [
               ("cycles", Json.Int result.Sim_types.cycles);
               ("instructions", Json.Int result.Sim_types.instructions);
             ] );
       ]
      @ if meta = [] then [] else [ ("meta", Json.Obj meta) ])
  in
  Json.to_string json ^ "\n"

let put ?(meta = []) t ~key result =
  let digest = digest_of_key key in
  let text = entry_text ~key result ~meta in
  write_atomically t
    ~temp_name:(digest ^ ".json.tmp")
    ~dest:(entry_path t ~key) text;
  Mutex.protect t.lock (fun () ->
      let e = upsert t (Digest.string key) in
      e.loose <- Known result;
      e.loose_bytes <- String.length text)

let loose_reads t = Atomic.get t.loose_reads
let packed_reads t = Atomic.get t.packed_reads

(* One loose entry, read once and validated: the verbatim text comes
   back with the key and result, so a caller needing the bytes (the
   compactor) never reads the file again. *)
let read_loose ?key t path ~digest =
  match read_regular path with
  | `Vanished -> `Vanished
  | `Foreign -> `Foreign
  | (`Text _ | `Short) as read -> (
      Atomic.incr t.loose_reads;
      let checked =
        match read with
        | `Text text ->
            Result.map (fun (key, result) -> (text, key, result))
              (validate ?key ~digest text)
        | `Short -> Error "short read"
      in
      match checked with
      | Ok v -> `Valid v
      | Error _ ->
          quarantine t path;
          `Invalid)

(* Packed record [p], from its segment's bytes, given every check a
   loose read gets: its trailer MD5, a framing key equal to [key]
   (hashing to [digest] for compaction, which knows the record by digest
   alone) and the entry's validation against that key. A record failing
   any of them is copied to quarantine/. *)
let read_packed ?key t p ~digest =
  Atomic.incr t.packed_reads;
  let checked =
    Result.bind (record_read p.seg.pack p.off ~limit:(p.off + p.len))
      (fun (framing, payload, _) ->
        if
          match key with
          | Some key -> String.equal framing key
          | None -> String.equal (Digest.string framing) digest
        then
          Result.map
            (fun (_, result) -> (framing, payload, result))
            (validate ~key:framing ~digest payload)
        else Error "framing key does not match")
  in
  match checked with
  | Ok v -> Some v
  | Error _ ->
      quarantine_bytes t
        ~name:(record_name ~seq:p.seg.seq ~off:p.off)
        (String.sub p.seg.pack p.off p.len);
      None

(* The result of [e]'s packed record, validated on its first read and
   kept. A record that fails leaves the index (unless something newer
   replaced it meanwhile) and answers [`Corrupt] this once. *)
let packed_result t ~key e =
  match Mutex.protect t.lock (fun () -> e.packed) with
  | None -> `Absent
  | Some { result = Some r; _ } -> `Hit r
  | Some p -> (
      match read_packed ~key t p ~digest:e.digest with
      | Some (_, _, r) ->
          Mutex.protect t.lock (fun () -> p.result <- Some r);
          `Hit r
      | None ->
          Mutex.protect t.lock (fun () ->
              match e.packed with
              | Some q when q == p -> e.packed <- None
              | _ -> ());
          `Corrupt)

let lookup t ~key =
  let raw = Digest.string key in
  let ent =
    Mutex.protect t.lock (fun () -> Digest_tbl.find_opt t.idx.tbl raw)
  in
  (* hex digest and loose path are only materialized on the slow
     branches: the warm packed hit below must stay one hash and one
     table probe, nothing else *)
  (* The key's packed record, else [otherwise]; a record that fails
     its first read answers [`Corrupt]. *)
  let packed_or otherwise =
    match
      Mutex.protect t.lock (fun () -> Digest_tbl.find_opt t.idx.tbl raw)
    with
    | Some e -> (
        match packed_result t ~key e with
        | (`Hit _ | `Corrupt) as v -> v
        | `Absent -> otherwise)
    | None -> otherwise
  in
  (* Not live in the index (or its packed record failed): either truly
     absent or published by another process after our open. Probe the
     loose path (publications always land loose), then check for
     segments we have not seen. *)
  let probe () =
    let hex = Digest.to_hex raw in
    match read_loose ~key t (loose_path t hex) ~digest:raw with
    | `Valid (text, _, result) ->
        Mutex.protect t.lock (fun () ->
            let e = upsert t raw in
            match e.loose with
            | No_file ->
                e.loose <- Known result;
                e.loose_bytes <- String.length text
            | Unread | Known _ -> ());
        `Hit result
    | `Invalid -> `Corrupt
    | `Foreign -> `Miss
    | `Vanished ->
        let stamp = seg_dir_stamp t in
        if stamp > Mutex.protect t.lock (fun () -> t.idx.seg_stamp) then begin
          Mutex.protect t.lock (fun () -> rescan_segments_locked t);
          packed_or `Miss
        end
        else `Miss
  in
  match ent with
  | Some { loose = Known r; _ } -> `Hit r
  | Some { packed = Some { result = Some r; _ }; loose = No_file; _ } ->
      (* Warm packed hit: validated and decoded by an earlier read — no
         syscall here. *)
      `Hit r
  | Some ({ packed = Some _; loose = No_file; _ } as e) -> (
      match packed_result t ~key e with
      | `Hit r -> `Hit r
      | `Absent -> probe ()
      | `Corrupt -> (
          (* quarantined just now: a loose copy may still answer *)
          match probe () with `Miss -> `Corrupt | v -> v))
  | Some ({ loose = Unread; _ } as e) -> (
      let hex = Digest.to_hex raw in
      match read_loose ~key t (loose_path t hex) ~digest:raw with
      | `Valid (text, _, result) ->
          (* Remembered, unless the file left the index meanwhile (a
             compaction through this handle folded it). *)
          Mutex.protect t.lock (fun () ->
              match e.loose with
              | Unread ->
                  e.loose <- Known result;
                  e.loose_bytes <- String.length text
              | No_file | Known _ -> ());
          `Hit result
      | `Invalid -> (
          Mutex.protect t.lock (fun () -> e.loose <- No_file);
          (* A valid packed copy underneath the quarantined loose file
             still answers: same key, same content address. *)
          packed_or `Corrupt)
      | `Foreign -> (
          Mutex.protect t.lock (fun () -> demote_foreign_locked t e);
          packed_or `Miss)
      | `Vanished -> (
          (* The loose file went away under us — almost certainly a
             compaction by another process. Fold in any new segments
             and retry from memory before conceding a miss. *)
          Mutex.protect t.lock (fun () ->
              e.loose <- No_file;
              rescan_segments_locked t);
          packed_or `Miss))
  | Some { packed = None; loose = No_file; _ } | None -> probe ()

let find t ~key =
  match lookup t ~key with `Hit r -> Some r | `Miss | `Corrupt -> None

(* ------------------------------------------------------------------ *)
(* Compaction                                                         *)

type compaction = {
  folded : int;  (* loose entries folded into the new segment *)
  rewritten : int;  (* packed records carried into it (full mode) *)
  dropped : int;  (* dead records left behind with deleted segments *)
  segment : int option;  (* sequence number written, if any *)
  pack_bytes : int;
  reclaimed_bytes : int;  (* loose bytes deleted behind the barrier *)
}

let no_compaction =
  {
    folded = 0;
    rewritten = 0;
    dropped = 0;
    segment = None;
    pack_bytes = 0;
    reclaimed_bytes = 0;
  }

type crash_point = Crash_before_publish | Crash_after_publish

(* One record of the segment being written: a loose entry to fold
   ([path] names its file, deleted behind the barrier) or, with [full],
   a live packed record carried forward ([path] is [None]). *)
type item = {
  ent : ent;
  path : string option;
  key : string;
  payload : string;
  result : Sim_types.result;
}

(* Fold every loose entry (re-validated on the way in) into one new
   segment; with [full], live records of existing segments are
   rewritten into it too and the old segments deleted, so shadowed
   records are dropped and the store converges to a single pack. The
   records go in ascending digest order, so a segment's .pack and .idx
   depend only on the records it holds — not on the order their entries
   were written, listed by readdir or filed in the index.

   Publish order is the crash-safety argument: the pack is staged in
   tmp/ and fsynced, its sequence number is claimed by hard-linking the
   staged file into segments/, then its sidecar is staged, fsynced and
   renamed into place under the claimed number, and only after both are
   durable are the folded loose files (and with [full] the superseded
   segments) deleted. A crash at any point leaves every point reachable
   — at worst a loose file coexists with its packed copy (identical
   content, loose wins), a pack awaits the sidecar its next load
   rebuilds, or an orphan staging file awaits sweep_tmp.

   link(2), unlike rename, fails when the name exists: another handle
   (this process's or another's) that compacted since our index last
   saw segments/ may already own [max_seq + 1]. Then we load what it
   published and claim the next number, so two compactors never replace
   each other's segment. [crash] is a test hook simulating kill -9 at
   the two interesting points. *)
let compact_locked ?(full = false) ?crash t =
  let live_loose = ref [] in
  Digest_tbl.iter
    (fun _ e -> if has_loose e then live_loose := e :: !live_loose)
    t.idx.tbl;
  (* Gather loose entries, re-validating: only bytes that pass the same
     checks a read applies are worth making durable. A loose file that
     fails is quarantined here instead of at its next read. *)
  let folded =
    List.filter_map
      (fun e ->
        let path = loose_path t (Digest.to_hex e.digest) in
        match read_loose t path ~digest:e.digest with
        | `Valid (payload, key, result) ->
            Some { ent = e; path = Some path; key; payload; result }
        | `Foreign ->
            demote_foreign_locked t e;
            None
        | `Invalid | `Vanished ->
            e.loose <- No_file;
            None)
      !live_loose
  in
  let old_segs = t.idx.segs in
  let old_records = List.fold_left (fun a s -> a + s.records) 0 old_segs in
  let worthwhile =
    folded <> []
    || full
       && old_segs <> []
       && (List.length old_segs > 1 || t.idx.replay_dead > 0)
  in
  if not worthwhile then no_compaction
  else begin
    (* In full mode, carry the live packed records forward too, each
       read and validated (a record that fails is quarantined). A
       carried record has no loose file, so no digest is written twice. *)
    let rewritten = ref [] in
    if full then
      Digest_tbl.iter
        (fun _ e ->
          match (e.loose, e.packed) with
          | No_file, Some p -> (
              match read_packed t p ~digest:e.digest with
              | Some (key, payload, result) ->
                  rewritten :=
                    { ent = e; path = None; key; payload; result }
                    :: !rewritten
              | None -> e.packed <- None)
          | _ -> ())
        t.idx.tbl;
    let items =
      List.sort
        (fun a b -> String.compare a.ent.digest b.ent.digest)
        (List.rev_append folded !rewritten)
    in
    let buf = Buffer.create 65536 in
    Buffer.add_string buf pack_magic;
    let placed =
      List.map
        (fun it ->
          let off = Buffer.length buf in
          record_append buf ~key:it.key ~payload:it.payload;
          (it, off))
        items
    in
    let pack_text = Buffer.contents buf in
    let staged = stage ~fsync:true t ~temp_name:"pack.tmp" pack_text in
    (* Simulated kill -9 between staging and the claim: the only residue
       is a tmp/ file that sweep_tmp will collect. *)
    if crash = Some Crash_before_publish then Unix._exit 42;
    mkdir_p (segments_dir t);
    let rec claim seq =
      match Unix.link staged (segment_pack_path t ~seq) with
      | () -> seq
      | exception Unix.Unix_error (Unix.EEXIST, _, _) ->
          rescan_segments_locked t;
          claim (max (seq + 1) (t.idx.max_seq + 1))
    in
    let seq = claim (t.idx.max_seq + 1) in
    Sys.remove staged;
    write_atomically ~fsync:true t
      ~temp_name:(Printf.sprintf "%08d.idx.tmp" seq)
      ~dest:(segment_idx_path t ~seq)
      (idx_render (List.map (fun (it, off) -> (it.ent.digest, off)) placed));
    (match crash with
    | Some Crash_after_publish ->
        (* Simulated kill -9 after the segment is durable but before
           the deletion barrier: loose files coexist with their packed
           copies; the loose side wins on replay, content identical. *)
        Unix._exit 42
    | _ -> ());
    (* Deletion barrier: the segment and sidecar are on disk. *)
    let reclaimed = ref 0 in
    List.iter
      (fun it ->
        Option.iter
          (fun path ->
            reclaimed := !reclaimed + String.length it.payload;
            try Sys.remove path with Sys_error _ -> ())
          it.path)
      items;
    if full then
      List.iter
        (fun s ->
          (try Sys.remove (segment_pack_path t ~seq:s.seq)
           with Sys_error _ -> ());
          try Sys.remove (segment_idx_path t ~seq:s.seq)
          with Sys_error _ -> ())
        old_segs;
    (* Update the in-memory view to match. *)
    let seg_meta = { seq; pack = pack_text; records = 0 } in
    if full then begin
      (* Segments a concurrent compactor published while we claimed a
         number stay; everything we rewrote goes. *)
      let superseded s = List.memq s old_segs in
      t.idx.segs <- List.filter (fun s -> not (superseded s)) t.idx.segs;
      t.idx.replay_dead <- 0;
      Digest_tbl.iter
        (fun _ e ->
          match e.packed with
          | Some p when superseded p.seg -> e.packed <- None
          | _ -> ())
        t.idx.tbl
    end;
    List.iter
      (fun (it, off) ->
        insert_packed t it.ent
          {
            seg = seg_meta;
            off;
            len = record_length ~key:it.key ~payload:it.payload;
            payload_bytes = String.length it.payload;
            result = Some it.result;
          };
        if it.path <> None then it.ent.loose <- No_file)
      placed;
    t.idx.segs <- t.idx.segs @ [ seg_meta ];
    t.idx.max_seq <- seq;
    t.idx.seg_stamp <- seg_dir_stamp t;
    {
      folded = List.length folded;
      rewritten = List.length !rewritten;
      dropped =
        (if full then max 0 (old_records - List.length !rewritten) else 0);
      segment = Some seq;
      pack_bytes = String.length pack_text;
      reclaimed_bytes = !reclaimed;
    }
  end

let compact ?full ?crash t =
  let c = Mutex.protect t.lock (fun () -> compact_locked ?full ?crash t) in
  if c.segment <> None then refresh_manifest t;
  c

(* Inverse of compaction: write every live packed record back as a
   loose entry file — byte-identical to the file that was packed, since
   payloads are preserved verbatim — then delete the segments. *)
let unpack t =
  let restored =
    Mutex.protect t.lock (fun () ->
        let restored = ref 0 in
        Digest_tbl.iter
          (fun _ e ->
            match (e.loose, e.packed) with
            | No_file, Some p -> (
                match read_packed t p ~digest:e.digest with
                | Some (key, payload, result) ->
                    write_atomically t
                      ~temp_name:(digest_of_key key ^ ".json.tmp")
                      ~dest:(loose_path t (Digest.to_hex e.digest))
                      payload;
                    e.loose <- Known result;
                    e.loose_bytes <- String.length payload;
                    e.packed <- None;
                    incr restored
                | None -> e.packed <- None)
            | _, Some _ -> e.packed <- None
            | _, None -> ())
          t.idx.tbl;
        List.iter
          (fun s ->
            (try Sys.remove (segment_pack_path t ~seq:s.seq)
             with Sys_error _ -> ());
            try Sys.remove (segment_idx_path t ~seq:s.seq)
            with Sys_error _ -> ())
          t.idx.segs;
        t.idx.segs <- [];
        t.idx.replay_dead <- 0;
        t.idx.seg_stamp <- seg_dir_stamp t;
        !restored)
  in
  refresh_manifest t;
  restored

(** Crash-safe, content-addressed result store with packed segments.

    Layout under the store root:

    {v
    MANIFEST.json              mfu-store/v1: schemas, sim version, counts
    objects/<p>/<digest>.json  one loose mfu-result/v1 entry; <p> = 2 hex chars
    segments/<seq>.pack        packed, append-only batches of entries
    segments/<seq>.idx         advisory per-segment offset sidecar
    tmp/                       staging area for atomic writes
    quarantine/                entries/records that failed validation
    v}

    An entry is keyed by the MD5 digest of its canonical {!Axes.key}
    string (configuration + trace identity + simulator version), so a
    result can never be confused across configurations, workloads, or
    simulator revisions. Every write goes through a temp file in [tmp/]
    followed by an atomic [rename], so a killed process leaves either a
    complete entry or none — never a torn one.

    {2 Loose vs packed}

    New results always land as {e loose} files — one per entry, exactly
    the pre-segment format, preserving the lease/steal idempotent
    publication semantics byte for byte. {!compact} folds loose entries
    into an append-only [segments/<seq>.pack] (length-prefixed key +
    verbatim payload records, each closed by an MD5), deleting the loose
    files only after the segment and its sidecar are durable on disk.

    {!open_} builds an in-memory index over both worlds, from names and
    sidecars alone: a segment record is filed by the digest and offset
    its [.idx] sidecar lists, a loose entry by its file name — no
    decode per entry. The handle keeps each segment's pack bytes, which
    the open reads whole, and takes packed records from them: packed
    damage is seen as of the open, and a segment another process's full
    compaction or unpack deletes stays readable (segments are
    immutable). Either kind of entry is validated the first time this
    handle looks it up, so loose entries published (or corrupted) by
    other processes before that stay visible without reopening, and
    damage to a packed record is found at its first read, as for a
    loose entry. After that read, and from the start for an entry this
    handle {!put}, the handle answers the key from memory until a loose
    file is quarantined, found gone, or folded by {!compact}; damage
    done to a file later is caught by the next {!compact} or by any
    other handle's read. A loose file shadows a
    packed record of the same digest, and within segments a higher
    sequence number wins, so a crash between segment publication and
    loose-file deletion leaves harmless duplicates, never losses.

    Reads of loose entries re-validate everything: JSON
    well-formedness, the [mfu-result/v1] schema tag, a stored digest
    equal to the file name's, a stored key equal to the key looked up
    (or, when {!compact} folds a file it has no key for, hashing to the
    file name), and sane result fields. A segment record is checked the
    same way after its MD5, with a framing key that must equal the key
    looked up. Anything failing a check — loose file or segment record —
    is {e quarantined}: moved (or copied) into [quarantine/], preserving
    the evidence, and reported as absent so the store heals by
    recomputation instead of crashing the sweep. *)

val schema : string
(** ["mfu-result/v1"] — the per-entry schema tag. *)

val manifest_schema : string
(** ["mfu-store/v1"]. *)

val pack_magic : string
(** ["mfu-pack/v1\n"] — first bytes of every segment file. *)

type t
(** An open store rooted at a directory. *)

val open_ : string -> t
(** Open (creating directories and an initial manifest as needed) and
    build the in-memory index: read each segment's sidecar and pack,
    filing every record by digest and offset with the payload size its
    header gives, then list the [objects/] shard directories for loose
    entry names. The handle keeps each pack's bytes for its packed
    reads. No record is validated here: {!lookup} validates one
    on its first read. A segment whose sidecar is missing or damaged is
    scanned sequentially instead, each record validated and decoded,
    corrupt ones quarantined, and the sidecar rebuilt. The listing is
    the whole cost of the loose side: no entry file is opened or
    stat'ed. Foreign files in the shard
    directories (anything that is not [<32 hex>.json] in its own shard)
    are skipped and counted, never a reason to fail the open; a
    directory or other non-regular file that is named like an entry is
    counted as foreign by the first read or {!stats} that meets it, and
    is never served or quarantined. *)

val root : t -> string

val digest_of_key : string -> string
(** Hex MD5 of a canonical key — the entry's content address. *)

val entry_path : t -> key:string -> string
(** Absolute path the loose entry for [key] occupies (whether or not it
    exists). *)

val segment_pack_path : t -> seq:int -> string
(** Path of segment [seq]'s pack file. *)

val segment_idx_path : t -> seq:int -> string
(** Path of segment [seq]'s sidecar. *)

val put :
  ?meta:(string * Mfu_util.Json.t) list ->
  t ->
  key:string ->
  Mfu_sim.Sim_types.result ->
  unit
(** Write (or atomically replace) the loose entry for [key] and index
    it, keeping [result] in the index: later lookups of [key] through
    this handle are answered from memory without reading the file.
    [meta] is attached under a ["meta"] field for human
    consumption; it is not validated on read. Safe to call concurrently
    from pool worker domains, server threads, and {e other processes},
    including two writers racing on the same key: each writer stages
    under a private temp name (digest + pid + counter) and the atomic
    renames serialize, so the surviving entry is always one writer's
    complete bytes. *)

val lookup :
  t -> key:string -> [ `Hit of Mfu_sim.Sim_types.result | `Miss | `Corrupt ]
(** Read through the index. An entry this handle {!put}, or has read
    once, is answered from memory without touching the disk; any other
    hit reads and validates its loose file or packed record once and
    keeps the result. [`Corrupt] means a loose entry or a packed record
    existed but failed validation and has been quarantined, and no
    other copy answers (the caller should recompute, exactly as for
    [`Miss]); a later lookup of the key answers [`Miss]. A packed record
    answers from the bytes this handle loaded, even after its segment
    is deleted. When a loose file vanishes underneath the handle —
    another process compacted — new segments are folded in and the read
    is answered from them. *)

val find : t -> key:string -> Mfu_sim.Sim_types.result option
(** [lookup] with [`Corrupt] collapsed to [None]. *)

val loose_reads : t -> int
(** Loose entry files this handle has read so far — by {!lookup},
    {!find} and {!compact}; a probe of a path holding no file is not a
    read. The read path's cost counter: the first warm {!Sweep.run}
    over [n] loose entries that another handle wrote adds exactly [n];
    a cold one, or a warm one over entries this handle wrote or read
    before, none. *)

val packed_reads : t -> int
(** Packed records this handle has read and validated so far — by
    {!lookup}, {!find}, a full {!compact}, {!unpack}, and {!open_} for a
    segment without a usable sidecar. The open cost's counter: opening
    a store whose segments have sidecars reads none, and a lookup reads
    its record the first time only. *)

val entry_count : t -> int
(** Number of live entries in this handle's index, from memory alone. *)

val quarantined : t -> string list
(** File names currently in [quarantine/], sorted. *)

val sweep_tmp : ?older_than:float -> t -> int
(** Remove staging files in [tmp/] older than [older_than] seconds
    (default 600) and return how many were removed. A torn half-written
    temp file left by a killed process is already ignored by every read
    path — entries live under [objects/] — so this is pure hygiene;
    {!open_} calls it with the default threshold, which is far beyond
    the milliseconds a live writer in another process keeps a staging
    file around. *)

type stats = {
  entries : int;  (** live entries (loose or packed) in the index *)
  bytes : int;  (** payload bytes of those entries *)
  loose_entries : int;  (** entries whose live copy is a loose file *)
  packed_entries : int;  (** entries served from a segment record *)
  segment_count : int;  (** pack files under [segments/] *)
  segment_bytes : int;  (** their total on-disk size *)
  shadowed_records : int;
      (** dead segment records: superseded by a later segment or by a
          loose rewrite — reclaimable by [compact ~full:true] *)
  foreign_files : int;  (** non-entry files skipped by the open scan *)
  quarantined_count : int;  (** files in [quarantine/] *)
  fanout_histogram : int array;
      (** live entries per 2-hex shard, indexed 0..255 — the shape the
          sharding layer balances *)
}

val stats : t -> stats
(** O(index): one pass over the in-memory table plus a [quarantine/]
    listing — no [objects/] walk — and one [stat] per loose file whose
    size this handle has not learnt yet (the open scan reads names
    only; [put] knows the size it wrote). [sweep.exe --store-stats] prints it
    and the serve daemon's [/stats] endpoint embeds it. The numbers are
    this handle's view: entries other processes published after our
    open and that we have not looked up yet are not counted, and packed
    records this handle has not read yet are counted with the payload
    size their header gives, before any check. *)

type compaction = {
  folded : int;  (** loose entries folded into the new segment *)
  rewritten : int;  (** packed records carried into it (full mode) *)
  dropped : int;  (** dead records deleted with their old segments *)
  segment : int option;  (** sequence number written, if any *)
  pack_bytes : int;  (** size of the new pack file *)
  reclaimed_bytes : int;  (** loose bytes deleted behind the barrier *)
}

val no_compaction : compaction
(** The all-zero record returned when there was nothing to do. *)

type crash_point = Crash_before_publish | Crash_after_publish
(** Test hooks: simulate kill -9 either before the segment is claimed
    (only tmp/ residue remains) or after it is published but before the
    loose files are deleted (loose and packed copies coexist; loose wins
    on replay). *)

val compact : ?full:bool -> ?crash:crash_point -> t -> compaction
(** Fold every loose entry into one new segment, re-validating each on
    the way in (failures are quarantined, exactly as a read would).
    Each loose file is read once: the bytes that were validated are the
    bytes packed.
    Loose files are deleted only {e after} the pack and its sidecar are
    fsynced and in place — the deletion barrier that makes a crash at
    any instant lose nothing. The pack's sequence number is claimed with
    [link(2)], which never replaces an existing file: a number another
    handle or process published since this handle's last scan is loaded
    and the next one tried, so concurrent compactors lose nothing
    either. With [full], live records of
    existing segments are read, validated and rewritten into the new
    one and the old segments deleted, dropping shadowed records.
    Records are written in ascending key-digest order, loose and
    rewritten alike, so a segment's [.pack] and [.idx] bytes depend only
    on the records it holds: the same entries compact to the same files
    whatever order they were written in, listed by the directory or
    filed in the index. Returns {!no_compaction} when there is nothing
    worth writing. *)

val unpack : t -> int
(** Inverse of {!compact}: validate every live packed record and write
    it back as a loose entry file — byte-identical to the file that was
    packed, payloads are preserved verbatim — then delete all segments.
    Returns the number of entries restored. A store is therefore
    convertible between the two layouts in both directions at any
    time. *)

val refresh_manifest : t -> unit
(** Rewrite [MANIFEST.json] (atomically) to reflect the current entry
    and segment counts, when its bytes differ from the current ones: a
    sweep that changed nothing leaves the file untouched. Entries are
    this handle's live ones; segments are the [segments/*.pack] files on
    disk (one directory listing), so a segment another process deleted
    is not counted even while this handle still serves its records. The manifest
    is advisory — resume decisions always come from the entries
    themselves — so a manifest left stale or damaged by a crash is
    repaired here, never trusted. *)

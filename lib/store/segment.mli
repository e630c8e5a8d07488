(** Immutable sorted on-disk segments of seen-set entries.

    A segment is one frozen shard generation: entries sorted by
    fingerprint (plain int order), delta-compressed in 256-entry blocks,
    fronted by a Bloom filter and a block index that stay resident.  A
    membership probe therefore costs a Bloom test (RAM), and only on a
    positive a binary search of the resident index plus one [pread] of a
    single block.  File handles are not kept open: probes open, seek,
    read one block and close, so a run can accumulate hundreds of
    segments without exhausting descriptors.

    Layout: magic "GCSEG001", a varint header length, then the header
    (shard, seq, entry count, the largest depth stamp among the entries,
    Bloom filter, block index as (first fingerprint, data offset) pairs,
    data length), then the data blocks.  All multi-byte integers are {!Codec} varints over the
    63-bit pattern, so negative fingerprints and packed events
    round-trip.  Within a block the first fingerprint is absolute and
    the rest are deltas from their predecessor (sorted, so the delta is
    positive except for the wrap-around of int overflow, which the
    pattern codec reproduces exactly). *)

type entry = {
  fp : int;  (** fingerprint, never 0 *)
  parent : int;  (** parent fingerprint, 0 for the root *)
  event : int;  (** packed generating event *)
  meta : int;  (** the entry word ({!word}) *)
}

(** {1 The entry word}

    One 32-bit word per entry carries, from bit 0, the depth stamp (23
    bits), the violated invariant's index + 1 (8 bits, 0 for none) and
    the expanded bit (bit 31).  Every reader and writer of entries goes
    through these functions: segments, snapshots and certificate tables
    on disk, and the tiered store's tier 0, which keeps the same word in
    RAM. *)

val max_violation : int
(** Largest violated-invariant index a word can carry (253). *)

val word : depth:int -> violation:int -> expanded:bool -> int
(** Pack a word; [violation] is an index, [-1] for none.  Raises
    [Invalid_argument] if the depth is outside [0, 2^23 - 1] or the
    violation outside [-1, max_violation]. *)

val depth : int -> int
(** The depth stamp of a word. *)

val violation : int -> int
(** The violated-invariant index of a word, [-1] if none. *)

val expanded : int -> bool
(** The expanded bit of a word: the state's successors were generated
    (a closed run has it set on every entry). *)

type t

val path : t -> string
(** The segment's file path. *)

val with_path : t -> string -> t
(** The same segment read through another name of its file (a hard link
    to it), without reading the file again. *)

val shard : t -> int
(** The store shard this segment was frozen from. *)

(** Freeze sequence number within the shard; higher = newer. *)
val seq : t -> int

val length : t -> int
(** Number of entries. *)

(** Largest depth stamp among the entries, which {!write} derives and
    the header records. *)
val max_depth : t -> int

(** On-disk file size in bytes. *)
val disk_bytes : t -> int

(** MD5 (hex) of the segment's file, as {!Checkpoint} records it.  A
    segment is immutable once written, so this is computed on first use
    and cached; a segment loaded with [~digest] starts with it cached. *)
val digest : t -> string

(** Resident footprint (Bloom filter + block index) in bytes. *)
val mem_bytes : t -> int

(** [write ~path ~shard ~seq entries] writes a segment from entries
    sorted by [fp] ascending (raises [Invalid_argument] if not, or if a
    word exceeds 32 bits) and returns the open (resident-parts-loaded)
    handle.  It is not fsynced: a checkpoint or certificate that
    publishes the file fsyncs it ({!Fs.publish}). *)
val write : path:string -> shard:int -> seq:int -> entry array -> t

(** Load the resident parts of an existing segment file.

    Every read of a segment ([load], and the block reads of {!find} and
    {!iter}) fails closed: a short read or bytes that do not decode
    raise [Sys_error "PATH: truncated or corrupt segment"], the error an
    I/O failure raises, so callers that refuse I/O failures refuse a
    damaged segment too.  [load] checks the header's sizes and block
    index against the file length, so truncation anywhere in the file
    is caught when it is loaded.

    With [~digest], the file's MD5 is checked first: a mismatch raises
    [Sys_error "PATH: segment digest mismatch"] before anything is
    decoded, which catches damage that still decodes (a flipped bit
    inside a block). *)
val load : ?digest:string -> string -> t

(** Bloom-only test: definitive [false], [true] with ~1% false
    positives.  Exposed so the tiered store can count Bloom rejections
    separately from real disk probes. *)
val maybe : t -> int -> bool

(** Exact membership probe: Bloom-gated single-block read. *)
val find : t -> int -> entry option

(** All entries in fingerprint order: one sequential pass over the data
    region, a block at a time through one reused buffer, so a corrupt
    block raises after [f] has seen the blocks before it. *)
val iter : t -> (entry -> unit) -> unit

val entries : t -> entry array
(** All entries materialized as an array ({!iter} into a buffer) — for
    merges and certificate loading, not the probe path. *)

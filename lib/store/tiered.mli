(** The tiered state store: the checker's seen-set behind a bounded
    memory budget.

    Tier 0 is the sharded open-addressing table the parallel explorer
    has always used — 64 independently-locked shards over unboxed int
    bigarrays, four words (32 bytes) per state: fingerprint, parent
    fingerprint, packed event, and the segment entry word
    ({!Segment.word}: depth stamp | violated-invariant index | expanded
    bit).  Every operation, including the 70%-load doubling, runs
    entirely under the owning shard's mutex, so the lost-insert resize
    race is impossible by construction (the multi-domain hammer test
    drives dozens of concurrent resizes on one shard).

    With a [mem_budget], a shard whose measured occupancy
    (entries x {!entry_bytes}) crosses its slice of the budget freezes
    into a sorted, delta-compressed on-disk {!Segment} fronted by a
    resident Bloom filter, and its tier-0 table is reset.  Membership
    stays exact: a tier-0 miss consults each segment's Bloom filter
    (RAM) and pays a single-block disk read only on the rare positive,
    so a fresh insert is never misclassified.

    Mutation of a disk-resident entry (depth improvement, first
    expansion, violation marking) shadow-inserts the updated copy into
    tier 0, so a fingerprint may have several copies.  One rule says
    which is current, the newest-wins view: tier 0 first, then the
    segments newest first.  {!add}, {!mark_violation}, {!begin_expand}
    and {!find} probe in that order; the merge of [merge_fanout]
    segments into one, {!max_depth} and {!iter} read the shard's view,
    which for a shard with no segments is tier 0 read in place.  So
    {!max_depth} is exact under any budget. *)

type t

(** Verdict of an {!add}: [Fresh] (never seen), [Improved v] (seen, but
    this path is shorter; [v] is the recorded violated-invariant index,
    [-1] if none), or [Stale] (seen at an equal-or-shorter depth). *)
type add_result = Fresh | Improved of int | Stale

(** Spill/merge/probe observation hooks (for tracing spans); they run
    under the shard lock, so they must not call back into the store. *)
type hooks = {
  on_spill : shard:int -> entries:int -> bytes:int -> start_ns:int -> stop_ns:int -> unit;
  on_merge : shard:int -> segments:int -> entries:int -> start_ns:int -> stop_ns:int -> unit;
  on_disk_probe : shard:int -> hit:bool -> start_ns:int -> stop_ns:int -> unit;
}

val no_hooks : hooks
(** Hooks that do nothing (the default). *)

type stats = {
  spills : int;  (** shard freezes performed *)
  merges : int;  (** segment merges performed *)
  segments : int;  (** live segments right now *)
  spilled_entries : int;  (** entries written by freezes (cumulative) *)
  disk_probes : int;  (** segment reads that passed a Bloom filter *)
  disk_hits : int;  (** probes that found the fingerprint *)
  bloom_checks : int;  (** per-segment Bloom tests on the miss path *)
  bloom_negatives : int;  (** tests answered without touching disk *)
  resident_entries : int;  (** tier-0 entries across shards *)
  resident_bytes : int;  (** resident_entries x entry_bytes *)
  peak_resident_bytes : int;  (** sum of per-shard occupancy peaks *)
  disk_bytes : int;  (** live segment file bytes *)
  segment_mem_bytes : int;  (** resident Bloom + index bytes *)
}

val n_shards : int
(** Number of independently-locked shards (64); fingerprints are
    distributed by their low bits. *)

(** Bytes per tier-0 entry (4 words). *)
val entry_bytes : int

(** [create ()] is the all-RAM store (bit-for-bit the old seen-set).
    [mem_budget] (bytes, > 0) arms spilling: each shard freezes when its
    occupancy reaches [mem_budget / n_shards] (with a small floor).
    Segments go to [spill_dir] (created if missing; a fresh temporary
    [gcstore-*] directory when omitted, see {!temp_dir}).
    [shard_cap] is the initial (and post-freeze) slots per shard, a
    power of two. *)
val create :
  ?shard_cap:int -> ?mem_budget:int -> ?spill_dir:string -> ?merge_fanout:int -> unit -> t

val set_hooks : t -> hooks -> unit
(** Install observation hooks (replacing {!no_hooks}); call before
    concurrent use begins. *)

val mem_budget : t -> int
(** The armed resident-byte budget, 0 when spilling is off. *)

(** [add t fp ~parent ~event ~depth]: [Fresh] if [fp] is in neither
    tier, [Improved v] if present with a larger depth stamp (the triple
    is rewritten, shadow-inserting if the copy was on disk; [v] is the
    entry's violated-invariant index, -1 if none), [Stale] otherwise.
    [fp] must be non-zero; [depth] must fit the entry word
    ({!Segment.word}). *)
val add : t -> int -> parent:int -> event:int -> depth:int -> add_result

(** Record that [fp] violates invariant [idx] (at most
    {!Segment.max_violation}; kept in the entry word so a later depth
    improvement can re-offer the violation). *)
val mark_violation : t -> int -> int -> unit

(** A task's claim to expand [fp] at stamp [depth]: [`Stale] when the
    entry has since improved below [depth], otherwise the entry's
    current depth, tagged [`First] exactly once per state so
    transition/deadlock counts are first-expansion-only. *)
val begin_expand : t -> int -> depth:int -> [ `Stale | `First of int | `Again of int ]

(** [(parent, packed event)] of a present fingerprint. *)
val find : t -> int -> (int * int) option

(** Distinct states stored (both tiers; shadow copies not counted). *)
val count : t -> int

(** Total tier-0 slots across shards. *)
val capacity : t -> int

val locks : t -> Obs.Contention.lock array
(** The per-shard instrumented locks, for contention attribution. *)

(** Racy sums, safe to read concurrently (heartbeat records). *)
val resident_bytes : t -> int

val resident_bytes_per_shard : t -> int array
(** Racy per-shard occupancy (the [bytes_resident_per_shard] field of
    the explorer's [heartbeat] and [scaling-detail] records). *)

val stats : t -> stats
(** Racy counter snapshot ({!type:stats}); exact once quiescent. *)

(** {1 The whole store} — callers must guarantee quiescence (all
    workers parked or joined); these read the shards without locking. *)

(** Largest depth stamp among the stored fingerprints' newest copies. *)
val max_depth : t -> int

val iter : t -> (Segment.entry -> unit) -> unit
(** [iter t f] calls [f] once per stored fingerprint with its newest
    copy, shard by shard: ascending fingerprints within a shard that has
    segments, slot order within one that has none.  [f] must not call
    back into the store. *)

(** {1 Checkpoint support} — callers must guarantee quiescence (all
    workers parked); these take the shard locks but snapshot multi-shard
    state non-atomically. *)

(** Tier-0 contents of one shard, sorted by fingerprint. *)
val tier0_dump : t -> shard:int -> Segment.entry array

(** Live segments of one shard, newest first. *)
val segments_of : t -> shard:int -> Segment.t list

(** [(distinct, next_seq)] of one shard. *)
val shard_meta : t -> shard:int -> int * int

(** Rebuild one shard from a snapshot: [tier0] entries are re-inserted,
    [segs] (newest first) attached as-is. *)
val restore_shard :
  t ->
  shard:int ->
  distinct:int ->
  next_seq:int ->
  tier0:Segment.entry array ->
  segs:Segment.t list ->
  unit

(** The spill directory, creating a fresh temporary directory on demand
    when the store was created without one. *)
val ensure_spill_dir : t -> string

val temp_dir : t -> string option
(** The store's own temporary spill directory, if it made one; a
    [spill_dir] given to {!create} is never one.  Whoever ends the
    store's use removes it ({!Fs.rm_rf}); segments a checkpoint linked
    survive under the snapshot's names.  Holding the path rather than
    the store lets the store be collected before that. *)

(** Atomic checkpoints of an exploration, on the segment format.

    A checkpoint directory holds numbered snapshots [snap-N] plus a
    [MANIFEST.json] naming the latest complete one.  A snapshot is
    self-contained: every live segment hard-linked in (segments are
    immutable, so a link is a copy; falls back to a byte copy across
    filesystems), the tier-0 contents of every shard dumped as per-shard
    segment files, and a [state.json] with the counters, the
    best-violation cell, each segment file's name and MD5, the frontier (as (fingerprint, depth) pairs per
    worker — states are replayed from parent chains at resume, because
    CIMP systems embed closures and cannot be marshalled), and the tool
    configuration echoed verbatim.

    Atomicity protocol: everything is written into a [tmp-snap]
    directory, which {!Fs.publish} makes durable as [snap-N] (every file
    in it fsynced, the directory renamed, the parent fsynced); only then
    is [MANIFEST.json] published the same way from [MANIFEST.json.tmp].
    A crash at any step leaves the manifest naming a complete snapshot
    (the previous one until the manifest's rename); stale [tmp-snap] and
    superseded [snap-K] directories are garbage-collected on the next
    write. *)

type snapshot = {
  seq : int;  (** this snapshot's sequence number *)
  states : int;
  transitions : int;
  deadlocks : int;
  truncated : bool;
  elapsed_s : float;  (** exploration seconds before the snapshot *)
  best : (int * int * int) option;  (** best violation: depth, fp, invariant index *)
  frontier : (int * int) list array;  (** (fp, depth) tasks per worker *)
  store : Tiered.t;  (** the rebuilt store (populated on {!load} only) *)
}

(** Write snapshot [seq] of [store] (must be quiescent) into [dir]. *)
val write :
  dir:string ->
  seq:int ->
  config:Obs.Json.t ->
  store:Tiered.t ->
  states:int ->
  transitions:int ->
  deadlocks:int ->
  truncated:bool ->
  elapsed_s:float ->
  best:(int * int * int) option ->
  frontier:(int * int) list array ->
  unit

(** Latest complete snapshot's sequence number and echoed configuration,
    without loading the store (so a resuming tool can rebuild the model
    first).  [MANIFEST.json] is read fail-closed like [state.json]
    below: [schema], [seq], [latest] and [config] (opaque, but present)
    are required, and a schema other than 3 returns [Error
    "MANIFEST.json: schema N, expected 3"] (schema-2 snapshots hold
    fingerprints mixed without slot hashes, and schema-1 snapshots
    fingerprints that mixed label characters, neither of which any run
    now produces). *)
val manifest : string -> (int * Obs.Json.t, string) result

(** Load the latest complete snapshot.  The store is rebuilt with the
    given parameters (normally those echoed in the manifest config);
    snapshot segments are hard-linked into the live spill directory, so
    later merges can never destroy the snapshot's own files.  Without a
    [spill_dir] that directory is the store's own temporary one:
    [Check.Par_explore.run] removes it when a resumed run ends, and
    [load] itself when it refuses the snapshot.

    [state.json] is read fail-closed through {!Obs.Json.Decode}: every
    field [load] reads is required and typed, every list element is
    decoded, and any other shape returns [Error "state.json: missing or
    malformed PATH"] naming the first bad value (e.g. [truncated],
    [best.fp], [frontier[0][3]], [shards[3].next_seq]) instead of being
    read as a default.  The only nulls accepted are those {!write}
    writes: [best] when there is no violation and [tier0] for an empty
    shard.  [schema] must be 3, as in the manifest; [config] (the
    manifest's is the one read) is not read.  Every tier-0 dump and live
    segment is checked against the MD5 [state.json] records for it before
    it is decoded: a mismatch returns [Error] naming the snapshot's file
    (["PATH: segment digest mismatch"]), and so does a file that is
    truncated or does not decode ({!Segment.load}). *)
val load : ?mem_budget:int -> ?spill_dir:string -> string -> (snapshot, string) result

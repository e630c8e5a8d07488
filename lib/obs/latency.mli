(** HDR-style latency histograms: log-bucketed, concurrent, exact tails.

    A reservoir histogram keeps a uniform *sample*: past capacity, a
    p99.9 is the p99.9 of the few thousand survivors, and the one 80 ms
    handshake in ten million is overwhelmingly likely to have been
    evicted.  Latency observatories need the opposite bias — the tail
    must be exact at any volume.  This module trades value resolution
    for exact counts: values (integer nanoseconds) land in fixed
    log-spaced buckets whose representative is within ~2% of any value
    in the bucket (1/64 worst case), counts are exact, so every
    percentile — p50 through p99.99 and beyond — is exact up to that 2%
    value quantisation, forever, in O(1) memory.

    Bucket scheme: values below 32 ns get one bucket each (exact);
    above, each power-of-two range splits into 32 linear sub-buckets
    (bucket width ≤ value/32, representative at the bucket midpoint, so
    relative error ≤ 1/64).  The range covers 0 ns .. 100 s; larger
    values clamp into the top bucket (the exact maximum is tracked
    separately and reported unclamped).

    Concurrency: recording is lock-free — each recording domain owns a
    lane (domain id modulo a small power-of-two lane count; lanes are
    allocated on first use) of atomic bucket counters, and a record is
    two [fetch_and_add]s plus min/max CAS loops that are almost always
    no-ops.  Snapshots merge the lanes; a snapshot concurrent with
    recording may straddle an observation, which is fine for
    monitoring.

    Coordinated omission: for a *periodic* operation measured by timing
    each occurrence, a single long stall hides the occurrences that
    never happened while it lasted, silently flattering the tail.
    {!record_corrected} applies the standard HdrHistogram back-fill:
    after recording a value [v] exceeding the expected interval [T], it
    also records [v - T], [v - 2T], ... while the remainder is at least
    [T] — the latencies the omitted occurrences would have seen.
    {!recorder} packages this for tick-style use. *)

type t

(** [create name] with [lanes] recording lanes (default 8, rounded up
    to a power of two).  Memory is one bucket array (~1 k counters) per
    lane actually recorded into, so a single-writer histogram costs one
    lane.  [name] labels the histogram in dumps and debugging. *)
val create : ?lanes:int -> string -> t

val name : t -> string

(** [record t v_ns] adds one observation of [v_ns] nanoseconds.
    Negative values clamp to 0; values above 100 s clamp into the top
    bucket (max stays exact).  Lock-free; safe from any domain. *)
val record : t -> int -> unit

(** [record_corrected t ~expected_interval_ns v_ns] records [v_ns] and
    back-fills the observations a periodic operation (period
    [expected_interval_ns]) would have made while this one stalled:
    [v - T], [v - 2T], ... while the remainder is ≥ [T].  With
    [expected_interval_ns <= 0] this is {!record}. *)
val record_corrected : t -> expected_interval_ns:int -> int -> unit

(** Total observations recorded (including back-filled ones). *)
val count : t -> int

(** [percentile t p] for [p] in [0..100]: the representative value of
    the bucket containing the [p]-th percentile observation, clamped to
    the exact observed [min..max]; [None] when empty. *)
val percentile : t -> float -> int option

val min_ns : t -> int option  (** Exact observed minimum. *)

val max_ns : t -> int option  (** Exact observed maximum (unclamped). *)

(** Aggregate view, merged across lanes. *)
type snapshot = {
  count : int;
  mean_ns : float;
  p50_ns : int;
  p90_ns : int;
  p99_ns : int;
  p999_ns : int;
  min_ns : int;
  max_ns : int;
}

val snapshot : t -> snapshot option
(** [None] when no observation was recorded. *)

(** The JSON summary attached to records: [count], [mean_ns], [p50_ns],
    [p90_ns], [p99_ns], [p999_ns], [min_ns], [max_ns].  Empty
    histograms emit [count = 0] and [null] for every other field —
    never [NaN]. *)
val to_json : t -> Json.t

(** {1 Interval recorder} — periodic operations, tick-to-tick. *)

type recorder

(** [recorder h] times successive {!tick}s into [h].  [clock] (default
    {!Clock.monotonic_ns}) is injectable for deterministic tests.  A
    positive [expected_interval_ns] enables coordinated-omission
    back-fill on every recorded interval. *)
val recorder : ?clock:(unit -> int) -> ?expected_interval_ns:int -> t -> recorder

(** The first tick arms the recorder; each subsequent tick records the
    time since the previous one (with back-fill if configured). *)
val tick : recorder -> unit

(** {1 Bucket arithmetic} — exposed for boundary tests. *)

val bucket_of : int -> int
(** Bucket index for a value (after clamping to the covered range). *)

val representative : int -> int
(** The value reported for a bucket: its midpoint (exact for values
    below 32 and for the first power-of-two range). *)

val n_buckets : int

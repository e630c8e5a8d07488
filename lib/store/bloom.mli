(** Per-segment Bloom filters.

    Sized at ~10 bits per expected key (rounded up to a power of two, so
    effectively 8–16 bits/key) with [k = 7] probes by double hashing, for
    a false-positive rate around 1%.  A negative answer is definitive, so
    the hot membership path of the tiered store — "is this fingerprint in
    any frozen segment?" — stays RAM-only except for the rare positive.

    Filters are immutable once their segment is written; [add] is only
    used during segment construction. *)

type t

(** [create ~expected] for [expected] keys (>= 0). *)
val create : expected:int -> t

val add : t -> int -> unit
(** Insert a key (segment construction only; filters are immutable once
    their segment is written). *)

(** Definitive [false]; [true] with ~1% false positives. *)
val mem : t -> int -> bool

(** Resident size of the bit array in bytes. *)
val bytes : t -> int

(** Append the serialized filter (self-delimiting). *)
val write : Buffer.t -> t -> unit

(** [read b pos] parses a filter back; returns it and the position just
    past it.  Raises [Invalid_argument] on bytes {!write} cannot have
    produced (a probe count or size no filter has). *)
val read : Bytes.t -> int -> t * int

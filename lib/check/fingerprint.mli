(** Canonical fingerprints of global CIMP states.

    Control state is identified by the label spine of each process's frame
    stack; data states must be canonical plain OCaml data (no closures, no
    cycles, canonical collection representations), which everything in the
    GC model is — then structural comparison is sound.

    Each fingerprint caches a compact word-sized structural hash, never
    0, computed once when it is built.  It is mixed from one hash per
    slot: a slot's hash is an FNV-1a-style mix over that slot's label
    spine, one word per label, and its data representation.  Each
    configuration memoises its slot hash, so a successor re-mixes only
    the slots its step changed.  The hash is strong enough to key the
    parallel explorer's sharded seen-set on its own: collisions occur
    with probability about [n^2 / 2^63] for [n] states.  The structural
    (spine list, payload list) key is built only when {!equal} asks for
    it.  The parallel engine and the certificate validator read only
    {!hash}; the exact reference BFS, the litmus DFS and the tests
    compare keys.

    The hash values are part of the GCCERT003 certificate table and the
    schema-3 checkpoint formats (both store them), so changing the mix, or
    {!Cimp.Label.hash}, is a format change: every stored certificate and
    checkpoint would stop matching.  Tests pin literal values of the mix,
    the label hash and whole certificate headers. *)

type t

val of_system : ('a, 'v, 's) Cimp.System.t -> t
(** Fingerprint a system's (control spine, data payloads) pair: {!seed}
    mixed with each process's {!slot_hash}, in pid order. *)

(** [of_parts ~control ~data] fingerprints an explicitly assembled
    (control-spine, data-payload) pair with the exact mix {!of_system}
    uses: slot [q] is the [q]th spine with the [q]th payload.  It is the
    oracle the tests hold the in-place mixes to.  The [data] payloads
    must satisfy the same canonical-plain-data contract as process data
    states.  The compact hash is computed here, once.  Raises
    [Invalid_argument] when the lists' lengths differ, or on a payload
    holding a closure, infix, object, lazy or forward block. *)
val of_parts : control:Cimp.Label.t list list -> data:Stdlib.Obj.t list -> t

(** {1 The mix, slot by slot}

    A slot's hash mixes the tag 13, one word per frame (its head label's
    {!Cimp.Label.hash}), the tag 17 and the walk of the payload, from
    {!seed}, and is never 0.  A fingerprint's hash is
    [of_mix (List.fold_left mix_slot seed slot_hashes)].  Reducers use
    these to fingerprint a canonical representative (slots permuted,
    dead registers nulled) without assembling it. *)

(** The hash of a configuration's slot, memoised in the configuration:
    computed at most once per configuration, whichever domain asks
    first ({!Cimp.Com.memo_hash}). *)
val slot_hash : ('a, 'v, 's) Cimp.Com.config -> int

(** [fresh_slot_hash stack d]: the hash of a slot holding frame stack
    [stack] and payload [d], computed afresh.  [slot_hash c] =
    [fresh_slot_hash c.stack c.data]; use it for a payload that no
    configuration holds, e.g. one with its dead registers nulled. *)
val fresh_slot_hash : ('a, 'v, 's) Cimp.Com.t list -> 'd -> int

val seed : int

(** [mix_slot h s]: [h] with the next slot's hash [s] mixed in. *)
val mix_slot : int -> int -> int

(** [of_mix h ~key]: the fingerprint whose hash is the finished [h],
    which must be {!seed} mixed with the slot hashes of the (spine list,
    payload list) pair [key] builds, in slot order.  [key] is called only
    when {!equal} compares, so it must be pure. *)
val of_mix : int -> key:(unit -> Cimp.Label.t list list * Stdlib.Obj.t list) -> t

(** Structural equality (the cached hash is used as a cheap negative
    filter first; the two keys are built only when the hashes agree). *)
val equal : t -> t -> bool

(** The compact structural fingerprint as a native int (never 0). *)
val hash : t -> int

(** Hash tables keyed by fingerprint ({!hash} for hashing, {!equal} for
    collision resolution) — the reference BFS's exact seen-set. *)
module Table : Hashtbl.S with type key = t

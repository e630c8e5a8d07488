(** Canonical fingerprints of global CIMP states.

    Control state is identified by the label spine of each process's frame
    stack; data states must be canonical plain OCaml data (no closures, no
    cycles, canonical collection representations), which everything in the
    GC model is — then structural comparison is sound.

    Each fingerprint caches a compact word-sized structural hash (an
    FNV-1a-style mix over the label spine, one word per label, and the
    data representation, never 0), computed once when it is built.  It is
    strong enough to key the parallel explorer's sharded seen-set on its
    own: collisions occur with probability about [n^2 / 2^63] for [n]
    states.  The mix reads each slot's spine from its frame stack and each
    payload in place; the structural (spine list, payload list) key is
    built only when {!equal} asks for it.  The parallel engine and the
    certificate validator read only {!hash}; the exact reference BFS, the
    litmus DFS and the tests compare keys.

    The hash values are part of the GCCERT002 certificate table and the
    schema-2 checkpoint formats (both store them), so changing the mix, or
    {!Cimp.Label.hash}, is a format change: every stored certificate and
    checkpoint would stop matching.  Tests pin literal values of the mix,
    the label hash and whole certificate headers. *)

type t

val of_system : ('a, 'v, 's) Cimp.System.t -> t
(** Fingerprint a system's (control spine, data payloads) pair; the
    compact hash is computed here, once, from the slots in place. *)

(** [of_parts ~control ~data] fingerprints an explicitly assembled
    (control-spine, data-payload) pair with the exact mix {!of_system}
    uses.  This is the hook state-space reducers use to fingerprint a
    *canonical representative* (e.g. with symmetric processes sorted or
    dead registers nulled) without materialising an executable system:
    the [data] payloads must satisfy the same canonical-plain-data
    contract as process data states.  The compact hash is computed here,
    once.  Raises [Invalid_argument] on a payload holding a closure,
    infix, object, lazy or forward block. *)
val of_parts : control:Cimp.Label.t list list -> data:Stdlib.Obj.t list -> t

(** [of_slots ~n ~stack ~data] is [of_parts] of the [n] slots whose
    frame stacks are [stack q] and whose payloads are [data q], for [q]
    from 0: [control] is each stack's {!Cimp.Com.stack_labels}, [data]
    each payload.  The hash is mixed from the stacks and payloads in
    place; the lists are built, by calling [stack] and [data] again, only
    when {!equal} compares the key, so both must be pure.  This is how
    reducers fingerprint a canonical representative (slots permuted, dead
    registers nulled) without assembling it; the payloads must satisfy
    {!of_parts}'s contract. *)
val of_slots : n:int -> stack:(int -> ('a, 'v, 's) Cimp.Com.t list) -> data:(int -> 'd) -> t

(** Structural equality (the cached hash is used as a cheap negative
    filter first; the two keys are built only when the hashes agree). *)
val equal : t -> t -> bool

(** The compact structural fingerprint as a native int (never 0). *)
val hash : t -> int

(** Hash tables keyed by fingerprint ({!hash} for hashing, {!equal} for
    collision resolution) — the reference BFS's exact seen-set. *)
module Table : Hashtbl.S with type key = t

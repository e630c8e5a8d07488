(** A concrete mutator: the operations of Fig. 6 with both write barriers
    compiled in, the GC-safe-point poll that services soft handshakes, and
    an on-line audit of the paper's [valid_refs_inv] from the mutator's
    seat.

    The roots are a list, newest first, plus two per-slot arrays: a rooted
    flag and the slot's epoch when it was adopted.  They change only
    through {!make}, {!load}, {!alloc}, {!discard} and the [Lists]
    workload's release, so adopting a root is O(1) and {!root_refs} does
    not copy.

    {b The root audit's contract.}  Each safe point reports exactly what a
    full scan of the roots would report if it ran at the instant the safe
    point reads [Rheap.frees_begun].  A full scan reads [Rheap.frees]
    just before it starts and keeps that value; a later safe point rescans
    every root only when [frees_begun] differs from it, and otherwise
    checks only the roots adopted since the previous safe point.  Equal
    counters mean that every free that ever began had finished before the
    last full scan started, so no root checked since then can have been
    freed or reused. *)

exception Unsafe of string
(** A root that was freed, or freed and reused, while this mutator held
    it: ["mutator I (cycle C): rooted reference R was freed"] or
    ["... was freed and reused"]. *)

type t

val make : ?barriers:bool -> Rshared.t -> int -> roots:Rheap.rf list -> t
(** [make sh id ~roots] is mutator [id] holding [roots], in that order.
    [barriers:false] compiles the write barriers out (the ablation).
    @raise Invalid_argument on a null root. *)

val ops : t -> int
(** Operations performed: loads, stores, allocations and discards. *)

val root_audits : t -> int
(** Full root scans done by {!validate_roots}. *)

val root_refs : t -> Rheap.rf list
(** The current roots, newest first (not a copy). *)

val load : t -> Rheap.rf -> int -> Rheap.rf
(** [load t src f] reads field [f] of [src] and roots the result. *)

val store : t -> Rheap.rf -> int -> Rheap.rf -> unit
(** [store t src f dst]: deletion barrier on the overwritten value,
    insertion barrier on [dst], then the store. *)

val alloc : t -> Rheap.rf
(** Allocate with the current [f_A] sense and root the result; [Rheap.null]
    when the free list is empty. *)

val discard : t -> Rheap.rf -> unit
(** Drop a root (a no-op when it is not one). *)

val validate_roots : t -> unit
(** The root audit, under the contract above.
    @raise Unsafe on the first bad root in {!root_refs} order. *)

val poll : t -> unit
(** Service a pending handshake request (Fig. 2's at-m blocks): mark the
    roots for a get-roots round, hand over the private work-list. *)

val safe_point : t -> unit
(** A GC-safe point: {!validate_roots}, then {!poll}. *)

val random_op : t -> Random.State.t -> unit
(** One uniformly chosen operation over the current roots. *)

type workload =
  | Uniform  (** {!random_op} between safe points *)
  | Lists
      (** rounds of the Fig. 1 attack on a list hanging off the oldest
          root: build, grab interior nodes, splice ahead of the collector,
          hold them across two cycles, release *)

val run : ?workload:workload -> t -> Random.State.t -> unit
(** The mutator domain's body: a safe point, then a workload step while
    the harness has not said stop, until the collector has stopped. *)

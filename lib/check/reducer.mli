(** State-space reduction hook for the checkers.

    A reducer overrides the three operations reduction can soundly
    intercept: the fingerprint used for seen-set dedup (symmetry /
    liveness canonicalization), the successor function (a
    partial-order-reduction ample set, a subset of {!Cimp.System.steps}
    that must be empty only when the full set is), and the executable
    canonical representative the checkers expand per fresh class (which
    makes the explored graph the quotient graph, so the visited class
    set is independent of scheduling — the precondition certificates
    rely on, see [lib/certify]).

    With no reducer the checkers behave bit-for-bit as before.  Concrete
    reducers live in [lib/reduce] (generic machinery) and [lib/core]
    (the GC model's symmetry/liveness specification); canonicalizing
    reducers are typically only sound under normal-form exploration (the
    checkers' default). *)

type ('a, 'v, 's) t = {
  name : string;  (** "sym", "por", "all", ... — reported in JSONL records *)
  fingerprint : ('a, 'v, 's) Cimp.System.t -> Fingerprint.t;
      (** canonical fingerprint used for seen-set dedup.  Called on every
          generated successor; the parallel engine and the validator read
          only its {!Fingerprint.hash}, so a reducer should mix it from
          slot hashes ({!Fingerprint.slot_hash}, {!Fingerprint.of_mix})
          and leave the structural key to be built on demand *)
  successors :
    ('a, 'v, 's) Cimp.System.t -> (Cimp.System.event * ('a, 'v, 's) Cimp.System.t) list;
      (** the ample successor set: a subset of {!Cimp.System.steps} that
          must be empty only when the full set is *)
  canon_state : ('a, 'v, 's) Cimp.System.t -> ('a, 'v, 's) Cimp.System.t;
      (** the {e executable} canonical representative the checkers expand
          in place of a freshly discovered state (dead registers nulled;
          pid permutation stays fingerprint-only).  Must preserve the
          fingerprint and the reachable canonical-class set, making the
          explored graph the quotient graph — the precondition for
          certificate closure to be validator-checkable independently of
          scheduling (see [lib/certify]).  [Fun.id] when the reduction has
          no such normalization. *)
  sym_permuted : int Atomic.t;
      (** states whose canonical pid order differed from the concrete one *)
  reg_nulled : int Atomic.t;  (** states with at least one dead register nulled *)
  deferred : int Atomic.t;  (** transitions pruned by the ample-set selector *)
}

(** [fp_of reducer sys]: the reducer's fingerprint, or
    {!Fingerprint.of_system} when [reducer] is [None]. *)
val fp_of : ('a, 'v, 's) t option -> ('a, 'v, 's) Cimp.System.t -> Fingerprint.t

(** [succs_of reducer sys]: the reducer's successors, or
    {!Cimp.System.steps} when [reducer] is [None]. *)
val succs_of :
  ('a, 'v, 's) t option ->
  ('a, 'v, 's) Cimp.System.t ->
  (Cimp.System.event * ('a, 'v, 's) Cimp.System.t) list

(** [canon_of reducer sys]: the reducer's executable canonical
    representative of [sys], or [sys] itself when [reducer] is [None]. *)
val canon_of :
  ('a, 'v, 's) t option -> ('a, 'v, 's) Cimp.System.t -> ('a, 'v, 's) Cimp.System.t

(** The reducer's name, or ["none"]. *)
val name_of : ('a, 'v, 's) t option -> string

(** Emit the "reduction" JSONL record (checker, reduce, states,
    transitions, deferred_transitions, elapsed_s, and, when
    [fingerprints] says the checker called the reducer's [fingerprint],
    sym_permuted and reg_nulled).  No-op when [reducer] is [None] or the
    sink is null. *)
val report :
  Obs.Reporter.t ->
  checker:string ->
  fingerprints:bool ->
  ('a, 'v, 's) t option ->
  states:int ->
  transitions:int ->
  elapsed:float ->
  unit

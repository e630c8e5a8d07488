(** Symmetry + register-liveness canonical fingerprints.

    Interchangeable processes are sorted into a canonical order by a
    typed comparator; local registers that are dead at the current
    control point are nulled.  The sort happens only in the fingerprint
    the checker dedups on; the nulling additionally yields an executable
    representative ({!canon_state}) that the checkers expand per fresh
    class.  A permuted state is executable too ({!permute}): the property
    tests run it to check the premises below.

    Soundness requires: the symmetric processes run the same program,
    the invariants are invariant under the permutation, [permute_ok]
    excludes every state where the permutation is not an automorphism,
    and [canon_local] nulls only registers no future read or invariant
    can observe before an overwrite.  Liveness rules are stated for
    normal-form rest points: use only with normal-form exploration (the
    checkers' default). *)

type ('a, 'v, 's) spec = {
  sym_pids : Cimp.System.pid list;
  canon_local :
    ('a, 'v, 's) Cimp.System.t ->
    pid:Cimp.System.pid ->
    stack:('a, 'v, 's) Cimp.Com.t list ->
    's ->
    's;
      (** [canon_local sys ~pid ~stack d] nulls the dead registers of
          process [pid]'s data [d].  [stack] is that process's frame
          stack, whose head label is its current control point
          ({!Cimp.Com.head_label}).  Must return [d] physically unchanged
          when no rule fires; change is detected by [!=] *)
  compare_pids :
    ('a, 'v, 's) Cimp.System.t -> canon:'s array -> Cimp.System.pid -> Cimp.System.pid -> int;
      (** [compare_pids sys ~canon p q] orders symmetric processes [p]
          and [q], where [canon.(r)] is process [r]'s [canon_local]
          data.  It must be a total preorder covering each process's
          control spine ({!Cimp.Com.compare_spines}), its canonical
          local data, and every per-process slice of shared state; the
          canonical order sorts the symmetric pids by it, stably *)
  permute_ok : ('a, 'v, 's) Cimp.System.t -> bool;
  rename_shared : perm:(Cimp.System.pid -> Cimp.System.pid) -> pid:Cimp.System.pid -> 's -> 's;
      (** [rename_shared ~perm ~pid d]: move the per-process slices of
          shared state in [d], the payload that lands in slot [pid],
          along the permutation; identity for payloads that mention no
          pids.  Under the identity permutation it must be structurally
          the identity, and the fingerprint skips it *)
}

(** [canon_state spec sys]: the executable canonical representative —
    [sys] with every process's dead registers nulled, pids untouched.
    Physically equal to [sys] when no nulling rule fires, and copies the
    process array at most once otherwise; idempotent; preserves
    {!canonical_fingerprint}. *)
val canon_state : ('a, 'v, 's) spec -> ('a, 'v, 's) Cimp.System.t -> ('a, 'v, 's) Cimp.System.t

(** [permute spec perm sys]: the runnable system with process [p] in
    slot [perm p] and each payload renamed by [spec.rename_shared], as in
    {!canonical_fingerprint}, through {!Cimp.Com.with_data} (a payload
    the renaming leaves alone keeps its configuration); slot names stay.
    @raise Invalid_argument unless [perm] permutes [spec.sym_pids] and
    fixes every other pid. *)
val permute :
  ('a, 'v, 's) spec -> (int -> int) -> ('a, 'v, 's) Cimp.System.t -> ('a, 'v, 's) Cimp.System.t

(** All permutations of a list, by position: a list of length [n] has
    [n!] of them, repeated elements included (property tests; factorial
    blowup). *)
val permutations : 'a list -> 'a list list

(** [canonical_fingerprint spec sys] = [(fp, permuted, nulled)]: the
    fingerprint of the canonical representative, whether the sort moved
    any process, and whether any dead register was nulled.  Domain-safe
    (the checkers' workers call it concurrently): it writes nothing but
    slot memos ({!Check.Fingerprint.slot_hash}).  The representative's
    slot hashes are mixed in the sorted order; a slot whose payload
    [canon_local] and [rename_shared] hand back unchanged takes its
    configuration's memo, and only nulled or renamed payloads are hashed
    afresh ({!Check.Fingerprint.fresh_slot_hash}).  No spine list is
    built unless the fingerprint's key is compared. *)
val canonical_fingerprint :
  ('a, 'v, 's) spec -> ('a, 'v, 's) Cimp.System.t -> Check.Fingerprint.t * bool * bool

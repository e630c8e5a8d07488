(* Partial-order reduction: persistent successor sets.

   The selector implements one deliberately conservative rule: the
   ample set is the union of every process's enabled set that is a
   single transition the policy marks deferrable (for the GC model: an
   mfence rendezvous, enabled only once the owner's store buffer has
   drained); every other enabled transition of the state is deferred.
   When no process qualifies, the ample set is the full successor set.

   Why this satisfies the standard provisos (see DESIGN.md for the
   model-level argument):

   - C0 (emptiness): the union is nonempty whenever we reduce, and we
     only reduce when the full set is nonempty.
   - C1 (persistence): a deferrable transition must commute with every
     transition of every *other* process from any state where both are
     enabled, and must stay enabled under them.  Each selected
     transition is its owner's entire enabled set, other processes
     cannot re-enable the owner, and selected transitions of different
     owners commute with each other — so no run can leave the ample
     set's equivalence class before executing one of its members: the
     union is a persistent set (Godefroid), not merely a single-process
     ample set.
   - C2 (visibility): a deferrable transition (with the normalization
     cascade behind it) must not change the truth of any invariant, so
     postponing the other transitions past it cannot hide a violation.
   - C3 (cycle): reduced ample chains cannot be infinite — here each
     member strictly advances its owner's program past the fence, and
     chains have length <= n_procs, so the proviso is trivial.

   Taking the *union* rather than the smallest qualifying owner's
   singleton matters beyond reduction strength: the union is invariant
   under any permutation of symmetric processes, while "smallest owner
   pid" is not.  Combined with symmetry reduction, an equivariant
   selector is what keeps the visited canonical-class set independent
   of which orbit representative the checker happens to expand — the
   property certificate closure (lib/certify) is checked against.

   The policy (which transitions are deferrable) is the model-specific
   part; lib/core supplies the GC model's. *)

type policy = { deferrable : Cimp.System.event -> bool }

(* The successors of owner [p] at the front of a list grouped by owner,
   dropped. *)
let rec drop_owner p = function
  | (e, _) :: rest when Cimp.System.event_owner e = p -> drop_owner p rest
  | l -> l

(* One scan of an owner-grouped successor list: every owner whose group
   is one deferrable transition, reversed. *)
let rec singletons policy picked = function
  | [] -> picked
  | ((e, _) as t) :: rest -> (
    let p = Cimp.System.event_owner e in
    match rest with
    | (e', _) :: _ when Cimp.System.event_owner e' = p ->
      singletons policy picked (drop_owner p rest)
    | _ -> singletons policy (if policy.deferrable e then t :: picked else picked) rest)

(* [ample policy succs] = (ample set, number of deferred transitions).
   Takes the full successor list, grouped by owner in ascending pid as
   [Cimp.System.steps] returns it, so callers can reuse it; the ample
   set keeps that pid order, for determinism. *)
let ample policy succs =
  match succs with
  | [] | [ _ ] -> (succs, 0)
  | _ -> (
    match singletons policy [] succs with
    | [] -> (succs, 0)
    | picked ->
      let ts = List.rev picked in
      (ts, List.length succs - List.length ts))

(* The successor function for Check.Reducer, counting deferrals. *)
let successors policy ~deferred sys =
  let amp, pruned = ample policy (Cimp.System.steps sys) in
  if pruned > 0 then ignore (Atomic.fetch_and_add deferred pruned);
  amp

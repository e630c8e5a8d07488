(** Partial-order reduction: persistent successor sets.

    One conservative rule: the ample set is the union, over every
    process whose entire enabled set is a single transition the policy
    marks deferrable, of those singletons; when no process qualifies the
    full successor set is used.  The union (rather than one privileged
    owner) makes the selector invariant under permutations of symmetric
    processes, which keeps the visited canonical-class set independent
    of orbit-representative choice — required by certificate closure
    ([lib/certify]).  The policy must guarantee the standard provisos
    for its deferrable transitions: independence from every other
    process's transitions and persistence (C1), invisibility to all
    invariants including the normalization cascade behind the transition
    (C2); C0 and C3 hold by construction (the union is nonempty whenever
    reduction applies; each member strictly advances its owner, so ample
    chains are finite).  See the DESIGN.md "Reduction" section for the
    GC model's argument. *)

type policy = { deferrable : Cimp.System.event -> bool }

(** [ample policy succs] = (ample set, deferred count), given the full
    successor list of a state as {!Cimp.System.steps} returns it: grouped
    by owner ({!Cimp.System.event_owner}) in ascending pid.  One scan
    finds the single-transition owners; the ample set keeps pid order. *)
val ample :
  policy ->
  (Cimp.System.event * ('a, 'v, 's) Cimp.System.t) list ->
  (Cimp.System.event * ('a, 'v, 's) Cimp.System.t) list * int

(** Successor function for {!Check.Reducer.t}, adding each state's
    deferred count to [deferred]. *)
val successors :
  policy ->
  deferred:int Atomic.t ->
  ('a, 'v, 's) Cimp.System.t ->
  (Cimp.System.event * ('a, 'v, 's) Cimp.System.t) list

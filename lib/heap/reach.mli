(** Reachability through the heap (Section 3.2): paths always go via the
    committed heap; TSO-buffer and ghost roots are assembled by the caller
    ([Core.Invariants.extended_roots]).

    The closures work on reference masks ({!Heap}), so they share its
    {!Heap.max_refs} cap and its precondition: references outside the
    universe are dropped, which is exact only when there are none.  The
    list functions are views of the mask closures. *)

val reach : Heap.t -> int -> int
(** Everything reachable from a mask of roots.  The roots themselves are
    included whether or not they denote objects — a dangling root is
    "reachable" and thus a safety violation. *)

val white_reach : Heap.t -> white:int -> int -> int
(** Grey protection (Fig. 1): everything reachable from a mask of sources
    via chains whose interior nodes all lie in the [white] mask.  Sources
    expand unconditionally (they are the greys); a node reached first as a
    non-white endpoint still expands if it is itself a source. *)

val reachable_set : Heap.t -> Obj.rf list -> Obj.rf list
(** {!reach} over a list of roots, ascending. *)

val reaches : Heap.t -> src:Obj.rf -> dst:Obj.rf -> bool
val reachable : Heap.t -> Obj.rf list -> Obj.rf -> bool

val white_reachable_set : Heap.t -> white:(Obj.rf -> bool) -> Obj.rf list -> Obj.rf list
(** {!white_reach} with whiteness as a predicate over the universe and
    the sources as a list, ascending. *)

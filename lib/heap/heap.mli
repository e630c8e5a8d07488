(** The heap: a partial map from references to objects whose domain doubles
    as the set of allocated references (Section 3.1), over a bounded
    reference universe.  Heaps are canonical plain data (fingerprintable).

    Sets of references are also available as int bitmasks, bit [r]
    standing for reference [r]; the invariant layer ({!Reach},
    [Core.Color], [Core.Invariants]) works on these, and the list views
    {!domain}, {!free_refs} and {!marked_with} read them.  Masks cap the
    universe at {!max_refs} references, and they are exact only when every
    reference a caller adds lies inside the universe: a reference outside
    [[0, n_refs)] is dropped from every mask.  [Core.Model.make] enforces
    that precondition for every model state by rejecting shapes that do
    not fit. *)

type t

val max_refs : int
(** [Sys.int_size - 1] = 62 on 64-bit hosts: the largest universe whose
    masks stay non-negative. *)

val make : n_refs:int -> n_fields:int -> t
(** An empty heap over references [0 .. n_refs-1].
    @raise Invalid_argument if [n_refs > max_refs]. *)

val n_refs : t -> int

val valid_ref : t -> Obj.rf -> bool
(** Is there an object at this reference?  The headline safety property
    asserts this for every reachable reference. *)

val get : t -> Obj.rf -> Obj.t option
val domain : t -> Obj.rf list
val free_refs : t -> Obj.rf list

val alloc : t -> Obj.rf -> mark:bool -> t
(** Install a fresh all-NULL object with the given mark at a (caller-chosen)
    reference — the paper's atomic allocation abstraction. *)

val free : t -> Obj.rf -> t
(** Fig. 2 line 44: remove a reference from the domain. *)

val set_field : t -> Obj.rf -> Obj.fld -> Obj.rf option -> t
(** No-op when the cell is free (the caller records dangling commits). *)

val set_mark : t -> Obj.rf -> bool -> t
val field : t -> Obj.rf -> Obj.fld -> Obj.rf option
val mark : t -> Obj.rf -> bool option

val marked_with : t -> bool -> Obj.rf list
(** References whose mark flag equals the given sense. *)

(** {1 Reference-set masks} *)

val universe : t -> int
(** Every reference of the heap's universe. *)

val bit : Obj.rf -> int
(** [1 lsl r], or 0 when [r] lies outside [[0, max_refs)].  Intersect with
    {!universe} to drop the references beyond the heap's own size. *)

val mask_of_refs : t -> Obj.rf list -> int
(** The references in the list; those outside the universe are dropped. *)

val refs_of_mask : int -> Obj.rf list
(** The references of a mask, ascending. *)

val valid_mask : t -> int
(** The allocated references: {!domain} as a mask. *)

val marked_mask : t -> bool -> int
(** The allocated references whose mark flag equals the given sense. *)

val children_mask : t -> int -> int
(** Every reference stored in a field of an allocated object of the set;
    free cells in the set contribute nothing, and children outside the
    universe are dropped. *)

val pp : t Fmt.t

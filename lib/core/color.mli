(** The tricolor interpretation of Section 3.2, including its TSO-induced
    overlaps: an object is white if unmarked on the committed heap, grey if
    on some work-list or a ghost honorary grey, black if marked and not
    grey — and during a winning CAS an object can be white and grey at
    once.

    Each colour is a reference mask over the committed heap
    ({!Gcheap.Heap}: bit [r] is reference [r], at most
    {!Gcheap.Heap.max_refs} references, exact when every reference in the
    state lies inside the universe, which [Model.make] ensures).  The list
    and per-reference functions are views of the masks. *)

(** {1 Masks} *)

val grey_mask : Config.t -> State.sys_data -> int
(** Every software process's work-list plus the ghost honorary greys. *)

val marked_mask : State.sys_data -> int
(** Marked w.r.t. the committed memory's f_M sense. *)

val white_mask : State.sys_data -> int
val black_mask : Config.t -> State.sys_data -> int

val protected_mask : Config.t -> State.sys_data -> int
(** White objects reachable from some grey via a chain of zero or more
    white objects (Fig. 1's protection). *)

(** {1 Views} *)

val greys : Config.t -> State.sys_data -> Types.rf list
(** All grey references, ascending. *)

val is_grey : Config.t -> State.sys_data -> Types.rf -> bool
val is_marked : State.sys_data -> Types.rf -> bool
val is_white : State.sys_data -> Types.rf -> bool
val is_black : Config.t -> State.sys_data -> Types.rf -> bool

val blacks : Config.t -> State.sys_data -> Types.rf list

val grey_protected_whites : Config.t -> State.sys_data -> Types.rf list
(** {!protected_mask} as a list. *)

val is_grey_protected : Config.t -> State.sys_data -> Types.rf -> bool

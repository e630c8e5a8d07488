(** A simulated heap for the concrete concurrent collector: a fixed arena
    of object slots with atomic allocation flags, mark flags, epoch
    counters and reference fields.  All shared cells are OCaml atomics
    (sequentially consistent): this runtime exercises the algorithm under
    a real scheduler; the TSO-specific behaviours live in the abstract
    model (lib/core). *)

type rf = int

val null : rf

type t = {
  n_slots : int;
  n_fields : int;
  allocated : bool Atomic.t array;
  epochs : int Atomic.t array;
      (** bumped on every free: lets validation detect freed-and-reused
          slots (the ABA case the allocation flag cannot see) *)
  marks : bool Atomic.t array;
  fields : rf Atomic.t array array;
  free_lock : Mutex.t;
  mutable free_list : rf list;
  allocs : int Atomic.t;
  frees_begun : int Atomic.t;  (** frees that have begun: bumped first in {!free} *)
  frees : int Atomic.t;  (** frees that have finished: bumped last in {!free} *)
}

val make : n_slots:int -> n_fields:int -> t
val is_allocated : t -> rf -> bool
val mark : t -> rf -> bool

val try_mark : t -> rf -> sense:bool -> bool
(** The mark CAS of Fig. 5: flip the flag from [not sense] to [sense];
    returns whether we won. *)

val field : t -> rf -> int -> rf
val set_field : t -> rf -> int -> rf -> unit
val epoch : t -> rf -> int

val alloc : t -> mark:bool -> rf
(** Atomic allocation: pop a free slot, install the mark, clear the
    fields, publish.  Returns [null] on exhaustion. *)

val free : t -> rf -> unit
(** Fig. 2 line 44: bump [frees_begun], clear the allocation flag, bump
    the slot's epoch, push the slot on the free list, bump [frees].  So
    [frees_begun = frees] at an instant means no free is under way then,
    and every free that ever began has finished. *)

val domain : t -> rf list
val live_count : t -> int

(** Assembly of the full model:  GC || M1 || ... || Mn || Sys
    (Section 3.1), plus the projections the invariants and experiment
    drivers use.

    The initial state is the paper's steady idle configuration: the
    collector at the top of its loop, the heap uniformly black, f_A = f_M,
    phase = Idle, buffers and work-lists empty, the handshake ghosts
    recording a just-completed termination round. *)

type sys = (Types.req, Types.value, State.t) Cimp.System.t

type t = { cfg : Config.t; shape : Gcheap.Shapes.t; system : sys }

val check_bounds : Config.t -> unit
(** @raise Invalid_argument, naming the field, if [n_muts], [n_refs],
    [max_cycles] or [max_mut_ops] is negative, or [n_fields] or
    [buf_bound] is below 1.  {!make} checks this first; a caller that
    builds the shape from the configuration checks it before. *)

val make : Config.t -> Gcheap.Shapes.t -> t
(** @raise Invalid_argument if {!check_bounds} does, if the shape refers
    to a reference outside [[0, n_refs)] (the message names the shape and
    the refs it needs), if its size otherwise disagrees with the
    configuration, or if a process program has duplicate labels.  Every
    reference of every reachable state then lies inside the universe,
    which the invariant layer's reference masks require ({!Gcheap.Heap}). *)

val programs : Config.t -> (Types.req, Types.value, State.t) Cimp.Com.t list
(** The programs by pid: the collector, then one mutator program, built
    once and shared by every mutator slot, then Sys. *)

val initial_sys_data : Config.t -> Gcheap.Shapes.t -> State.sys_data

(** {1 Projections} *)

val sys_data : sys -> Config.t -> State.sys_data
val gc_data : sys -> State.gc_data
val mut_data : sys -> Config.t -> int -> State.mut_data

val at_prefix : sys -> int -> string -> bool
(** Is process [p]'s control inside a label starting with the prefix?
    Used for control-scoped invariants (e.g. the in-flight deletion
    barrier's register root). *)

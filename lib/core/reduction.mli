(** The GC model's instantiation of [lib/reduce]: mutator symmetry,
    register liveness, and the mfence-deferral POR policy.

    Sound only under normal-form exploration (the checkers' default):
    the liveness rules null registers whose remaining readers are
    definite-tau steps, which never rest in normal form.  See DESIGN.md
    "State-space reduction" for the full argument. *)

(** The symmetry spec: mutator pids are interchangeable, ordered by a
    typed comparator, lexicographic over (control spine, canonicalized
    local data, store buffer, work-list, honorary grey, handshake
    triple, lock bit) and equal to polymorphic [compare] on that tuple;
    permutation is skipped inside the handshake signal loop, the one
    window where the collector addresses mutators by index. *)
val spec : Config.t -> (Types.req, Types.value, State.t) Reduce.Symmetry.spec

(** Deferrable transitions are exactly the mfence rendezvous ("...fence"
    request labels). *)
val por_policy : Reduce.Por.policy

(** [reducer cfg mode]: the checker hook for [mode]; [None] for
    {!Reduce.Mode.None_} (bit-for-bit unreduced checking). *)
val reducer :
  Config.t -> Reduce.Mode.t -> (Types.req, Types.value, State.t) Check.Reducer.t option

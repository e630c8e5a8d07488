(** Scenario presets: (configuration, heap shape, bounds) bundles used by
    the experiment drivers, the tests and the benchmarks.

    Exhaustive scenarios are sized to close (finite reachable sets, see
    DESIGN.md section 7); the minimal-witness scenarios are the smallest
    instances on which each ablation's counterexample is reachable. *)

type t = { label : string; cfg : Config.t; shape : Gcheap.Shapes.t; note : string }

val make :
  ?n_muts:int ->
  ?n_refs:int ->
  ?n_fields:int ->
  ?buf_bound:int ->
  ?max_cycles:int ->
  ?max_mut_ops:int ->
  ?mut_mfence:bool ->
  ?tweak:(Config.t -> Config.t) ->
  label:string ->
  shape:string ->
  ?note:string ->
  unit ->
  t
(** Defaults: 1 mutator, 3 refs, 1 field, buffers of 1, 1 cycle, 2 ops,
    no spontaneous mutator MFENCE.
    @raise Invalid_argument on an unknown shape name, or a bound
    {!Model.check_bounds} refuses. *)

val model : t -> Model.t

val invariants : ?safety_only:bool -> t -> (string * (Model.sys -> bool)) list
(** The invariant catalogue instantiated for the scenario's configuration,
    as (name, predicate) pairs for the checker. *)

(** [explore] runs the exploration engine, {!Check.Par_explore.run},
    with [jobs] worker domains (default 1: one worker on the calling
    domain, exact BFS order); [random_walk] runs
    {!Check.Random_walk.swarm}.  [reduce] (default {!Reduce.Mode.None_},
    i.e. the seed behaviour) selects the state-space reduction; it is
    applied identically at every [jobs].  The [bin/] tools default explore
    to [all] — the library default stays [None_] so existing callers
    and the differential tests get unreduced semantics unless they
    opt in. *)
val explore :
  ?max_states:int ->
  ?jobs:int ->
  ?safety_only:bool ->
  ?obs:Obs.Reporter.t ->
  ?reduce:Reduce.Mode.t ->
  t ->
  (Types.req, Types.value, State.t) Check.Explore.outcome

val random_walk :
  ?seed:int ->
  ?steps:int ->
  ?jobs:int ->
  ?safety_only:bool ->
  ?obs:Obs.Reporter.t ->
  ?reduce:Reduce.Mode.t ->
  t ->
  (Types.req, Types.value, State.t) Check.Random_walk.outcome

(** The soundness cross-check ({!Reduce.Crosscheck.run}, every leg) on
    one scenario.  [reduce] defaults to {!Reduce.Mode.All}; [jobs] and
    [mem_budget] pass through.
    @raise Invalid_argument on [reduce = None_]. *)
val crosscheck :
  ?max_states:int ->
  ?safety_only:bool ->
  ?obs:Obs.Reporter.t ->
  ?reduce:Reduce.Mode.t ->
  ?jobs:int ->
  ?mem_budget:int ->
  t ->
  (Types.req, Types.value, State.t) Reduce.Crosscheck.result

(** {1 Presets} *)

val baseline : t
val two_cycles : t
val two_mutators : t
val fig1 : t
val chain : t
val deep_buffers : t

val three_mutators : t
(** Beyond the seed checker at the default cap; closes under [--reduce]. *)

val with_variant : Variants.t -> t -> t

val witness_for : Variants.t -> t
(** The minimal witness scenario for a variant: the instance on which its
    counterexample is known to be reachable (see EXPERIMENTS.md). *)

val exhaustive_grid : t list

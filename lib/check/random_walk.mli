(** Randomized deep runs: schedule transitions uniformly at random,
    checking invariants at every state.  Probabilistic where exhaustive
    exploration is infeasible (larger heaps, more mutators, unbounded
    cycles); drives the model through thousands of collection cycles. *)

type ('a, 'v, 's) outcome = {
  steps_taken : int;
  runs : int;  (** walks performed (includes every restart) *)
  restarts : int;  (** restarts forced by dead ends, specifically *)
  violation : ('a, 'v, 's) Trace.t option;
  elapsed : float;
}

val pp_outcome : ('a, 'v, 's) outcome Fmt.t
(** One-line human rendering of a walk outcome (steps, runs, restarts,
    wall time, verdict). *)

(** [run ~invariants initial] walks until [steps] scheduled steps have been
    taken or an invariant fails, restarting from [initial] at a dead end
    and after 5,000 steps in one walk.  Deterministic in [seed].

    A walker keeps one int per step of its current run: the index of the
    successor it chose.  On a violation the run is rebuilt from those
    indices, so the [violation] trace is the whole run from [initial]'s
    normal form, at most 5,000 steps, and its schedule replays.

    @param normal_form as in {!Explore.run}
    @param obs observability reporter (default {!Obs.Reporter.null}):
           [heartbeat] records every [heartbeat_every] steps (steps/sec,
           runs, dead-end restarts, GC words), then the [profile] and
           [outcome] records, one [invariant] record per invariant and,
           with a [reducer], one [reduction] record.
    @param tracer span tracer (default {!Obs.Tracing.null}).  When live,
           the walk's lane (0, or the walker's domain index under
           {!swarm}) carries one [walk-steps] span per heartbeat interval
           and a [walk] span over the whole call.
    @param reducer optional {!Reducer.t}: its successor function replaces
           {!Cimp.System.steps} (the walk has no seen-set, so the
           reducer's fingerprint is unused).  Note a partial-order-reduced
           walk samples schedules from the reduced transition system, so
           per-seed step sequences differ from unreduced runs. *)
val run :
  ?seed:int ->
  ?steps:int ->
  ?normal_form:bool ->
  ?obs:Obs.Reporter.t ->
  ?tracer:Obs.Tracing.t ->
  ?heartbeat_every:int ->
  ?reducer:('a, 'v, 's) Reducer.t ->
  invariants:(string * (('a, 'v, 's) Cimp.System.t -> bool)) list ->
  ('a, 'v, 's) Cimp.System.t ->
  ('a, 'v, 's) outcome

(** [swarm ~jobs ~invariants initial] runs [jobs] concurrent walks of the
    same root on separate domains, each seeded from [seed] and its domain
    index, splitting the [steps] budget across domains (the total is
    exactly [steps] when no violation occurs, so aggregate counters are
    deterministic in [seed]).  The first violation found raises a stop
    flag the other domains poll every step; the lowest-indexed finder's
    run is rebuilt after the join and returned as the trace (the
    rebuild leaves a [reducer]'s counters as the walk left them).  Each
    walker writes its own [heartbeat], [profile] and [outcome] records,
    tagged with its [domain]; the per-run records are written once,
    after the join: one [invariant] record per invariant from the
    walkers' merged profiles, with a [reducer] one [reduction] record
    (the swarm's total steps and the reducer's final counters), and the
    swarm's own [outcome] record, carrying [jobs] and the walkers'
    summed [steps], [runs] and [dead_end_restarts].
    [jobs = 1] delegates to {!run}; [jobs] outside 1..64
    ({!Par_explore.max_jobs}) raises [Invalid_argument]. *)
val swarm :
  ?jobs:int ->
  ?seed:int ->
  ?steps:int ->
  ?normal_form:bool ->
  ?obs:Obs.Reporter.t ->
  ?tracer:Obs.Tracing.t ->
  ?heartbeat_every:int ->
  ?reducer:('a, 'v, 's) Reducer.t ->
  invariants:(string * (('a, 'v, 's) Cimp.System.t -> bool)) list ->
  ('a, 'v, 's) Cimp.System.t ->
  ('a, 'v, 's) outcome

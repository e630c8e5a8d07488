(** The exploration engine: asynchronous work-stealing BFS across OCaml 5
    domains.  Every production explore runs it, at every [jobs]; one
    worker runs on the calling domain with a single FIFO deque.

    A persistent pool of [jobs] worker domains is spawned once per run
    (not per BFS level).  Each worker expands states from its own deque,
    pushes fresh successors locally, and steals half of a victim's deque
    when it runs dry; termination is detected by an atomic active-task
    counter whose quiescence (zero published-but-unfinished tasks) no
    worker can observe spuriously.  The level barrier of the earlier
    design is gone: no fork/join round trip per level, no domains idling
    at a barrier while the slowest slice finishes.

    The shortest-counterexample guarantee survives without level
    synchronization because seen-set entries are depth-stamped: a shorter
    path to a known state atomically improves the entry's (depth, parent,
    event) triple and re-enqueues it, so stamps relax to true BFS
    distances by quiescence, and violations race through an atomic
    best-(depth, fingerprint) cell with min-tie-break.  The minimal trace
    is then recovered by the same bounded parent-chain replay as the
    reference BFS ({!Explore.run}).  DESIGN.md §11 gives the minimality
    argument.

    The seen-set is the tiered store of {!Store.Tiered}: 64
    independently-locked RAM shards that, under a memory budget, freeze
    into Bloom-fronted sorted on-disk segments (DESIGN.md §12), so state
    spaces larger than RAM stay exactly deduplicated.  The same segment
    format powers checkpoint/resume ({!Store.Checkpoint}). *)

type ('a, 'v, 's) outcome = ('a, 'v, 's) Explore.outcome

(** Scheduler observation hooks, injectable from tests to make
    termination-detection interleavings deterministic (e.g. hold a worker
    in its quiescence probe until another worker has published work, then
    assert the probe did not terminate the run early).  [on_expand] fires
    before each state expansion; [on_idle] when a worker's own deque runs
    dry; [on_steal] after a successful steal; [on_probe] on every
    quiescence check, with the pending-task count the worker observed.
    The default {!no_hooks} do nothing. *)
type hooks = {
  on_expand : worker:int -> depth:int -> unit;
  on_idle : worker:int -> unit;
  on_steal : worker:int -> victim:int -> stolen:int -> unit;
  on_probe : worker:int -> pending:int -> unit;
}

val no_hooks : hooks
(** Hooks that do nothing (the default). *)

val max_jobs : int
(** Cap on [jobs] (64): deques, lanes and per-worker counters are
    fixed-size arrays of this length. *)

(** [run ~jobs ~invariants initial] explores [initial] across [jobs]
    worker domains (default 1; [Invalid_argument] outside 1..{!max_jobs},
    as for a checkpoint interval below 1), checking the
    (name, predicate) [invariants] at every state, the initial one
    included.  One worker expands states in exact BFS order.  The seen
    set keys on the 63-bit {!Fingerprint.hash}: distinct states collide
    with probability about [n^2 / 2^63] for [n] states, the one thing
    {!Explore.run}, the exact reference, cannot get wrong.

    Determinism contract, against {!Explore.run} at every [jobs]:
    - a non-truncated run with no violation reports exactly the
      reference's counts ([states], [transitions], [depth], [deadlocks]):
      every reachable state is inserted exactly once, and
      transitions/deadlocks are counted only on a state's first
      expansion (depth-improvement re-expansions recount nothing).
      Under a symmetry reducer this holds at one worker; at several the
      class representatives, and so the counts, depend on the schedule.
      It holds under [mem_budget] too, [depth] included
      ({!Store.Tiered.max_depth} reads each state's newest copy);
    - a violating run reports a violation of minimal depth; among
      equal-depth violations the smallest fingerprint wins, so the
      verdict, the violated invariant and the counterexample length are
      deterministic.  State counts of violating runs are not comparable:
      the engine finishes the frontier below the minimal violating depth
      where the reference stops at the first violation, and at several
      workers pruning races with discovery;
    - [max_states] may overshoot by the successors in flight (at most one
      expansion batch per worker) before every worker observes the cap.

    Failure: an exception in any worker (a disk fault in a spill, merge,
    segment probe or snapshot write, or a raising hook) stops every
    worker at its next batch or spin; [run] re-raises the first one once
    the pool has joined.

    @param hooks scheduler observation hooks for tests
           (default {!no_hooks}).
    @param mem_budget resident-byte budget for the seen-set
           ({!Store.Tiered.create}); shards crossing their slice of it
           freeze into on-disk segments.  Absent, everything stays in
           RAM.
    @param spill_dir directory for segment files, never removed
           (default: a fresh temporary directory, removed when [run]
           returns or raises, after [on_store]; likewise the temporary
           directory of a [resume] snapshot's store).
    @param checkpoint [(dir, every)]: snapshot the full exploration state
           into [dir] (atomically, {!Store.Checkpoint.write}) every
           [every] newly inserted states, and once more after the run
           completes.  Worker 0 coordinates a stop-the-world rendezvous:
           the pool parks at batch boundaries, where deques + counters
           are the entire frontier.
    @param resume a snapshot loaded by {!Store.Checkpoint.load}; the run
           continues from it (frontier states are rebuilt by memoized
           parent-chain replay, since CIMP systems embed closures and
           cannot be marshalled) and on an interrupted-then-resumed run
           reaches the same verdict, violated invariant and
           counterexample length as an uninterrupted one.  Raises
           [Invalid_argument] if the snapshot does not match the model.
    @param run_config opaque JSON echoed into each snapshot's manifest,
           so [gcmodel resume] can rebuild the model and flags.
    @param on_store called once with the seen-set after the pool joins,
           before the store goes out of scope; certificate writers dump
           it ([Certify.Writer.of_store]).

    [max_states] (default 1,000,000), [normal_form] and [reducer] are as
    in {!Explore.run}; the outcome's [covered] is always empty (coverage
    comes from the reference BFS only).  [heartbeat_every] (default
    20,000) counts each worker's expansions.  When [obs] is enabled,
    each worker emits its own [heartbeat] records tagged with a
    [domain] index ([frontier] is the pending-task count) carrying
    store occupancy ([bytes_resident], [mem_budget], [segments],
    [spilled_states], [bytes_resident_per_shard]).  The per-run records
    are written once, whatever [jobs] is, from the workers' merged
    {!Profile}s and the pool's counters: one [invariant] record per
    invariant, a [reduction] record with a reducer, the [profile] record
    ([other_s] is the rest of the workers' busy time), the [outcome]
    record (with [jobs]) and the [scaling-detail] record: per-domain
    busy and idle seconds, steal / failed-steal / stolen-task /
    termination-probe counters, shard and deque lock contention, the
    Amdahl serial-fraction estimate ({!Obs.Contention.estimate}) and the
    tiered-store counters.  Each checkpoint also emits a [checkpoint]
    record.  {!Obs.Record} declares every field.

    When [tracer] is live with at least [jobs] lanes, each worker's own
    lane (single-writer discipline, no coordinator involvement) carries
    [expand] spans per heartbeat interval with [successor-gen] /
    [normalize+fingerprint] / [seen-insert] / [invariants] /
    [deque-push] phase sub-spans, a [steal] span per successful steal, a
    [steal-fail] span per empty-handed victim sweep episode, a
    [termination-probe] span at the quiescence check that ends the
    worker's run, and [store-spill] / [store-merge] / [store-disk-probe]
    spans on the worker whose insert triggered the store event. *)
val run :
  ?jobs:int ->
  ?max_states:int ->
  ?normal_form:bool ->
  ?obs:Obs.Reporter.t ->
  ?tracer:Obs.Tracing.t ->
  ?heartbeat_every:int ->
  ?hooks:hooks ->
  ?reducer:('a, 'v, 's) Reducer.t ->
  ?mem_budget:int ->
  ?spill_dir:string ->
  ?checkpoint:string * int ->
  ?resume:Store.Checkpoint.snapshot ->
  ?on_store:(Store.Tiered.t -> unit) ->
  ?run_config:Obs.Json.t ->
  invariants:(string * (('a, 'v, 's) Cimp.System.t -> bool)) list ->
  ('a, 'v, 's) Cimp.System.t ->
  ('a, 'v, 's) outcome

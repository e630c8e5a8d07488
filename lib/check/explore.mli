(** Exhaustive explicit-state exploration: breadth-first search over a CIMP
    system's reachable states, evaluating invariants at every state.

    On a bounded instance this is the executable substitute for the paper's
    induction over the reachable-state set (Section 3.2), and it produces a
    shortest counterexample schedule when an invariant fails.  This module
    holds the outcome type and the helpers the engine ({!Par_explore})
    shares, plus {!run}, the exact reference BFS the engine is checked
    against.  Both rebuild counterexamples with {!Trace.replay}. *)

type ('a, 'v, 's) outcome = {
  states : int;  (** distinct states visited *)
  transitions : int;  (** transitions traversed *)
  depth : int;  (** BFS depth reached *)
  deadlocks : int;  (** states with no successors *)
  truncated : bool;  (** hit [max_states] before closing the state space *)
  violation : ('a, 'v, 's) Trace.t option;  (** first (shortest) violation *)
  elapsed : float;  (** wall-clock seconds *)
  covered : (int * Cimp.Label.t) list;
      (** (pid, label) pairs that fired, sorted by pid then label so
          coverage diffs are stable across runs; program locations never
          exercised indicate dead model code.  Only the reference BFS
          ({!run} with [track_coverage]) records it; otherwise, and from
          {!Par_explore.run} always, it is empty *)
}

val pp_outcome : ('a, 'v, 's) outcome Fmt.t
(** One-line human rendering of an outcome (counts, depth, wall time,
    verdict) — the checker CLIs' summary line. *)

(** [coverage_gaps sys ~covered] lists the (pid, label) pairs of [sys]'s
    programs that never fired, sorted by pid then label.  Pass the
    checker's {e initial} system (its stacks still hold the full
    programs) and an outcome's [covered] list. *)
val coverage_gaps :
  ('a, 'v, 's) Cimp.System.t -> covered:(int * Cimp.Label.t) list -> (int * Cimp.Label.t) list

(** [run ~invariants initial] explores from [initial] — the exact
    reference BFS.  Invariants are (name, predicate) pairs checked at
    every state, including the initial one; exploration stops at the
    first violation, which BFS order makes a shortest one.

    The production engine is {!Par_explore.run}, at every [jobs]; it
    dedups on 63-bit fingerprint hashes.  This loop dedups on
    {!Fingerprint.equal} (structural equality), so it never merges two
    distinct states: [Reduce.Crosscheck], [gcmodel crosscheck] and the
    equivalence tests compare the engine against it.  It emits no
    records.

    @param max_states cap on distinct states (default 1,000,000); hitting
           it sets [truncated] and stops the exploration (no further
           successors are scanned or enqueued).
    @param normal_form explore {!Cimp.System.normalize} normal forms
           (default [true]): runs of deterministic local steps execute
           eagerly, so invariants are evaluated at atomic-action
           boundaries only.
    @param track_coverage record which (pid, label) pairs fire.
    @param reducer optional state-space reduction hook ({!Reducer.t}):
           its fingerprint replaces {!Fingerprint.of_system} for seen-set
           dedup and counterexample replay matching, and its successor
           function replaces {!Cimp.System.steps} for expansion.  Note
           reduction may lengthen the "shortest" counterexample
           (partial-order reduction removes interleavings, symmetry
           merges orbits). *)
val run :
  ?max_states:int ->
  ?normal_form:bool ->
  ?track_coverage:bool ->
  ?reducer:('a, 'v, 's) Reducer.t ->
  invariants:(string * (('a, 'v, 's) Cimp.System.t -> bool)) list ->
  ('a, 'v, 's) Cimp.System.t ->
  ('a, 'v, 's) outcome

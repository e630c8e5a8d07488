(** Soundness cross-check harness: every equivalence obligation of the
    exploration machinery, on one instance, against the exact reference
    BFS ({!Check.Explore.run}).

    Each run reduces to one {!signature}.  The reference pair (the
    reference BFS plain and under the reducer) must agree on the
    violation and close, and the reduced run must visit no more states.
    Every leg must report the unreduced reference's violation; when the
    reference is clean and closed, also the state and transition counts
    and the depth of the reference with the same reduction — except
    reduced legs at several workers, whose symmetry class
    representatives (and so counts) depend on the schedule (DESIGN.md
    §8). *)

type signature = {
  violation : (string * int) option;  (** invariant and counterexample length *)
  states : int;
  transitions : int;
  depth : int;  (** BFS depth reached *)
  truncated : bool;
}

val signature : _ Check.Explore.outcome -> signature

(** Legs are engine ({!Check.Par_explore.run}) runs: all-RAM with or
    without the reducer, unreduced under a forced-spill budget, or
    unreduced and resumed from mid-run snapshot [snapshot] of a budgeted
    run, whose [frontier] states were rebuilt by replay. *)
type kind =
  | Engine of { reduced : bool }
  | Spill of { budget : int }
  | Resume of { budget : int; snapshot : int; frontier : int }

type leg = { kind : kind; jobs : int; signature : signature }

val leg_name : leg -> string
(** e.g. ["jobs=4 reduced"], ["spill jobs=1 budget=8192"], ["resume budget=8192"]. *)

type ('a, 'v, 's) result = {
  reduce : string;  (** the reducer's name *)
  full : signature;  (** the reference BFS, unreduced *)
  reduced : signature;  (** the reference BFS under the reducer *)
  legs : leg list;  (** in run order *)
  aborted : string list;  (** legs that could not run, with the reason *)
  counterexample : ('a, 'v, 's) Check.Trace.t option;  (** the one-worker reduced leg's *)
}

(** [run ~reducer ~invariants initial] runs the reference pair, then the
    engine at one worker and at [jobs] (default 1), unreduced and
    reduced.  With [mem_budget] it adds forced-spill runs at one and four
    workers and a resume leg: a one-worker run under the budget,
    checkpointing every half of the reference's states, stops once its
    first (mid-run) snapshot is published, and a second run resumes from
    it.  Temporary directories are removed whatever happens.  Emits a
    [crosscheck] record for the reference pair to [obs]; [max_states]
    and [normal_form] apply to every run. *)
val run :
  ?max_states:int ->
  ?normal_form:bool ->
  ?obs:Obs.Reporter.t ->
  ?jobs:int ->
  ?mem_budget:int ->
  reducer:('a, 'v, 's) Check.Reducer.t ->
  invariants:(string * (('a, 'v, 's) Cimp.System.t -> bool)) list ->
  ('a, 'v, 's) Cimp.System.t ->
  ('a, 'v, 's) result

(** Mismatch descriptions, a failing leg's led by its name; [[]] means
    the cross-check passed.  A truncated reference (the check is vacuous
    then) and a resume leg with an empty frontier are mismatches too. *)
val errors : _ result -> string list

val pp : _ result Fmt.t
(** The reference pair's line, then one ["... equivalence OK"] line per
    agreeing leg. *)

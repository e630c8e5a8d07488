(** Soundness cross-check harness: reduced vs. unreduced exploration on
    the same instance.

    On a closing instance the two runs must agree on verdict, violated
    invariant and counterexample length (our reducers preserve
    shortest-trace distances), and the reduced run must visit no more
    distinct states than the full one. *)

type result = {
  reduce : string;
  full_states : int;
  reduced_states : int;
  full_transitions : int;
  reduced_transitions : int;
  full_truncated : bool;
  reduced_truncated : bool;
  full_violation : string option;
  reduced_violation : string option;
  full_ce_length : int option;
  reduced_ce_length : int option;
  elapsed : float;
}

(** [run ~reducer ~invariants initial] explores twice with
    {!Check.Explore.run} — once plain, once under [reducer] — and
    compares.  Emits a [crosscheck] JSONL record when [obs] is
    enabled. *)
val run :
  ?max_states:int ->
  ?normal_form:bool ->
  ?obs:Obs.Reporter.t ->
  reducer:('a, 'v, 's) Check.Reducer.t ->
  invariants:(string * (('a, 'v, 's) Cimp.System.t -> bool)) list ->
  ('a, 'v, 's) Cimp.System.t ->
  result

(** Mismatch descriptions; [[]] means the cross-check passed.  A
    truncated full run is reported too: the check is vacuous then.
    Counterexample lengths must be equal. *)
val errors : result -> string list

val pp : result Fmt.t
(** One-line rendering: state/transition counts for both runs and the
    verdict agreement, for the cross-check harness's progress output. *)

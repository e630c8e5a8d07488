(** The mutation-testing campaign runner.

    A campaign checks each mutant against a suite of small scenarios (the
    checking analogue of a test suite), cheapest first, and classifies it
    as killed (naming the violated invariant and failing conjunct, the
    states and wall-time to detection, and the shortest-counterexample
    length), survived (budget exhausted, or every applicable scenario
    closed — an equivalence proof at these bounds), or errored.  Results
    stream as ["campaign"] JSONL records through [lib/obs] and render as
    a kill-matrix via {!Kill_matrix}. *)

(** A campaign mutant: a named configuration tweak.  Operator mutants come
    from {!Operators}; the hand-written ablations of
    {!Core.Variants.ablations} participate as ["variant:*"] mutants. *)
type mutant = {
  name : string;
  operator : string;  (** operator family, or ["variant"] *)
  site : string;
  doc : string;
  rationale : string;
  expected_equivalent : bool;
  applies : Core.Config.t -> bool;
  tweak : Core.Config.t -> Core.Config.t;
}

val of_operator : Operators.t -> mutant
val of_variant : Core.Variants.t -> mutant

type kill = {
  invariant : string;  (** the violated invariant *)
  conjunct : string;
      (** the failing conjunct, recomputed from the invariant's witness on
          the counterexample's final state *)
  scenario : string;  (** the killing scenario's label *)
  states_to_kill : int;
  time_to_kill : float;
  ce_length : int;
}

type classification =
  | Killed of kill
  | Survived of { closed : bool }
      (** [closed]: every applicable scenario closed its state space
          (an equivalence proof at these bounds) rather than running out
          of budget *)
  | Errored of string

type run = { run_scenario : string; run_states : int; run_elapsed : float; run_truncated : bool }

type entry = {
  mutant : mutant;
  classification : classification;
  states_total : int;  (** states explored across all runs *)
  elapsed_total : float;
  runs : run list;
}

type outcome = {
  entries : entry list;
  scenario_labels : string list;
  budget : int;
  jobs : int;
  reduce : Reduce.Mode.t;
  invariants : Core.Invariants.t list;  (** kill-matrix columns *)
}

val scenarios : ?muts:int -> unit -> Core.Scenario.t list
(** The default scenario suite, cheapest first; together the four kill
    all five hand-written ablations and arm every operator family. *)

val default_mutants : ?muts:int -> unit -> mutant list
(** The whole operator catalogue plus the five ablations. *)

val run :
  ?obs:Obs.Reporter.t ->
  ?budget:int ->
  ?jobs:int ->
  ?reduce:Reduce.Mode.t ->
  ?scenarios:Core.Scenario.t list ->
  ?certificates:string ->
  mutants:mutant list ->
  unit ->
  outcome
(** Run the campaign: each mutant against each applicable scenario in
    order, stopping at the first kill.  [budget] is the per-run state cap
    (default 300k); [reduce] defaults to {!Reduce.Mode.All}.  One
    ["campaign"] record per mutant goes to [obs].

    With [certificates] set, each [Survived { closed = true }] mutant's
    equivalence claim is closed by certificate: per applicable scenario
    a one-worker certifying run ({!Certify.Writer.explore}) produces the
    reach table and writes a certificate into
    [certificates]/(mutant)/(scenario), validatable by
    [gcmodel recheck] (the header embeds a run configuration that
    rebuilds the mutated instance via [--mutant]).  One ["certificate"]
    record per written — or failed — certificate goes to [obs]; a
    scenario whose configuration tweak is not expressible in the raw
    explore flags yields a certificate recheck rejects with a
    config-hash mismatch (loud failure, never a wrong PASS). *)

val classification_fields : classification -> (string * Obs.Json.t) list
(** The classification's JSON fields, shared between the JSONL records
    and {!Kill_matrix.to_json}. *)

val triage_stub : entry -> string
(** An explain-style markdown stub for a surviving mutant: what ran, the
    equivalent-mutant analysis or the adequacy-gap hypothesis, and the
    commands that push the investigation further. *)

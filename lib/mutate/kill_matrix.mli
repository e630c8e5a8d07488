(** Campaign summary artifacts: aggregate statistics, the JSON report
    ([schema = "relaxing-safely-campaign-v1"]), and a self-contained HTML
    kill-matrix (mutant rows &times; invariant columns, cells naming the
    failing conjunct) built on {!Explain.Report.html_page}.

    The headline adequacy number is computed over the {e armed} fence and
    barrier mutants — the sites {!Operators} marks load-bearing.
    Expected-equivalent mutants are scored separately: a kill there
    falsifies the buffer-emptiness analysis and shows up under
    [unexpected_kills], never in the headline rate. *)

type family_row = {
  family : string;
  total : int;
  armed : int;  (** mutants not predicted equivalent *)
  killed : int;
  armed_killed : int;
  survived_closed : int;  (** survived with every applicable run closed *)
  survived_open : int;  (** survived with some run budget-truncated *)
  errored : int;
}

type stats = {
  total : int;
  killed : int;
  survived : int;
  errored : int;
  armed : int;
  armed_killed : int;
  ablations_total : int;  (** the ["variant:*"] mutants *)
  ablations_killed : int;
  headline_armed : int;  (** armed drop-fence + elide-barrier mutants *)
  headline_killed : int;
  families : family_row list;  (** catalogue order; only non-empty families *)
  unexpected_kills : string list;  (** predicted equivalent, yet killed *)
  unexpected_survivors : string list;  (** armed, yet not killed *)
}

val stats : Campaign.outcome -> stats

val rate : int -> int -> float
(** [rate num den] as a fraction; [1.0] when [den = 0] (an empty
    population trivially meets any kill-rate floor). *)

val summary : Campaign.outcome -> string
(** Plain-text summary for the CLI. *)

val to_json : Campaign.outcome -> Obs.Json.t
val write_json : string -> Campaign.outcome -> unit

val to_html : Campaign.outcome -> string
(** Self-contained HTML page (inline CSS, no external assets): summary
    tables, unexpected outcomes, the kill-matrix, and survivor triage
    stubs inline. *)

val write_html : string -> Campaign.outcome -> unit

(** Counterexample forensics reports.

    {!analyze} captures a {!Snapshot} of every state along a trace and
    diffs consecutive snapshots into per-step semantic changes; the
    renderers share that analysis.  Every renderer is a pure function of
    the trace and the config — no clocks, no randomness — so explaining
    the same trace twice yields byte-identical output. *)

type trace = (Core.Types.req, Core.Types.value, Core.State.t) Check.Trace.t

type step_diff = {
  index : int;  (** 1-based step number *)
  event : Cimp.System.event;
  changes : Diff.change list;
}

type t = {
  cfg : Core.Config.t;
  broken : string;  (** the violated invariant's name *)
  doc : string;  (** its documentation line, [""] if unknown *)
  names : string array;
  snapshots : Snapshot.t list;  (** length = steps + 1; head is the initial state *)
  steps : step_diff list;
  witnesses : Core.Invariants.witness list;
      (** structured failure witnesses on the final state *)
}

val analyze : Core.Config.t -> trace -> t

val timeline : ?lane_width:int -> ?effects_width:int -> t -> string
(** ASCII lane view: one lane per process, fence / CAS / flush events
    tagged ([#fence] / [#cas] / [#flush]), and a per-step effects column
    of {!Diff.compact} changes. *)

val narrative : t -> string
(** Every step's event and full-sentence change list. *)

val explanation : ?last:int -> t -> string
(** The violated invariant and its failing conjuncts (witnesses), the
    last [last] (default 8) steps that touched the witness refs, and the
    witness refs' final colours. *)

val render : ?last:int -> t -> string
(** Explanation, timeline, and narrative concatenated. *)

val to_json : t -> Obs.Json.t
(** Structured report: witnesses, per-step events and changes, and the
    initial and final snapshots. *)

val html_escape : string -> string
(** Escape [&], [<] and [>] for embedding in HTML text nodes. *)

val html_page : ?extra_style:string -> title:string -> string -> string
(** The shared self-contained page shell (inline CSS, no external assets,
    no timestamps): wraps a body fragment into a complete document.
    [extra_style] appends CSS rules — the campaign kill-matrix renderer
    in [lib/mutate] reuses the shell this way. *)

val html : ?last:int -> t -> string
(** Self-contained HTML page (inline CSS, no external assets, no
    timestamps). *)

val write_html : ?last:int -> string -> t -> unit
(** Write {!html} to a file. *)

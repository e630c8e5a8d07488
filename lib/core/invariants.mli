(** Executable renditions of the paper's invariant catalogue
    (Sections 2.1 and 3.2).

    Each invariant is a predicate over a global CIMP state; the checker
    evaluates all of them at every reachable state.  The first three are
    the safety properties (the headline theorem and its operational
    manifestations); the rest are the auxiliary invariants of the proof,
    guarded exactly as the paper guards them (by handshake phase, pending
    writes, etc.).  Guards that only hold for the unablated algorithm
    consult the configuration. *)

(** Structured failure evidence: the failing conjunct of an invariant,
    the heap references and processes witnessing it, and a one-sentence
    account.  Produced by {!t.witness} on a violating state — the
    diagnosable-counterexample payload [lib/explain] and the
    [gcmodel explain] subcommand build their narratives from. *)
type witness = {
  conjunct : string;
  refs : Types.rf list;
  pids : int list;
  detail : string;
}

val witness_to_json : witness -> Obs.Json.t
val pp_witness : witness Fmt.t

type t = {
  name : string;
  doc : string;
  safety : bool;  (** part of the headline safety statement? *)
  paper : string;
      (** the paper's name/section for this invariant, e.g.
          ["sys_phase_inv / handshake_phase_inv, Section 3.2 / Fig. 3"] *)
  conjuncts : (string * string) list;
      (** every conjunct name this invariant's witnesses can carry, each
          with a one-line informal statement — the source of truth for the
          generated [docs/INVARIANTS.md] ([gcmodel doc]) and
          the columns of the campaign kill-matrix *)
  check : Model.sys -> bool;
  witness : Model.sys -> witness list;
      (** Structured evidence on the state: [[]] exactly when {!check}
          holds (guaranteed by construction — [witness] re-evaluates
          [check] first).  Only meant to run on the one violating state;
          it recomputes reachability freely and is not part of the
          checker's hot path. *)
}

(** {1 Root sets} *)

val buffered_insertions : State.sys_data -> int -> Types.rf list
(** References being written into objects by writes pending in a process's
    TSO buffer. *)

val buffered_deletions : State.sys_data -> int -> Types.rf list
(** For each pending field write, the value it will overwrite (committed
    heap updated by the earlier same-buffer writes to that field). *)

val extended_roots : Config.t -> Model.sys -> Types.rf list
(** The paper's extended root set: mutator roots, greys, references in TSO
    buffers, and in-flight deletion-barrier registers — ascending, a view
    of the reference mask the checks use. *)

val reachable_from_roots : Config.t -> Model.sys -> Types.rf list
(** Everything reachable from {!extended_roots}, ascending. *)

(** {1 The catalogue} *)

val valid_refs_inv : Config.t -> t
(** The headline theorem: [] (forall r. reachable r -> valid_ref r). *)

val no_dangling : Config.t -> t
val free_only_garbage : Config.t -> t
val worklists_disjoint : Config.t -> t
val valid_w_inv : Config.t -> t
val tso_ownership : Config.t -> t
val tso_lock_scope : Config.t -> t
val gc_fm_coherent : Config.t -> t
val phase_inv : Config.t -> t
val fa_fm_relation : Config.t -> t
val no_black_refs_init : Config.t -> t
val idle_heap_uniform : Config.t -> t
val marked_insertions : Config.t -> t
val marked_deletions : Config.t -> t
val reachable_snapshot_inv : Config.t -> t
val gc_w_empty_mut_inv : Config.t -> t
val weak_tricolor : Config.t -> t
val strong_tricolor : Config.t -> t

val safety_invariants : Config.t -> t list
val auxiliary_invariants : Config.t -> t list
val all : Config.t -> t list
val find : Config.t -> string -> t option

(** Counterexample traces: the schedule of events from the initial state to
    a state violating an invariant. *)

(** One transition of the schedule: the event fired and the state it
    produced. *)
type ('a, 'v, 's) step = { event : Cimp.System.event; state : ('a, 'v, 's) Cimp.System.t }

type ('a, 'v, 's) t = {
  initial : ('a, 'v, 's) Cimp.System.t;
  steps : ('a, 'v, 's) step list;  (** in execution order *)
  broken : string;  (** name of the violated invariant *)
}

val length : ('a, 'v, 's) t -> int
(** Number of steps (the counterexample's schedule length). *)

(** The violating state ([initial] if the trace is empty). *)
val final : ('a, 'v, 's) t -> ('a, 'v, 's) Cimp.System.t

(** Render the event schedule (state dumps are the callers' business:
    they know the data-state type — see {!Core.Dump.pp_trace}). *)
val pp : ('a, 'v, 's) t Fmt.t

(** {1 JSON export}

    The schedule (plus process names and the violated invariant) fully
    determines a counterexample run, so exporting it makes violations
    replayable artifacts without serializing the polymorphic states:
    re-run the schedule from the same initial system to regenerate every
    intermediate state. *)

val event_to_json : Cimp.System.event -> Obs.Json.t
(** One schedule entry: [{"tau": pid, "label"}] or
    [{"rendezvous": ...}] — the unit {!to_json} composes. *)

(** [{"broken"; "length"; "names"; "schedule"}] — see README
    "Observability" for the schema. *)
val to_json : ('a, 'v, 's) t -> Obs.Json.t

(** Parse back what {!to_json} wrote: the violated invariant's name and
    the event schedule, fail-closed through {!Obs.Json.Decode} ([Error
    "trace: missing or malformed schedule[3].req_label"]); [names] and
    [length] are not read.  No cross-checking against any system —
    prefer {!import} when the target system is at hand. *)
val schedule_of_json : Obs.Json.t -> (string * Cimp.System.event list, string) result

(** {1 Replay} *)

(** [replay ~norm ~lands start chain] re-runs a recorded schedule from
    [start], rebuilding the states it passed through: the one replay, for
    counterexamples, a resumed frontier and imported traces.  [chain]
    pairs each event with the key the recorder kept for the state it
    produced (a fingerprint, or [()]).  A backtracking search tries, in
    {!Cimp.System.steps} order, the successors that fire each event and
    whose [norm]al form satisfies [lands state key], and returns the
    first path through the whole chain.  Otherwise [Error i]: no branch
    could fire event [i] (from 0), the deepest reached.  A schedule that
    cannot be replayed is an error, never a shorter trace. *)
val replay :
  norm:(('a, 'v, 's) Cimp.System.t -> ('a, 'v, 's) Cimp.System.t) ->
  lands:(('a, 'v, 's) Cimp.System.t -> 'k -> bool) ->
  ('a, 'v, 's) Cimp.System.t ->
  ('k * Cimp.System.event) list ->
  (('a, 'v, 's) step list, int) result

(** [import sys json] rebuilds an exported counterexample:
    {!schedule_of_json}; then every event's pids and labels are checked
    against [sys], the pristine initial system (its frame stacks still
    hold the complete programs), so a stale trace from another instance
    (other [--muts], variant or disabled ops) is refused naming the
    event; then {!replay} from [sys]'s normal form through
    {!Cimp.System.normalize} (the checkers record normal forms), refusing
    a schedule that does not replay as [replay diverged: event N of M
    (EVENT) ...]. *)
val import : ('a, 'v, 's) Cimp.System.t -> Obs.Json.t -> (('a, 'v, 's) t, string) result

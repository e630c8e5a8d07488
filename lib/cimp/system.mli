(** The CIMP system semantics of the paper's Fig. 8: flat parallel
    composition with top-level interleaving and rendezvous.

    A global state maps process names to their local configurations; all
    processes share one data-state type, as in the Isabelle development. *)

type ('a, 'v, 's) t

type pid = int

(** What a global step did, for trace reconstruction. *)
type event =
  | Tau of pid * Label.t
  | Rendezvous of { requester : pid; req_label : Label.t; responder : pid; resp_label : Label.t }

val pp_event : string array -> event Fmt.t

(** The process that initiated the event: the stepping process of a tau,
    the requester of a rendezvous. *)
val event_owner : event -> pid

(** Every process whose configuration the event may have changed: [[p]]
    for a tau of [p], [[requester; responder]] for a rendezvous.  The
    write footprint at configuration granularity, used by partial-order
    reduction's independence relation. *)
val event_pids : event -> pid list

(** [make names procs] composes the processes.
    @raise Invalid_argument if the arrays' lengths differ. *)
val make : string array -> ('a, 'v, 's) Com.config array -> ('a, 'v, 's) t

val n_procs : ('a, 'v, 's) t -> int
val proc : ('a, 'v, 's) t -> pid -> ('a, 'v, 's) Com.config
val name : ('a, 'v, 's) t -> pid -> string

(** All successors: every process's tau steps (first rule of Fig. 8) and
    every requester/responder pairing (second rule), whose response is
    handed the requester's pid, reading each process's {!Com.offers}
    once.  The order is a contract, since the random walker draws an
    index into it and [Reduce.Por.ample] finds each owner's transitions
    in one scan: grouped by acting process (a rendezvous's requester)
    in ascending pid, each group is, reversed, the process's taus in
    offer order, then its rendezvous by request, responder pid, response
    offer and responder successor.  test_reduce's POR oracle asserts the
    grouping on every sampled state. *)
val steps : ('a, 'v, 's) t -> (event * ('a, 'v, 's) t) list

(** The paper's [at p l]: does control of process [p] reside at label [l]? *)
val at : ('a, 'v, 's) t -> pid -> Label.t -> bool

(** Surgical replacement of one process's data state (for tests and
    experiment drivers), through {!Com.with_data}. *)
val map_data : ('a, 'v, 's) t -> pid -> ('s -> 's) -> ('a, 'v, 's) t

(** [rewrite_data sys f]: every process [p]'s data replaced by
    [f p (proc sys p)], through {!Com.with_data}.  The process array is
    copied at most once, and [sys] itself is returned when [f] hands
    back every payload physically unchanged. *)
val rewrite_data : ('a, 'v, 's) t -> (pid -> ('a, 'v, 's) Com.config -> 's) -> ('a, 'v, 's) t

(** The label spine of every process's frame stack: the global control
    fingerprint. *)
val control_fingerprint : ('a, 'v, 's) t -> Label.t list list

(** Normal form under definite local steps: every process runs its
    {!Com.definite_tau} steps to quiescence.  A definite tau reads and
    writes only its own configuration, so each process settles on its own.
    Sound for invariants that only observe states at atomic-action
    boundaries — the evaluation-context coarsening of the paper's
    Section 3.

    Returns [sys] itself when no process has a definite step, and
    otherwise copies the process array once; a process that does not
    move keeps its configuration, memo included. *)
val normalize : ('a, 'v, 's) t -> ('a, 'v, 's) t

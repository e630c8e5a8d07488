(** CIMP commands and the per-process small-step semantics of the paper's
    Fig. 7.

    CIMP extends IMP with process-algebra-style rendezvous, control and
    data non-determinism, and flat parallel composition (see {!System}).
    Commands are deeply embedded; expressions (guards, state updates,
    message constructors) are shallowly embedded as OCaml functions over
    the process's local data state ['s].

    Type parameters follow the paper: ['a] is the rendezvous message type
    (alpha), ['v] the response value type (beta), ['s] the local data
    state. *)

type ('a, 'v, 's) t =
  | Skip of Label.t  (** no-op; one tau step *)
  | Local_op of Label.t * ('s -> 's list)
      (** LOCALOP R: update the local state non-deterministically; an empty
          successor list blocks *)
  | Request of Label.t * ('s -> 'a) * ('v -> 's -> 's)
      (** REQUEST act val: offer the message [act s]; on rendezvous, apply
          the responder's value to the local state *)
  | Response of Label.t * (int -> 'a -> 's -> ('s * 'v) list)
      (** RESPONSE act: accept a message, non-deterministically choose a
          successor state and reply value; an empty list refuses.  The
          first argument is the requester's pid: Fig. 8's rendezvous rule
          names the requester, so no message has to carry it *)
  | Seq of ('a, 'v, 's) t * ('a, 'v, 's) t  (** sequential composition *)
  | If of Label.t * ('s -> bool) * ('a, 'v, 's) t * ('a, 'v, 's) t
      (** guard evaluation takes one atomic step *)
  | While of Label.t * ('s -> bool) * ('a, 'v, 's) t
  | Loop of ('a, 'v, 's) t  (** everlasting repetition; unfolds transparently *)
  | Choose of ('a, 'v, 's) t list
      (** external choice: offers the union of its branches' first actions
          and commits only when one branch acts *)

(** {1 Derived forms} *)

val skip : Label.t -> ('a, 'v, 's) t

(** [seq cs] is the left-nested sequential composition of [cs].
    @raise Invalid_argument on the empty list. *)
val seq : ('a, 'v, 's) t list -> ('a, 'v, 's) t

(** [assign l f] deterministically updates the local state. *)
val assign : Label.t -> ('s -> 's) -> ('a, 'v, 's) t

(** [guard l p] blocks unless [p] holds. *)
val guard : Label.t -> ('s -> bool) -> ('a, 'v, 's) t

(** [if_ l p c] is [If (l, p, c, skip)]. *)
val if_ : Label.t -> ('s -> bool) -> ('a, 'v, 's) t -> ('a, 'v, 's) t

(** {1 Labels} *)

(** The leftmost-leaf label: the location of the next atomic action if
    this command runs next. *)
val head_label : ('a, 'v, 's) t -> Label.t

(** All labels occurring in a command. *)
val labels : ('a, 'v, 's) t -> Label.t list

(** Labels occurring more than once (they would confuse control
    fingerprinting; {!Core.Model} rejects such programs). *)
val duplicate_labels : ('a, 'v, 's) t -> Label.t list

(** {1 Local configurations (frame stacks)} *)

(** A configuration's memo word: empty, or its slot hash once
    {!memo_hash} has filled it. *)
type memo [@@immediate]

(** A process's local state: a frame stack of commands paired with its
    data state (Fig. 7, second rule), and one memo word.

    The record is private: {!make} and {!with_data} are its only
    constructors, and each starts a new configuration with an empty
    memo, so no configuration carries a hash computed for another one's
    stack and data. *)
type ('a, 'v, 's) config = private {
  stack : ('a, 'v, 's) t list;
  data : 's;
  mutable memo : memo;
}

(** [make stack data] builds a configuration in canonical form (no [Seq]
    at the head of the stack). *)
val make : ('a, 'v, 's) t list -> 's -> ('a, 'v, 's) config

(** [with_data c d] is [c] with its data replaced by [d]: [c] itself
    when [d == c.data], otherwise a new configuration with an empty
    memo. *)
val with_data : ('a, 'v, 's) config -> 's -> ('a, 'v, 's) config

(** [memo_hash c f] is [c]'s slot hash: the memoised word, or [f c]
    stored there on first use.  [f] must be a pure function of
    [c.stack] and [c.data] that never returns 0, the empty memo; its
    only caller is [Check.Fingerprint.slot_hash], so the word has one
    meaning.

    Several domains may fill one memo at the same moment.  Each writes
    the same immediate word, so the race is benign under OCaml 5's
    memory model: a reader sees the empty memo, and computes the hash
    again, or the hash. *)
val memo_hash : ('a, 'v, 's) config -> (('a, 'v, 's) config -> int) -> int

(** The spine of head labels of the stack frames; with unique labels this
    identifies the control state. *)
val stack_labels : ('a, 'v, 's) t list -> Label.t list

(** [compare_spines a b] = [List.compare Label.compare (stack_labels a)
    (stack_labels b)], without building either spine. *)
val compare_spines : ('a, 'v, 's) t list -> ('a, 'v, 's) t list -> int

(** Labels at which control can take its next atomic action — the
    executable counterpart of the paper's [at p l] predicate.  A [Choose]
    contributes all of its branch heads. *)
val at_labels : ('a, 'v, 's) config -> Label.t list

(** [exists_at pred c]: does some label of [at_labels c] satisfy [pred]?
    Allocates nothing; the hot-path form of the paper's [at p l] tests. *)
val exists_at : (Label.t -> bool) -> ('a, 'v, 's) config -> bool

val terminated : ('a, 'v, 's) config -> bool

(** {1 Transition offers} *)

(** One thing a process can do next (Fig. 7), found under the [Seq],
    [Loop] and [Choose] contexts at the head of its stack. *)
type ('a, 'v, 's) offer =
  | Tau of Label.t * ('a, 'v, 's) config  (** a local or control step, and its successor *)
  | Req of Label.t * 'a * ('v -> ('a, 'v, 's) config)
      (** a REQUEST: the message, and the continuation awaiting the reply *)
  | Resp of Label.t * (int -> 'a -> (('a, 'v, 's) config * 'v) list)
      (** a RESPONSE: for a requester's pid and its message, each
          successor with the value sent back; [[]] refuses it *)

(** Every offer, in branch order; a [Local_op]'s successors come in the
    order its function lists them. *)
val offers : ('a, 'v, 's) config -> ('a, 'v, 's) offer list

(** If the process's entire enabled behaviour is exactly one deterministic
    local/control step, its successor; such steps are unobservable by
    other processes and may be executed eagerly ({!System.normalize}).
    A process whose next action is a request, a response or a choice is
    refused from its head command, without unfolding its stack, so the
    answer [None] allocates nothing there. *)
val definite_tau : ('a, 'v, 's) config -> ('a, 'v, 's) config option

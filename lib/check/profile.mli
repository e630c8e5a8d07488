(** The checkers' one instrument: wall time and calls per layer,
    evaluations and wall time per invariant, and the records written
    from them.

    Each engine worker and each walker owns a profile and wraps its
    layers once, when it starts.  A profile that is not [live] (no
    reporter or tracer reads it) hands the bare functions back, so an
    untraced layer call takes no branch and allocates nothing for
    instrumentation; a live one reads {!Obs.Clock} around every call.
    After the join the profiles are {!merge}d and the per-run records
    are written once from the merge, whatever the number of workers. *)

(** [Invariants] is clocked inside {!check}, one clock pair per
    predicate. *)
type layer = Successors | Normalise | Fingerprint | Insert | Invariants | Push

type 'sys t

(** A zeroed profile over the (name, predicate) catalogue.  GC counters
    are read here; {!report} writes their growth since. *)
val create : live:bool -> (string * ('sys -> bool)) list -> 'sys t

(** [wrap p layer f] is [f] itself unless [p] is live, and otherwise [f]
    adding each call's wall time and count to [layer].  Wrap once,
    outside the loop. *)
val wrap : _ t -> layer -> ('a -> 'b) -> 'a -> 'b

(** {!wrap} for a function of four arguments (the store insert). *)
val wrap4 : _ t -> layer -> ('a -> 'b -> 'c -> 'd -> 'e) -> 'a -> 'b -> 'c -> 'd -> 'e

(** [check p sys]: the catalogue index of the first failing invariant,
    in catalogue order, or [-1] when all hold.  Live, each evaluation is
    counted and clocked. *)
val check : 'sys t -> 'sys -> int

(** The catalogue name at an index. *)
val name : _ t -> int -> string

(** Nanoseconds spent in a layer so far (0 unless live). *)
val ns : _ t -> layer -> int

(** The profiles' counters summed, over the first one's catalogue and GC
    baseline. *)
val merge : 'sys t list -> 'sys t

(** The [profile] record: seconds and calls per layer, the invariant
    totals, [other_s] (what [busy_s] leaves after every layer but the
    deque push) and the GC growth.  No-op when [obs] is off. *)
val report :
  Obs.Reporter.t ->
  checker:string ->
  ?domain:int ->
  states:int ->
  transitions:int ->
  elapsed:float ->
  busy_s:float ->
  _ t ->
  unit

(** One [invariant] record per catalogue entry.  No-op when [obs] is
    off. *)
val report_invariants : Obs.Reporter.t -> first_violation:string option -> _ t -> unit

(** The JSONL record catalogue: one declaration per record the
    repository emits.

    A declaration names the record's [event] value, who emits it, the
    fields every emit carries (in emission order), the few that only some
    emits carry, and one sentence of meaning.  {!Reporter.emit} takes a
    declaration instead of an event string and refuses, at emit time, a
    field list that does not match it; [docs/RECORDS.md] is rendered from
    {!all}.  Several declarations may share an event name (the explorer's
    and the walker's [outcome]): their field sets tell them apart.

    Every record also carries [event], [ts] and [rel_s], added by the
    reporter; declarations list only the caller's fields. *)

type t = private {
  name : string;  (** the [event] value *)
  emitter : string;  (** who emits it *)
  fields : string list;  (** present on every emit, in emission order *)
  optional : string list;  (** present on some emits only *)
  doc : string;  (** one sentence of meaning *)
}

val heartbeat_explore : t
val heartbeat_walk : t
val invariant : t
val profile : t
val reduction : t
val outcome_explore : t
val outcome_walk : t
val scaling_detail : t
val checkpoint : t
val crosscheck : t
val gc_cycle : t
val runtime_heartbeat : t
val harness : t
val violation : t
val explanation : t
val recheck : t
val campaign : t
val certificate : t
val experiment : t
val litmus : t
val outcome_litmus : t

(** Every declaration, in manual order. *)
val all : t list

(** [check r fields] accepts a field list that carries every field of
    [r.fields], nothing outside [r.fields] and [r.optional], and no name
    twice.
    @raise Invalid_argument naming the record and the offending field. *)
val check : t -> (string * 'a) list -> unit

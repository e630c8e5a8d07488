(** A minimal JSON value type with a printer and a parser.

    The observability layer emits JSONL event streams and the bench
    harness writes machine-readable reports; the test suite parses them
    back.  The container ships no JSON library, so this is a small,
    dependency-free implementation: ints are kept distinct from floats
    (metrics are mostly counters), strings are escaped per RFC 8259, and
    the parser accepts exactly what the printer emits plus standard
    whitespace and [\uXXXX] escapes. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

(** Indented multi-line rendering (2-space indent) for human-facing
    artifacts, e.g. the JSON payload embedded in [lib/explain]'s HTML
    reports.  [of_string] parses it back just like {!to_string}'s
    output. *)
val to_string_pretty : t -> string

val pp : t Fmt.t

(** [of_string s] parses one JSON value (surrounding whitespace allowed);
    trailing non-whitespace input is an error. *)
val of_string : string -> (t, string) result

(** {1 Accessors} — total; [None] on shape mismatch. *)

val member : string -> t -> t option
val to_int : t -> int option

(** [to_float] accepts both [Int] and [Float]. *)
val to_float : t -> float option

val to_string_opt : t -> string option

(** {1 Fail-closed decoding}

    The one way back in for every JSON document a run writes.  A reader
    is a function over [Decode.value]s, which carry the path they were
    read at: every field it reads is required, every list element is
    decoded, and the first missing or ill-typed value ends the read
    naming its path (e.g. [shards[5].next_seq]).  Fields it never asks
    for are ignored. *)
module Decode : sig
  type value

  (** [run doc read j] applies [read] to [j]; [Error "DOC: missing or
      malformed PATH"] names the first value [read] could not take.  The
      accessors below may only be called inside [read]. *)
  val run : string -> (value -> 'a) -> t -> ('a, string) result

  (** A required member.  On a value that is not an object, that value's
      path is named (at the root, the member's). *)
  val field : string -> value -> value

  val int : value -> int

  (** Accepts [Int] too, as [to_float] does. *)
  val float : value -> float

  val bool : value -> bool
  val string : value -> string

  (** Every element decoded, at paths [PATH[i]]. *)
  val list : (value -> 'a) -> value -> 'a list

  (** [null] is [None]; anything else must decode. *)
  val nullable : (value -> 'a) -> value -> 'a option

  (** The raw value of a field kept opaque (it must still be present). *)
  val json : value -> t

  (** Refuse a value that decodes but is not one the reader accepts (an
      unknown name, a list of the wrong length), naming its path. *)
  val malformed : value -> 'a
end

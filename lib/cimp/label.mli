(** Program-location labels.

    Every CIMP command carries a label, written [{l}] in the paper (Fig. 7).
    Labels anchor the paper's [at p l] local assertions and let the model
    checker fingerprint control state; they must be unique within a
    process's program.

    A label is its name plus a 63-bit hash of that name, computed once by
    {!v} when a program is built.  [Check.Fingerprint] mixes the hash, one
    word per label, so the hash is part of the certificate and checkpoint
    formats: it is a pure function of the name (the FNV-1a mix over the
    name's length and bytes, from a fixed seed), the same in every process
    and build.

    The name is the representation's first field and the hash is a
    function of it, so polymorphic [Stdlib.compare] orders labels exactly
    as {!compare} does, by name.  [Check.Fingerprint.equal] compares
    spines polymorphically, and the GC model's symmetry order compares
    them with {!compare} ({!Com.compare_spines}) where the key tuple
    it replaced compared them polymorphically; both rely on this. *)

type t

val v : string -> t
(** [v name] builds the label [name]; build it once per program, not once
    per state. *)

val name : t -> string
val hash : t -> int

val equal : t -> t -> bool
(** Hash first, then name. *)

val compare : t -> t -> int
(** By name, as [String.compare]. *)

val pp : t Fmt.t

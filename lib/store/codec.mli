(** Variable-length integer codec for the on-disk segment format.

    LEB128 over the *bit pattern* of the native int, shifted with
    logical [lsr]: a non-negative int below 2^7k costs k bytes, while
    ints with the sign bit set (structural fingerprints and packed
    rendezvous events both can carry bit 62) round-trip in at most 9
    bytes instead of looping forever under an arithmetic shift.  The
    codec is therefore total on the whole 63-bit int range. *)

val add_varint : Buffer.t -> int -> unit
(** Append one int's LEB128 bit-pattern encoding (1–9 bytes). *)

val varint_size : int -> int
(** The number of bytes {!add_varint} appends for an int. *)

(** [get_varint b pos] decodes one varint at [pos]; returns the value and
    the position just past it. *)
val get_varint : Bytes.t -> int -> int * int

(** [read_varint b ~len pos] decodes one varint of the first [len] bytes
    of [b] at [!pos] and advances [pos] past it, allocating nothing.
    @raise Invalid_argument if the varint runs past [len] (or past [b]). *)
val read_varint : Bytes.t -> len:int -> int ref -> int

(** Upper bound on the encoded size of any int (9 bytes: ceil 63/7). *)
val max_varint_bytes : int

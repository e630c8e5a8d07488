(** Atomic counters for the multicore runtime.

    An [Atomic.t] increment is exactly the fetch-and-add the paper's ghost
    counters use, so instrumentation adds no synchronisation point that
    could perturb the TSO behaviours under test.  Latency distributions
    live in {!Latency}. *)

type acounter

val acounter : unit -> acounter
val aincr : acounter -> unit
val acount : acounter -> int

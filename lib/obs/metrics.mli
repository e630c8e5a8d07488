(** Structured metrics: counters and gauges in a process-wide registry.

    Two counter flavours: plain (single-domain checker code, a bare
    [mutable int] so instrumentation is one add) and atomic (the multicore
    runtime, so instrumentation does not perturb the TSO behaviours under
    test by introducing accidental synchronisation points — an
    [Atomic.t] is exactly the fetch-and-add the paper's ghost counters
    use).  Latency distributions live in {!Latency}.

    Creation registers the metric in a registry (the shared [default] one
    unless told otherwise); [dump] snapshots every registered metric as a
    JSON object, which is what the sinks attach to heartbeat records. *)

type registry

val create_registry : unit -> registry

(** The process-wide registry used by every constructor by default. *)
val default : registry

(** Snapshot every metric registered in the registry (default: the
    process-wide one) as [name -> value]. *)
val dump : ?registry:registry -> unit -> Json.t

(** {1 Plain counters} — single writer, no synchronisation. *)

type counter

val counter : ?registry:registry -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val count : counter -> int

(** {1 Atomic counters} — safe under concurrent domains. *)

type acounter

val acounter : ?registry:registry -> string -> acounter
val aincr : acounter -> unit
val aadd : acounter -> int -> unit
val acount : acounter -> int

(** {1 Gauges} — last-write-wins floats, single writer. *)

type gauge

val gauge : ?registry:registry -> string -> gauge
val set : gauge -> float -> unit
val value : gauge -> float

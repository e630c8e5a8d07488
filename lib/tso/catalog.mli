(** The classic litmus tests with their published x86-TSO classifications
    (Sewell et al., CACM 2010).  Experiment E9 runs all of them on the Sys
    process in its TSO and SC modes and checks every classification. *)

(** store buffering (Dekker): TSO's signature relaxation *)
val sb : Litmus.test

(** fences restore order *)
val sb_mfence : Litmus.test

(** so do LOCK'd instructions (the marking CAS) *)
val sb_xchg : Litmus.test

(** message passing: stale read forbidden *)
val mp : Litmus.test

(** load buffering: forbidden *)
val lb : Litmus.test

(** per-location read coherence *)
val corr : Litmus.test

(** TSO is multi-copy atomic *)
val iriw : Litmus.test

(** write-to-read causality *)
val wrc : Litmus.test

(** intra-thread forwarding: allowed TSO, forbidden SC *)
val n6 : Litmus.test

(** cross write-write reordering forbidden *)
val w2plus2 : Litmus.test

val all : Litmus.test list
val run_all : unit -> Litmus.verdict list

(** {1 PSO probes (extension, experiment E13)} *)

val run_pso : unit -> (string * bool * bool) list
(** (name, expected-observable, observed) per probe, on the Sys process in
    PSO mode: MP and 2+2W become observable, SB stays observable, CoRR
    (coherence) and fenced SB stay forbidden. *)

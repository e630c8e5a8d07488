(** Litmus-test harness: architecture-level thread programs run as CIMP
    clients of the collector's Sys process ({!Core.Sysproc}), exhaustive
    enumeration of final-state observations under its TSO, SC and PSO
    modes, and verdicts against the published x86-TSO classifications
    (experiment E9). *)

type addr = int
type reg = int
type tid = int

type instr =
  | Ld of reg * addr
  | St of addr * int
  | Mf
  | Xchg of reg * addr * int
      (** LOCK XCHG: Lock/Read/Write/Unlock requests, as Fig. 9 treats a
          LOCK'd CMPXCHG *)

type test = {
  name : string;
  description : string;
  mem_size : int;
  n_regs : int;
  threads : instr list list;
  observed_regs : (tid * reg) list;
  observed_mem : addr list;
  target : int list;  (** the candidate relaxed outcome *)
  allowed_tso : bool;  (** published classification under x86-TSO *)
  allowed_sc : bool;
}

val outcomes : ?mode:Core.Config.memory -> test -> int list list * int
(** Exhaustively enumerate the final-state observations (default mode
    TSO); also returns the number of distinct states explored.  A
    location is a field of one heap object and a stored value a
    reference, so values must stay below {!Gcheap.Heap.max_refs}. *)

type verdict = {
  test : test;
  tso_outcomes : int list list;
  sc_outcomes : int list list;
  tso_states : int;
  sc_states : int;
  tso_observed : bool;
  sc_observed : bool;
  ok : bool;  (** matches the published classification *)
}

val run : test -> verdict
val pp_outcome : int list Fmt.t
val pp_verdict : verdict Fmt.t

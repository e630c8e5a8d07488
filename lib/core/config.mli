(** Model configuration: instance bounds and the ablation/variant switches.

    The defaults give the paper's collector; each switch either removes a
    mechanism the proof depends on (the checker then finds a safety
    violation) or enacts one of the paper's Section 4 Observations. *)

(** A single-site syntactic mutation over the model programs, for the
    mutation-testing campaign ([lib/mutate]).  Unlike the coarse variant
    switches below, each perturbs exactly one program point; the program
    builders consult the active mutation at construction time, keyed by the
    site's label (or label prefix), so a mutant is an ordinary [t -> t]
    tweak composing with {!Variants.t} and preserving mutator pid-symmetry
    (the reduction subsystem stays sound on mutants). *)
type mutation =
  | Drop_fence of string
      (** replace the MFENCE at this exact label by a skip *)
  | Weaken_cas of string
      (** this mark expansion (by prefix): drop the LOCK around the CAS,
          leaving an unlocked test-and-set *)
  | Elide_barrier of string
      (** ["del"] or ["ins"]: skip that write-barrier instance *)
  | Skip_hs_wait of string
      (** handshake tag (["hs1"]..["hs4"], ["hs-roots"], ["hs-work"]): the
          collector signals the round but does not wait for the acks *)
  | Swap_mark_loads of string
      (** this mark expansion: load the mark flag before f_M (Fig. 5
          lines 2-3 reversed) *)
  | Alloc_color_off  (** allocate with the opposite of the allocation color *)

(** The memory system the Sys process implements. *)
type memory =
  | TSO  (** x86-TSO: per-process FIFO store buffers (Fig. 9) *)
  | SC  (** every store commits at once: the SC baseline *)
  | PSO
      (** extension: partial store order — per-location FIFO only (first
          step toward ARM/POWER, Section 4) *)

type t = {
  n_muts : int;
  n_refs : int;
  n_fields : int;
  buf_bound : int;  (** TSO store-buffer capacity (the paper leaves it unspecified) *)
  memory : memory;
  deletion_barrier : bool;  (** Fig. 6: the snapshot barrier *)
  insertion_barrier : bool;  (** Fig. 6: the incremental-update barrier *)
  insertion_skip_after_roots : bool;
      (** O2: mutators past get-roots skip the insertion barrier *)
  alloc_white : bool;  (** ablation: ignore f_A, always allocate unmarked *)
  handshake_fences : bool;  (** ablation: drop the four handshake MFENCEs *)
  skip_init_handshakes : bool;  (** O1: drop the two middle init rounds *)
  cas_mark : bool;  (** ablation (false): mark without the LOCK'd CAS *)
  mut_load : bool;  (** mutator operation repertoire, for targeted runs *)
  mut_store : bool;
  mut_alloc : bool;
  mut_discard : bool;
  mut_mfence : bool;
  max_cycles : int;  (** 0 = everlasting; k bounds the run to k cycles *)
  max_mut_ops : int;  (** 0 = unbounded; k = per-mutator heap-op budget *)
  mutation : mutation option;  (** at most one syntactic mutation at a time *)
}

val default : t

val mutation_name : mutation -> string
(** Stable mutant identifier, e.g. ["drop-fence:gc:hs2:store-fence"] —
    the row key of the campaign kill-matrix. *)

val describe : t -> string
(** Stable, human-readable serialization of every configuration field,
    e.g. ["muts=2;refs=2;...;mutation=-"].  Destructures the record
    exhaustively, so adding a field without extending the serialization
    is a compile error — the property certificate soundness rests on:
    two configurations with equal [describe] build the same model.  The
    memory mode renders as the pair [sc=0;pso=0] (TSO), [sc=1;pso=0] or
    [sc=0;pso=1]. *)

val hash : t -> string
(** Hex digest of {!describe}; the [config_hash] bound into certificate
    headers (lib/certify) and checked by [gcmodel recheck]. *)

(** {2 Per-site queries for the program builders}

    Each is a straight equality test against the active mutation; an
    unmutated configuration pays one pattern match per site at program
    construction time and nothing at run time. *)

val fence_dropped : t -> string -> bool
val cas_weakened : t -> string -> bool
val barrier_elided : t -> string -> bool
val hs_wait_skipped : t -> string -> bool
val mark_loads_swapped : t -> string -> bool
val alloc_flipped : t -> bool

(** {1 Process identifiers within the CIMP system} *)

val pid_gc : int
val pid_mut : t -> int -> int
val pid_sys : t -> int
val n_procs : t -> int

val n_software : t -> int
(** Collector + mutators: the processes with store buffers, work-lists and
    ghost honorary greys. *)

val proc_name : t -> int -> string

(* Model configuration: instance bounds and the ablation/variant switches.

   The [true, true, ...] defaults give the paper's collector; each switch
   either removes a mechanism the proof depends on (expected: the checker
   finds a safety violation) or enacts one of the paper's Section 4
   "Observations" (expected: still safe). *)

(* Single-site syntactic mutations over the model programs, for the
   mutation-testing campaign (lib/mutate).  Unlike the variant switches
   above each of these perturbs exactly ONE program point; the builders in
   collector.ml / mutator.ml / mark.ml consult the active mutation at
   construction time, keyed by the label (or label prefix) of the site, so
   a mutant is still an ordinary [t -> t] tweak that composes with
   [Variants.t] and leaves the mutator programs identical across pids
   (pid-symmetry reduction stays sound). *)
type mutation =
  | Drop_fence of string  (* replace the MFENCE at this exact label by a skip *)
  | Weaken_cas of string  (* this mark expansion (by prefix): CAS -> unlocked test-and-set *)
  | Elide_barrier of string  (* "del" | "ins": skip that write-barrier instance *)
  | Skip_hs_wait of string  (* handshake tag: collector does not wait for the acks *)
  | Swap_mark_loads of string  (* this mark expansion: load flag before f_M *)
  | Alloc_color_off  (* allocate with the opposite of the allocation color *)

(* The memory system the Sys process implements. *)
type memory =
  | TSO  (* x86-TSO: per-process FIFO store buffers (Fig. 9) *)
  | SC  (* every store commits at once: the SC baseline *)
  | PSO
    (* extension: partial store order — buffers are per-location FIFO only,
       stores to different locations may commit out of order (first step
       toward the ARM/POWER models of Section 4) *)

type t = {
  n_muts : int;
  n_refs : int;
  n_fields : int;
  buf_bound : int;  (* TSO store-buffer capacity (paper: unbounded) *)
  memory : memory;
  deletion_barrier : bool;  (* Fig. 6 line 8: the snapshot barrier *)
  insertion_barrier : bool;  (* Fig. 6 line 9: the incremental-update barrier *)
  insertion_skip_after_roots : bool;
    (* O2: mutators that passed get-roots skip the insertion barrier
       (extra branch in the store barrier) *)
  alloc_white : bool;  (* ablation: ignore fA, always allocate unmarked *)
  handshake_fences : bool;  (* ablation: drop all four handshake MFENCEs *)
  skip_init_handshakes : bool;
    (* O1: drop the two middle initialization rounds (nop2, nop3) *)
  cas_mark : bool;  (* ablation (false): mark without the LOCK'd CAS *)
  mut_load : bool;  (* mutator operation repertoire, for targeted runs *)
  mut_store : bool;
  mut_alloc : bool;
  mut_discard : bool;
  mut_mfence : bool;
  max_cycles : int;
    (* 0 = the paper's everlasting control loop; k > 0 bounds the run to k
       mark-sweep cycles so that exhaustive exploration can close *)
  max_mut_ops : int;
    (* 0 = unbounded mutators; k > 0 gives each mutator a budget of k
       heap operations (handshaking stays free), again for closure *)
  mutation : mutation option;  (* at most one syntactic mutation at a time *)
}

let default =
  {
    n_muts = 1;
    n_refs = 3;
    n_fields = 1;
    buf_bound = 2;
    memory = TSO;
    deletion_barrier = true;
    insertion_barrier = true;
    insertion_skip_after_roots = false;
    alloc_white = false;
    handshake_fences = true;
    skip_init_handshakes = false;
    cas_mark = true;
    mut_load = true;
    mut_store = true;
    mut_alloc = true;
    mut_discard = true;
    mut_mfence = true;
    max_cycles = 0;
    max_mut_ops = 0;
    mutation = None;
  }

let mutation_name = function
  | Drop_fence lbl -> "drop-fence:" ^ lbl
  | Weaken_cas p -> "weaken-cas:" ^ p
  | Elide_barrier b -> "elide-barrier:" ^ b
  | Skip_hs_wait tag -> "skip-hs-wait:" ^ tag
  | Swap_mark_loads p -> "swap-mark-loads:" ^ p
  | Alloc_color_off -> "alloc-color-off"

(* Stable serialization of the full configuration, for certificate
   headers (lib/certify).  The record is destructured exhaustively —
   without a wildcard — so adding a field breaks this function at
   compile time instead of silently hashing configurations that differ
   in the new field to the same string.  The memory mode renders as two
   flags, [sc=] and [pso=], the form stored certificate headers hash. *)
let describe cfg =
  let {
    n_muts;
    n_refs;
    n_fields;
    buf_bound;
    memory;
    deletion_barrier;
    insertion_barrier;
    insertion_skip_after_roots;
    alloc_white;
    handshake_fences;
    skip_init_handshakes;
    cas_mark;
    mut_load;
    mut_store;
    mut_alloc;
    mut_discard;
    mut_mfence;
    max_cycles;
    max_mut_ops;
    mutation;
  } =
    cfg
  in
  let b v = if v then "1" else "0" in
  String.concat ";"
    [
      Printf.sprintf "muts=%d" n_muts;
      Printf.sprintf "refs=%d" n_refs;
      Printf.sprintf "fields=%d" n_fields;
      Printf.sprintf "buf=%d" buf_bound;
      "sc=" ^ b (memory = SC);
      "pso=" ^ b (memory = PSO);
      "del=" ^ b deletion_barrier;
      "ins=" ^ b insertion_barrier;
      "o2=" ^ b insertion_skip_after_roots;
      "allocw=" ^ b alloc_white;
      "hsf=" ^ b handshake_fences;
      "o1=" ^ b skip_init_handshakes;
      "cas=" ^ b cas_mark;
      "load=" ^ b mut_load;
      "store=" ^ b mut_store;
      "alloc=" ^ b mut_alloc;
      "discard=" ^ b mut_discard;
      "mfence=" ^ b mut_mfence;
      Printf.sprintf "cycles=%d" max_cycles;
      Printf.sprintf "ops=%d" max_mut_ops;
      ("mutation=" ^ match mutation with None -> "-" | Some m -> mutation_name m);
    ]

let hash cfg = Digest.to_hex (Digest.string (describe cfg))

(* Per-site queries for the program builders.  Each is a straight equality
   test against the active mutation, so an unmutated configuration pays one
   pattern match per site at construction time and nothing at run time. *)
let fence_dropped cfg lbl = cfg.mutation = Some (Drop_fence lbl)
let cas_weakened cfg prefix = cfg.mutation = Some (Weaken_cas prefix)
let barrier_elided cfg which = cfg.mutation = Some (Elide_barrier which)
let hs_wait_skipped cfg tag = cfg.mutation = Some (Skip_hs_wait tag)
let mark_loads_swapped cfg prefix = cfg.mutation = Some (Swap_mark_loads prefix)
let alloc_flipped cfg = cfg.mutation = Some Alloc_color_off

(* Process identifiers within the CIMP system: the collector, then the
   mutators, then Sys.  Store buffers, work-lists and ghost-grey slots are
   indexed by the software pids 0..n_muts (collector and mutators). *)
let pid_gc = 0
let pid_mut _cfg m = 1 + m
let pid_sys cfg = 1 + cfg.n_muts
let n_procs cfg = cfg.n_muts + 2
let n_software cfg = cfg.n_muts + 1

let proc_name cfg p =
  if p = pid_gc then "gc"
  else if p = pid_sys cfg then "sys"
  else Printf.sprintf "mut%d" (p - 1)

(* Symmetry + register-liveness canonical fingerprints.

   Identical processes (the mutators of the GC model) are interchangeable:
   permuting them in a global state yields a state with the same future
   behaviour up to the same permutation, and all invariants of interest
   quantify over them symmetrically.  The checker can therefore dedup on
   a canonical orbit representative — here, the one that sorts the
   symmetric pids by a typed comparator of their control spines, data
   and shared-state slices — collapsing up to n! permutations of each
   state into one.

   Orthogonally, a *liveness* canonicalization nulls local registers that
   are dead at the current control point (their value cannot be read
   before being overwritten, and no invariant reads them there), merging
   states that differ only in dead-register junk.

   The sort is fingerprint-level only: the checker expands the state it
   reached with its dead registers nulled ([canon_state]), not the sorted
   representative.  That representative's fingerprint mixes its slot
   hashes in the sorted order, as of_system and of_parts mix theirs in
   slot order, and takes each configuration's memoised slot hash where
   nulling and renaming left its payload alone.  A permuted state is
   nonetheless an ordinary runnable
   system: the symmetric processes run one program and learn who asks
   from the rendezvous, not from a pid in their commands, so [permute]
   builds it, and the property tests execute it to check that the
   permutation is an automorphism. *)

type ('a, 'v, 's) spec = {
  sym_pids : Cimp.System.pid list;
      (* the interchangeable processes; everything else keeps its slot *)
  canon_local :
    ('a, 'v, 's) Cimp.System.t ->
    pid:Cimp.System.pid ->
    stack:('a, 'v, 's) Cimp.Com.t list ->
    's ->
    's;
      (* liveness canonicalization of one process's data at this state,
         given that process's frame stack; must return the argument
         *physically unchanged* when no rule fires (change is detected
         by [!=]) *)
  compare_pids :
    ('a, 'v, 's) Cimp.System.t -> canon:'s array -> Cimp.System.pid -> Cimp.System.pid -> int;
      (* total preorder of two symmetric processes, [canon.(p)] being
         p's [canon_local] data: must cover its control spine, canonical
         local data, and every per-process slice of shared state (store
         buffer, work-list, handshake bits, ...) *)
  permute_ok : ('a, 'v, 's) Cimp.System.t -> bool;
      (* is the pid permutation an automorphism at this state?  (The GC
         model's handshake signal loop iterates mutators in index order,
         so states inside that window are excluded.) *)
  rename_shared : perm:(Cimp.System.pid -> Cimp.System.pid) -> pid:Cimp.System.pid -> 's -> 's;
      (* apply the pid renaming to one data payload: per-process slices
         of shared state move with the permutation; identity for payloads
         that mention no pids, and structurally the identity under the
         identity permutation (which the fingerprint therefore never
         applies) *)
}

let canon_slot spec sys p (cfg : _ Cimp.Com.config) =
  spec.canon_local sys ~pid:p ~stack:cfg.Cimp.Com.stack cfg.Cimp.Com.data

(* Executable canonical representative: every process's local data with
   its dead registers nulled, pids untouched, which the checkers expand
   in place of whichever concrete state they happened to reach first.
   Physically unchanged when no nulling rule fires, and idempotent
   (nulling rules test against the null value, so a second pass fires
   nothing).  Stacks are control state, unaffected by the data rewrites,
   so [canon_local] reads them, and [sys], from the original. *)
let canon_state spec sys = Cimp.System.rewrite_data sys (canon_slot spec sys)

(* The system with process p moved to slot [perm p] and every payload
   renamed as the canonical fingerprint renames it.  Slot names stay. *)
let permute spec perm sys =
  let n = Cimp.System.n_procs sys in
  let src = Array.make n (-1) in
  for p = 0 to n - 1 do
    let q = perm p in
    if (if List.mem p spec.sym_pids then not (List.mem q spec.sym_pids) else q <> p) || src.(q) >= 0
    then invalid_arg (Fmt.str "Symmetry.permute: pid %d -> %d" p q);
    src.(q) <- p
  done;
  let slot q =
    let c = Cimp.System.proc sys src.(q) in
    Cimp.Com.with_data c (spec.rename_shared ~perm ~pid:q c.Cimp.Com.data)
  in
  Cimp.System.make (Array.init n (Cimp.System.name sys)) (Array.init n slot)

(* All permutations of a list, for the property tests.  The chosen
   element is removed by position, so repeated elements are kept. *)
let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat
      (List.mapi
         (fun i x ->
           let rest = List.filteri (fun j _ -> j <> i) l in
           List.map (fun p -> x :: p) (permutations rest))
         l)

(* Are the symmetric pids already in canonical order?  Then the stable
   sort is the identity. *)
let rec in_order spec sys canon = function
  | p :: (q :: _ as rest) -> spec.compare_pids sys ~canon p q <= 0 && in_order spec sys canon rest
  | [ _ ] | [] -> true

(* src.(slot) = the pid whose process the canonical order puts in
   [slot], by a stable sort of the symmetric pids: equal processes keep
   their pid order, so the identity wins on fully symmetric states *)
let sorted_src spec sys canon n sym_pids =
  let sym = Array.of_list sym_pids in
  let order = Array.copy sym in
  Array.stable_sort (fun p q -> spec.compare_pids sys ~canon p q) order;
  let src = Array.init n Fun.id in
  Array.iteri (fun i p -> src.(sym.(i)) <- p) order;
  src

(* The hash of slot [q] of the representative: process [p]'s frame
   stack with payload [d].  When [d] is [p]'s own payload, nothing was
   nulled or renamed, and [p]'s memoised slot hash stands. *)
let rep_slot_hash sys p d =
  let cfg = Cimp.System.proc sys p in
  if d == cfg.Cimp.Com.data then Check.Fingerprint.slot_hash cfg
  else Check.Fingerprint.fresh_slot_hash cfg.Cimp.Com.stack d

(* The representative's structural key: slot [q] holds process [src q]'s
   spine and the payload [rep.(q)]. *)
let rep_key sys src rep () =
  let n = Array.length rep in
  ( List.init n (fun q -> Cimp.Com.stack_labels (Cimp.System.proc sys (src q)).Cimp.Com.stack),
    List.init n (fun q -> Stdlib.Obj.repr rep.(q)) )

(* Canonical fingerprint of [sys] under [spec].  Returns the fingerprint
   plus whether the sort actually permuted anything and whether any
   register was nulled (for the reduction counters).

   Every checker worker calls this concurrently on every generated
   successor, so it is pure but for the slot memos, which hold a pure
   function of their configuration, and builds only what it hashes: one
   array of canonical payloads, and, only when the sort moves a process,
   the slot order and the renamed payloads.  The representative's slot
   hashes are mixed in a loop, in slot order; a slot whose payload was
   neither nulled nor renamed takes its configuration's memo, and only
   the others are hashed afresh.  The key is assembled as lists only if
   the fingerprint's key is compared. *)
let canonical_fingerprint spec sys =
  let n = Cimp.System.n_procs sys in
  let nulled = ref false in
  let canon =
    if n = 0 then [||]
    else begin
      let canon = Array.make n (Cimp.System.proc sys 0).Cimp.Com.data in
      for p = 0 to n - 1 do
        let cfg = Cimp.System.proc sys p in
        let c = canon_slot spec sys p cfg in
        if c != cfg.Cimp.Com.data then nulled := true;
        canon.(p) <- c
      done;
      canon
    end
  in
  let src =
    match spec.sym_pids with
    | [] | [ _ ] -> None
    | sym_pids ->
      if (not (spec.permute_ok sys)) || in_order spec sys canon sym_pids then None
      else Some (sorted_src spec sys canon n sym_pids)
  in
  let h = ref Check.Fingerprint.seed in
  match src with
  | None ->
    for q = 0 to n - 1 do
      h := Check.Fingerprint.mix_slot !h (rep_slot_hash sys q canon.(q))
    done;
    (Check.Fingerprint.of_mix !h ~key:(rep_key sys Fun.id canon), false, !nulled)
  | Some src ->
    (* perm.(old_pid) = canonical slot *)
    let perm = Array.make n 0 in
    Array.iteri (fun slot p -> perm.(p) <- slot) src;
    let perm p = perm.(p) in
    let rep = Array.copy canon in
    for q = 0 to n - 1 do
      let d = spec.rename_shared ~perm ~pid:q canon.(src.(q)) in
      rep.(q) <- d;
      h := Check.Fingerprint.mix_slot !h (rep_slot_hash sys src.(q) d)
    done;
    (Check.Fingerprint.of_mix !h ~key:(rep_key sys (Array.get src) rep), true, !nulled)

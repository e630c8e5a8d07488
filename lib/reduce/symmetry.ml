(* Symmetry + register-liveness canonical fingerprints.

   Identical processes (the mutators of the GC model) are interchangeable:
   permuting them in a global state yields a state with the same future
   behaviour up to the same permutation, and all invariants of interest
   quantify over them symmetrically.  The checker can therefore dedup on
   a canonical orbit representative — here, the one that sorts the
   symmetric pids by a structural key — collapsing up to n! permutations
   of each state into one.

   Orthogonally, a *liveness* canonicalization nulls local registers that
   are dead at the current control point (their value cannot be read
   before being overwritten, and no invariant reads them there), merging
   states that differ only in dead-register junk.

   The sort is fingerprint-level only: the checker expands the state it
   reached with its dead registers nulled ([canon_state]), not the sorted
   representative.  That representative is assembled as (control spines,
   data payloads) and hashed with Check.Fingerprint.of_parts, which uses
   the exact mix of of_system.  A permuted state is nonetheless an
   ordinary runnable system: the symmetric processes run one program and
   learn who asks from the rendezvous, not from a pid in their commands,
   so [permute] builds it, and the property tests execute it to check
   that the permutation is an automorphism. *)

type ('a, 'v, 's) spec = {
  sym_pids : Cimp.System.pid list;
      (* the interchangeable processes; everything else keeps its slot *)
  canon_local :
    ('a, 'v, 's) Cimp.System.t -> pid:Cimp.System.pid -> spine:Cimp.Label.t list -> 's -> 's;
      (* liveness canonicalization of one process's data at this state,
         given that process's label spine; must return the argument
         *physically unchanged* when no rule fires (change is detected
         by [!=]) *)
  key :
    ('a, 'v, 's) Cimp.System.t ->
    pid:Cimp.System.pid ->
    spine:Cimp.Label.t list ->
    canon:'s ->
    Stdlib.Obj.t;
      (* structural sort key of a symmetric process: must cover its
         control spine, canonical local data, and every per-process slice
         of shared state (store buffer, work-list, handshake bits, ...) *)
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

let spine_of sys p = Cimp.Com.stack_labels (Cimp.System.proc sys p).Cimp.Com.stack

(* Executable canonical representative: every process's local data with
   its dead registers nulled, pids untouched, which the checkers expand
   in place of whichever concrete state they happened to reach first.
   Physically unchanged when no nulling rule fires, and idempotent
   (nulling rules test against the null value, so a second pass fires
   nothing). *)
let canon_state spec sys =
  let n = Cimp.System.n_procs sys in
  let out = ref sys in
  for p = 0 to n - 1 do
    let d = (Cimp.System.proc sys p).Cimp.Com.data in
    (* spines are control state, unaffected by the data rewrites, so
       reading them from the original [sys] is sound *)
    let c = spec.canon_local sys ~pid:p ~spine:(spine_of sys p) d in
    if c != d then out := Cimp.System.map_data !out p (fun _ -> c)
  done;
  !out

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
    { c with Cimp.Com.data = spec.rename_shared ~perm ~pid:q c.Cimp.Com.data }
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

(* Canonical fingerprint of [sys] under [spec].  Returns the fingerprint
   plus whether the sort actually permuted anything and whether any
   register was nulled (for the reduction counters).

   Every checker worker calls this concurrently on every generated
   successor, so it is pure (no memo table, no shared cache) and does
   each piece of work once: each spine is built once and shared by
   [canon_local], [key] and the fingerprint, and when the sort moves
   nothing the canonical payloads are hashed as they are. *)
let canonical_fingerprint spec sys =
  let n = Cimp.System.n_procs sys in
  let spines = Array.init n (spine_of sys) in
  let nulled = ref false in
  let canon =
    Array.init n (fun p ->
        let d = (Cimp.System.proc sys p).Cimp.Com.data in
        let c = spec.canon_local sys ~pid:p ~spine:spines.(p) d in
        if c != d then nulled := true;
        c)
  in
  (* src.(slot) = old_pid; None while the order is the identity *)
  let src =
    match spec.sym_pids with
    | [] | [ _ ] -> None
    | _ when not (spec.permute_ok sys) -> None
    | sym_pids ->
      let sym = Array.of_list sym_pids in
      let order =
        Array.map (fun p -> (spec.key sys ~pid:p ~spine:spines.(p) ~canon:canon.(p), p)) sym
      in
      (* stable, so equal keys keep their pid order and the identity wins
         on fully symmetric states *)
      Array.stable_sort (fun (k1, _) (k2, _) -> Stdlib.compare k1 k2) order;
      if Array.for_all2 (fun (_, p) slot -> p = slot) order sym then None
      else begin
        let src = Array.init n Fun.id in
        Array.iteri (fun i (_, p) -> src.(sym.(i)) <- p) order;
        Some src
      end
  in
  match src with
  | None ->
    let control = Array.to_list spines in
    let data = List.init n (fun q -> Stdlib.Obj.repr canon.(q)) in
    (Check.Fingerprint.of_parts ~control ~data, false, !nulled)
  | Some src ->
    (* perm.(old_pid) = canonical slot *)
    let perm = Array.make n 0 in
    Array.iteri (fun slot p -> perm.(p) <- slot) src;
    let perm p = perm.(p) in
    let control = List.init n (fun q -> spines.(src.(q))) in
    let data =
      List.init n (fun q -> Stdlib.Obj.repr (spec.rename_shared ~perm ~pid:q canon.(src.(q))))
    in
    (Check.Fingerprint.of_parts ~control ~data, true, !nulled)

(* The GC model's instantiation of lib/reduce: which processes are
   symmetric, which registers are dead where, and which transitions the
   ample-set selector may defer.

   Everything here is justified against the model source and the
   invariant catalogue; DESIGN.md ("State-space reduction") records the
   argument.  Two global preconditions:

   - Normal-form exploration (the checkers' default).  The liveness
     rules below null registers that are only read by definite-tau
     steps (If/While tests, assigns), which never rest in normal form;
     at non-normal-form rest points those registers are live and the
     rules would be unsound.

   - Invariants quantify over mutators symmetrically (every invariant
     in Invariants.all does), and read, of all the local registers,
     only m_loaded (under bar-del control), g_ref (at gc:free and its
     sweep window) and g_fM — which is why those three appear in keep
     conditions below and the rest can be nulled when control cannot
     read them again before an overwrite. *)

open Types
open State

(* The name of a frame stack's current label: the head label of its top
   frame. *)
let head_name = function [] -> "" | c :: _ -> Cimp.Label.name (Cimp.Com.head_label c)

let head_of sys p = head_name (Cimp.System.proc sys p).Cimp.Com.stack

(* [String.starts_with] and [String.ends_with] without their per-call
   closure: every label test here runs on every fingerprinted state or
   every generated transition. *)
let has_prefix ~prefix s =
  let n = String.length prefix in
  String.length s >= n
  &&
  let i = ref 0 in
  while !i < n && String.unsafe_get s !i = String.unsafe_get prefix !i do
    incr i
  done;
  !i = n

let has_suffix ~suffix s =
  let n = String.length suffix in
  let off = String.length s - n in
  off >= 0
  &&
  let i = ref 0 in
  while !i < n && String.unsafe_get s (off + !i) = String.unsafe_get suffix !i do
    incr i
  done;
  !i = n

(* -- register liveness ------------------------------------------------------

   [canon_mut]/[canon_gc] null dead registers, returning the argument
   physically unchanged when no rule fires (Symmetry counts a state as
   "nulled" via [!=]).  [stack] is the process's frame stack, [h] the
   name of its head (current) label.  The tests are typed (no polymorphic
   compare) and allocate nothing: they run on every fingerprinted state. *)

let is_mark_regs0 r =
  Option.is_none r.mk_ref && (not r.mk_fM) && (not r.mk_flag) && r.mk_phase = Ph_idle
  && not r.mk_winner

let canon_mut stack h (d : mut_data) =
  (* At the top of the op loop (spine = [hs-read]: the Choose over ops,
     whose first branch is the handshake) every op-scratch register is
     dead: each op writes its own scratch before reading it.  m_roots,
     m_ops and m_rooted genuinely carry across ops and stay. *)
  let at_op_loop = match stack with [ _ ] -> String.equal h "mut:hs-read" | _ -> false in
  let d =
    if
      at_op_loop
      && (Option.is_some d.m_src || Option.is_some d.m_dst || d.m_fld <> 0 || d.m_fA
         || d.m_hs_pending || d.m_hs_type <> Hs_get_work
         || match d.m_todo with [] -> false | _ :: _ -> true)
    then
      {
        d with
        m_src = None;
        m_dst = None;
        m_fld = 0;
        m_fA = false;
        m_hs_pending = false;
        m_hs_type = Hs_get_work;
        m_todo = [];
      }
    else d
  in
  (* m_loaded: read by the deletion barrier's mark code and by the
     extended-roots invariant, both only under bar-del (or the
     del-target assign, kept for non-normal-form belt and braces). *)
  let d =
    if
      Option.is_some d.m_loaded
      && not (has_prefix ~prefix:"mut:bar-del" h || String.equal h "mut:del-target")
    then { d with m_loaded = None }
    else d
  in
  (* mark registers: live only inside an inlined mark expansion *)
  if
    (not (is_mark_regs0 d.m_mark))
    && not
         (has_prefix ~prefix:"mut:bar-del" h
         || has_prefix ~prefix:"mut:bar-ins" h
         || has_prefix ~prefix:"mut:root-mark" h)
  then { d with m_mark = mark_regs0 }
  else d

let canon_gc h (g : gc_data) =
  let g =
    if (not (is_mark_regs0 g.g_mark)) && not (has_prefix ~prefix:"gc:mark:" h) then
      { g with g_mark = mark_regs0 }
    else g
  in
  (* g_ref: read by the sweep's flag load and free request closures and
     by free_only_garbage (which only fires at gc:free) *)
  let g =
    if
      Option.is_some g.g_ref
      && not (String.equal h "gc:sweep-load-flag" || String.equal h "gc:free")
    then { g with g_ref = None }
    else g
  in
  (* g_flag / g_any_pending: consumed by If/While tests, which are
     definite taus — never live at a normal-form rest point *)
  let g = if g.g_flag then { g with g_flag = false } else g in
  let g = if g.g_any_pending then { g with g_any_pending = false } else g in
  (* g_hs_m: live only at the signal request inside the signal loop *)
  if g.g_hs_m <> 0 && not (has_suffix ~suffix:":signal" h) then { g with g_hs_m = 0 }
  else g

(* -- pid renaming of the Sys data ------------------------------------------

   [perm] maps old pid to new pid (identity outside the mutators).  The
   software-pid-indexed lists (buffers, work-lists, ghg) move with it
   directly — software pids coincide with process pids for the collector
   and the mutators — and the mutator-indexed handshake lists move with
   its restriction m -> perm (m+1) - 1. *)

(* Does moving each element [j] of [l] to index [permi j] leave
   physically equal elements everywhere?  Then the renamed list is [l]. *)
let rec moves_equal permi l j = function
  | [] -> true
  | x :: rest -> List.nth l (permi j) == x && moves_equal permi l (j + 1) rest

let permute_idx permi l =
  if moves_equal permi l 0 l then l
  else begin
    let out = Array.of_list l in
    List.iteri (fun j x -> out.(permi j) <- x) l;
    Array.to_list out
  end

(* [sd] itself when the renaming moves only equal slices: the canonical
   fingerprint renames the Sys payload of every state the sort permutes,
   only to hash it.  In perfbench's closure unit a third of those
   payloads (21,090 of 61,944) come back unmoved, and not copying them
   saves 131 of 1,258 minor words per state.  test_reduce holds the
   result to the copying renaming. *)
let rename_sys ~perm sd =
  let perm_m m = perm (m + 1) - 1 in
  let bufs = permute_idx perm sd.s_bufs
  and w = permute_idx perm sd.s_W
  and ghg = permute_idx perm sd.s_ghg
  and pending = permute_idx perm_m sd.s_hs_pending
  and hs_done = permute_idx perm_m sd.s_hs_done
  and mut_hs = permute_idx perm_m sd.s_hs_mut_hs
  and lock = match sd.s_lock with Some p when perm p <> p -> Some (perm p) | l -> l in
  if
    bufs == sd.s_bufs && w == sd.s_W && ghg == sd.s_ghg && pending == sd.s_hs_pending
    && hs_done == sd.s_hs_done && mut_hs == sd.s_hs_mut_hs && lock == sd.s_lock
  then sd
  else
    {
      sd with
      s_bufs = bufs;
      s_W = w;
      s_ghg = ghg;
      s_hs_pending = pending;
      s_hs_done = hs_done;
      s_hs_mut_hs = mut_hs;
      s_lock = lock;
    }

(* -- the canonical mutator order ---------------------------------------------

   Mutators [p] and [q] are ordered lexicographically on seven
   components: control spine, canonical local data, store buffer,
   work-list, honorary grey, handshake triple (pending bit, done bit,
   type of the last completed round) and whether it holds the TSO lock.
   Each comparison is the polymorphic [compare] of the component (the
   spines' by label name, which is how [compare] orders labels), so the
   order is exactly [compare] on the tuple of the seven: test_reduce
   holds it to that tuple on sampled states, because every orbit
   representative, and so every reduced count and certificate, rests on
   it.  Nothing is allocated. *)

let holds_lock sd p = match sd.s_lock with Some l -> l = p | None -> false

let compare_muts cfg sys ~canon p q =
  let c =
    Cimp.Com.compare_spines (Cimp.System.proc sys p).Cimp.Com.stack
      (Cimp.System.proc sys q).Cimp.Com.stack
  in
  if c <> 0 then c
  else
    let c = compare (mut canon.(p)) (mut canon.(q)) in
    if c <> 0 then c
    else
      let sd = Model.sys_data sys cfg in
      let c = compare (buf_of sd p) (buf_of sd q) in
      if c <> 0 then c
      else
        let c = compare (wl_of sd p) (wl_of sd q) in
        if c <> 0 then c
        else
          let c = compare (ghg_of sd p) (ghg_of sd q) in
          if c <> 0 then c
          else
            let m = p - 1 and m' = q - 1 in
            let c = Bool.compare (hs_bit sd m) (hs_bit sd m') in
            if c <> 0 then c
            else
              let c = Bool.compare (hs_done sd m) (hs_done sd m') in
              if c <> 0 then c
              else
                let c =
                  compare (List.nth sd.s_hs_mut_hs m : hs) (List.nth sd.s_hs_mut_hs m')
                in
                if c <> 0 then c else Bool.compare (holds_lock sd p) (holds_lock sd q)

(* -- the symmetry spec ------------------------------------------------------ *)

let spec cfg : (Types.req, Types.value, State.t) Reduce.Symmetry.spec =
  {
    Reduce.Symmetry.sym_pids = List.init cfg.Config.n_muts (Config.pid_mut cfg);
    canon_local =
      (fun _sys ~pid:_ ~stack d ->
        match d with
        | L_gc g ->
          let g' = canon_gc (head_name stack) g in
          if g' == g then d else L_gc g'
        | L_mut m ->
          let m' = canon_mut stack (head_name stack) m in
          if m' == m then d else L_mut m'
        | L_sys _ | L_regs _ -> d);
    compare_pids = compare_muts cfg;
    permute_ok =
      (* the handshake signal loop addresses mutators by index in a
         fixed order: inside it (exactly the <tag>:signal rest points)
         the permutation is not an automorphism, so skip it there *)
      (fun sys -> not (has_suffix ~suffix:":signal" (head_of sys Config.pid_gc)));
    rename_shared =
      (fun ~perm ~pid:_ d ->
        match d with
        | L_sys sd ->
          let sd' = rename_sys ~perm sd in
          if sd' == sd then d else L_sys sd'
        | L_gc _ | L_mut _ | L_regs _ -> d);
  }

(* -- the POR policy ---------------------------------------------------------

   Deferrable transitions are exactly the mfence rendezvous: every
   "...fence" request label in the model is a Req_mfence, which Sysproc
   answers only when the requester's buffer is empty, changing no Sys
   state — so when one is enabled it is its owner's whole enabled set,
   commutes exactly with every other process's transitions, and (with
   its requester-local normalization cascade) is invisible to the
   invariant catalogue. *)

let por_policy =
  {
    Reduce.Por.deferrable =
      (function
      | Cimp.System.Rendezvous { req_label; _ } ->
        has_suffix ~suffix:"fence" (Cimp.Label.name req_label)
      | Cimp.System.Tau _ -> false);
  }

(* -- reducer assembly ------------------------------------------------------- *)

let reducer cfg (mode : Reduce.Mode.t) :
    (Types.req, Types.value, State.t) Check.Reducer.t option =
  match mode with
  | None_ -> None
  | (Sym | Por | All) as mode ->
    let sym_permuted = Atomic.make 0 in
    let reg_nulled = Atomic.make 0 in
    let deferred = Atomic.make 0 in
    let sp = spec cfg in
    let canonical sys =
      let fp, permuted, nulled = Reduce.Symmetry.canonical_fingerprint sp sys in
      if permuted then Atomic.incr sym_permuted;
      if nulled then Atomic.incr reg_nulled;
      fp
    in
    let fingerprint =
      match mode with
      | Sym | All -> canonical
      | Por -> Check.Fingerprint.of_system
      | None_ -> assert false
    in
    let successors =
      match mode with
      | Por | All -> Reduce.Por.successors por_policy ~deferred
      | Sym -> Cimp.System.steps
      | None_ -> assert false
    in
    (* the executable representative matches the fingerprint's nulling:
       modes that dedup on the liveness-canonical fingerprint expand the
       nulled state, so the explored graph is the quotient graph and the
       visited class set is scheduling-independent (certificates depend
       on this); plain-fingerprint modes expand states unchanged *)
    let canon_state =
      match mode with
      | Sym | All -> Reduce.Symmetry.canon_state sp
      | Por -> Fun.id
      | None_ -> assert false
    in
    Some
      {
        Check.Reducer.name = Reduce.Mode.to_string mode;
        fingerprint;
        successors;
        canon_state;
        sym_permuted;
        reg_nulled;
        deferred;
      }

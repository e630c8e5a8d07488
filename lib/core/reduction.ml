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

(* The name of process [p]'s current label: the head label of its top
   frame. *)
let head_of sys p =
  match (Cimp.System.proc sys p).Cimp.Com.stack with
  | [] -> ""
  | c :: _ -> Cimp.Label.name (Cimp.Com.head_label c)

(* -- register liveness ------------------------------------------------------

   [canon_mut]/[canon_gc] null dead registers, returning the argument
   physically unchanged when no rule fires (Symmetry counts a state as
   "nulled" via [!=]).  [spine] is the process's label spine, [h] the
   name of its head (current) label.  The tests are typed (no polymorphic
   compare): they run on every fingerprinted state. *)

let is_mark_regs0 r =
  Option.is_none r.mk_ref && (not r.mk_fM) && (not r.mk_flag) && r.mk_phase = Ph_idle
  && not r.mk_winner

let canon_mut spine h (d : mut_data) =
  (* At the top of the op loop (spine = [hs-read]: the Choose over ops,
     whose first branch is the handshake) every op-scratch register is
     dead: each op writes its own scratch before reading it.  m_roots,
     m_ops and m_rooted genuinely carry across ops and stay. *)
  let at_op_loop =
    match spine with [ l ] -> String.equal (Cimp.Label.name l) "mut:hs-read" | _ -> false
  in
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
      && not (String.starts_with ~prefix:"mut:bar-del" h || String.equal h "mut:del-target")
    then { d with m_loaded = None }
    else d
  in
  (* mark registers: live only inside an inlined mark expansion *)
  if
    (not (is_mark_regs0 d.m_mark))
    && not
         (String.starts_with ~prefix:"mut:bar-del" h
         || String.starts_with ~prefix:"mut:bar-ins" h
         || String.starts_with ~prefix:"mut:root-mark" h)
  then { d with m_mark = mark_regs0 }
  else d

let canon_gc h (g : gc_data) =
  let g =
    if (not (is_mark_regs0 g.g_mark)) && not (String.starts_with ~prefix:"gc:mark:" h) then
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
  if g.g_hs_m <> 0 && not (String.ends_with ~suffix:":signal" h) then { g with g_hs_m = 0 }
  else g

(* -- pid renaming of the Sys data ------------------------------------------

   [perm] maps old pid to new pid (identity outside the mutators).  The
   software-pid-indexed lists (buffers, work-lists, ghg) move with it
   directly — software pids coincide with process pids for the collector
   and the mutators — and the mutator-indexed handshake lists move with
   its restriction m -> perm (m+1) - 1. *)

let permute_idx permi l =
  let out = Array.of_list l in
  List.iteri (fun j x -> out.(permi j) <- x) l;
  Array.to_list out

let rename_sys ~perm sd =
  let perm_m m = perm (m + 1) - 1 in
  {
    sd with
    s_bufs = permute_idx perm sd.s_bufs;
    s_W = permute_idx perm sd.s_W;
    s_ghg = permute_idx perm sd.s_ghg;
    s_hs_pending = permute_idx perm_m sd.s_hs_pending;
    s_hs_done = permute_idx perm_m sd.s_hs_done;
    s_hs_mut_hs = permute_idx perm_m sd.s_hs_mut_hs;
    s_lock = Option.map perm sd.s_lock;
  }

(* -- the symmetry spec ------------------------------------------------------ *)

let spec cfg : (Types.req, Types.value, State.t) Reduce.Symmetry.spec =
  {
    Reduce.Symmetry.sym_pids = List.init cfg.Config.n_muts (Config.pid_mut cfg);
    canon_local =
      (fun _sys ~pid:_ ~spine d ->
        let h = match spine with [] -> "" | l :: _ -> Cimp.Label.name l in
        match d with
        | L_gc g ->
          let g' = canon_gc h g in
          if g' == g then d else L_gc g'
        | L_mut m ->
          let m' = canon_mut spine h m in
          if m' == m then d else L_mut m'
        | L_sys _ | L_regs _ -> d);
    key =
      (fun sys ~pid ~spine ~canon ->
        let sd = Model.sys_data sys cfg in
        let m = pid - 1 in
        Stdlib.Obj.repr
          ( spine,
            mut canon,
            buf_of sd pid,
            wl_of sd pid,
            ghg_of sd pid,
            (hs_bit sd m, hs_done sd m, List.nth sd.s_hs_mut_hs m),
            sd.s_lock = Some pid ));
    permute_ok =
      (* the handshake signal loop addresses mutators by index in a
         fixed order: inside it (exactly the <tag>:signal rest points)
         the permutation is not an automorphism, so skip it there *)
      (fun sys -> not (String.ends_with ~suffix:":signal" (head_of sys Config.pid_gc)));
    rename_shared =
      (fun ~perm ~pid:_ d ->
        match d with L_sys sd -> L_sys (rename_sys ~perm sd) | L_gc _ | L_mut _ | L_regs _ -> d);
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
        String.ends_with ~suffix:"fence" (Cimp.Label.name req_label)
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

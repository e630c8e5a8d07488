(* The mutator process: a maximally non-deterministic choice among the
   operations of Fig. 6, a spontaneous MFENCE, and the mutator's side of
   the soft handshakes (Section 3.1, "Mutators").

   Every operation is free of GC-safe points: the handshake branch is only
   available at the top of the loop, so elemental operations (loads,
   stores with their barriers, allocation) cannot be interrupted by
   collector requests — though other processes still interleave freely.

   Any client of the collector is expected to refine this process, which
   assumes type safety but no data-race freedom: distinct mutators may race
   on the same fields with no synchronisation whatsoever. *)

open Types
open State
open Cimp.Com

let expect_bool = function V_bool b -> b | _ -> invalid_arg "Mutator: expected V_bool"
let expect_ref = function V_ref r -> r | _ -> invalid_arg "Mutator: expected V_ref"
let expect_hs = function V_hs (h, b) -> (h, b) | _ -> invalid_arg "Mutator: expected V_hs"

(* One program for every mutator slot: Sys learns which mutator asks
   from the rendezvous, so no request names it. *)
let process cfg : (req, value, State.t) Cimp.Com.t =
  let l n = Cimp.Label.v ("mut:" ^ n) in
  (* Operation budget for bounded exhaustive runs (Config.max_mut_ops).
     Handshaking is always free; heap operations spend budget. *)
  let budget_ok d = cfg.Config.max_mut_ops = 0 || d.m_ops < cfg.Config.max_mut_ops in
  let spend d = if cfg.Config.max_mut_ops = 0 then d else { d with m_ops = d.m_ops + 1 } in
  let req lbl r = Request (lbl, (fun _ -> r), fun _ s -> s) in
  (* the field an op picked: m_src.m_fld *)
  let read_picked s = Req_read (L_field (Option.get (mut s).m_src, (mut s).m_fld)) in
  let set_mark_target lbl target =
    assign lbl (fun s -> map_mut (fun d -> { d with m_mark = { d.m_mark with mk_ref = target (mut s) } }) s)
  in
  (* Load (Fig. 6): pick a root and a field, read the field (TSO), and adopt
     the loaded reference as a new root in the same atomic step (the
     operation is a single transition in the Isabelle model).  No read
     barrier — the paper's design treats mutator roots as black and relies
     on grey protection. *)
  let load_op =
    seq
      [
        Local_op
          ( l "load-choose",
            fun s ->
              let d = mut s in
              if not (budget_ok d) then []
              else
                List.concat_map
                  (fun src ->
                    List.init cfg.Config.n_fields (fun f ->
                        map_mut (fun d -> spend { d with m_src = Some src; m_fld = f }) s))
                  d.m_roots );
        Request
          ( l "load-field",
            read_picked,
            fun v s ->
              map_mut
                (fun d ->
                  match expect_ref v with
                  | None -> d
                  | Some r -> { d with m_roots = Iset.add r d.m_roots })
                s );
      ]
  in
  (* Store (Fig. 6): pick dst, src in roots and a field; run the deletion
     barrier on the field's current value, the insertion barrier on dst,
     then issue the store (TSO-buffered). *)
  (* The [elide-barrier] mutations skip one barrier instance while leaving
     the configuration flags (and so the invariant guards) untouched: the
     auxiliary invariants stay armed and indict the missing barrier. *)
  let deletion_on = cfg.Config.deletion_barrier && not (Config.barrier_elided cfg "del") in
  let insertion_on = cfg.Config.insertion_barrier && not (Config.barrier_elided cfg "ins") in
  let deletion_barrier =
    if deletion_on then
      seq
        [
          set_mark_target (l "del-target") (fun d -> d.m_loaded);
          Mark.code cfg ~prefix:(l "bar-del") Mark.mut_lens;
        ]
    else Skip (l "no-del-barrier")
  in
  let insertion_barrier =
    if insertion_on then begin
      let body =
        seq
          [
            set_mark_target (l "ins-target") (fun d -> d.m_dst);
            Mark.code cfg ~prefix:(l "bar-ins") Mark.mut_lens;
          ]
      in
      if cfg.Config.insertion_skip_after_roots then
        (* O2: the extra branch — skip the insertion barrier once this
           mutator's roots have been sampled this cycle. *)
        If (l "ins-rooted-test", (fun s -> (mut s).m_rooted), Skip (l "ins-skipped"), body)
      else body
    end
    else Skip (l "no-ins-barrier")
  in
  let store_op =
    let choose =
      Local_op
        ( l "store-choose",
          fun s ->
            let d = mut s in
            if not (budget_ok d) then []
            else
              List.concat_map
                (fun src ->
                  List.concat_map
                    (fun dst ->
                      List.init cfg.Config.n_fields (fun f ->
                          map_mut
                            (fun d -> spend { d with m_src = Some src; m_dst = Some dst; m_fld = f })
                            s))
                    d.m_roots)
                d.m_roots )
    in
    (* Fig. 6 line 8's mark(src.fld, Wm) needs src.fld's current value: the
       deletion barrier loads it (TSO) but does *not* adopt it as a root —
       while the barrier runs, the reference is protected only by the
       register and the ghost honorary grey (Section 3.2). *)
    let load_old =
      Request
        ( l "store-load-old",
          read_picked,
          fun v s -> map_mut (fun d -> { d with m_loaded = expect_ref v }) s )
    in
    let write =
      Request
        ( l "store-write",
          (fun s ->
            let d = mut s in
            Req_write (W_field (Option.get d.m_src, d.m_fld, d.m_dst))),
          fun _ s -> s )
    in
    seq
      ([ choose ]
      @ (if deletion_on then [ load_old; deletion_barrier ] else [])
      @ [ insertion_barrier; write ])
  in
  (* Alloc (Fig. 6): load f_A (TSO), then the paper's atomic allocation,
     which installs the object and adopts the new reference as a root in
     one step.  [alloc_white] ablates the allocate-black rule by
     installing the opposite mark. *)
  let alloc_op =
    seq
      [
        Local_op (l "alloc-budget", fun s ->
            let d = mut s in
            if budget_ok d then [ map_mut spend s ] else []);
        Request
          ( l "alloc-load-fA",
            (fun _ -> Req_read L_fA),
            fun v s -> map_mut (fun d -> { d with m_fA = expect_bool v }) s );
        Request
          ( l "alloc",
            (fun s ->
              let d = mut s in
              let color = if cfg.Config.alloc_white then not d.m_fA else d.m_fA in
              Req_alloc (if Config.alloc_flipped cfg then not color else color)),
            fun v s ->
              map_mut
                (fun d ->
                  match expect_ref v with
                  | None -> d (* heap exhausted *)
                  | Some r -> { d with m_roots = Iset.add r d.m_roots })
                s );
      ]
  in
  (* Discard (Fig. 6): drop any root. *)
  let discard_op =
    Local_op
      ( l "discard",
        fun s ->
          let d = mut s in
          if not (budget_ok d) then []
          else
            List.map
              (fun r -> map_mut (fun d -> spend { d with m_roots = Iset.remove r d.m_roots }) s)
              d.m_roots )
  in
  let mfence_op =
    seq
      [
        Local_op (l "mfence-budget", fun s ->
            let d = mut s in
            if budget_ok d then [ map_mut spend s ] else []);
        req (l "mfence") Req_mfence;
      ]
  in
  (* The mutator's side of a handshake (Figs. 3 and 4): at a GC-safe point,
     poll the pending bit; if raised, fence, do the round's work, fence,
     and lower the bit.  get-roots marks and transfers the roots
     (Fig. 2 lines 16-20); get-work transfers the work-list (lines 32-34). *)
  let fence lbl =
    if cfg.Config.handshake_fences && not (Config.fence_dropped cfg (Cimp.Label.name lbl)) then
      req lbl Req_mfence
    else Skip lbl
  in
  let mark_roots =
    seq
      [
        assign (l "roots-todo") (map_mut (fun d -> { d with m_todo = d.m_roots }));
        While
          ( l "roots-loop",
            (fun s -> (mut s).m_todo <> []),
            seq
              [
                assign (l "roots-next") (map_mut (fun d ->
                    match d.m_todo with
                    | r :: rest -> { d with m_mark = { d.m_mark with mk_ref = Some r }; m_todo = rest }
                    | [] -> invalid_arg "Mutator: empty todo"));
                Mark.code cfg ~prefix:(l "root-mark") Mark.mut_lens;
              ] );
      ]
  in
  let hs_work =
    seq
      [
        If
          ( l "hs-roots-test",
            (fun s -> (mut s).m_hs_type = Hs_get_roots),
            seq
              [
                mark_roots;
                req (l "hs-roots-transfer") Req_wl_transfer;
                assign (l "hs-rooted") (map_mut (fun d -> { d with m_rooted = true }));
              ],
            Skip (l "hs-not-roots") );
        If
          ( l "hs-work-test",
            (fun s -> (mut s).m_hs_type = Hs_get_work),
            req (l "hs-work-transfer") Req_wl_transfer,
            Skip (l "hs-not-work") );
        If
          ( l "hs-nop1-test",
            (fun s -> (mut s).m_hs_type = Hs_nop1),
            assign (l "hs-unrooted") (map_mut (fun d -> { d with m_rooted = false })),
            Skip (l "hs-not-nop1") );
      ]
  in
  let handshake_op =
    seq
      [
        Request
          ( l "hs-read",
            (fun _ -> Req_hs_read),
            fun v s ->
              let h, b = expect_hs v in
              map_mut (fun d -> { d with m_hs_type = h; m_hs_pending = b }) s );
        If
          ( l "hs-pending-test",
            (fun s -> (mut s).m_hs_pending),
            seq [ fence (l "hs-load-fence"); hs_work; fence (l "hs-store-fence"); req (l "hs-done") Req_hs_done ],
            Skip (l "hs-nothing") );
      ]
  in
  let branches =
    [ handshake_op ]
    @ (if cfg.Config.mut_load then [ load_op ] else [])
    @ (if cfg.Config.mut_store then [ store_op ] else [])
    @ (if cfg.Config.mut_alloc then [ alloc_op ] else [])
    @ (if cfg.Config.mut_discard then [ discard_op ] else [])
    @ if cfg.Config.mut_mfence then [ mfence_op ] else []
  in
  Loop (Choose branches)

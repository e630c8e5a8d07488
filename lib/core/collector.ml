(* The collector process: a direct transcription of Fig. 2 into CIMP
   (compare the paper's Fig. 10 excerpt of the marking loop).

   The collector is a non-terminating control loop; each iteration is one
   mark-sweep cycle.  Scheduling decisions (when to trigger a collection)
   are omitted, as in the paper.  The collector owns f_M and f_A and keeps
   f_M's value in its local state; every shared-variable access goes
   through Sys and is subject to TSO. *)

open Types
open State
open Cimp.Com

let expect_bool = function V_bool b -> b | _ -> invalid_arg "Collector: expected V_bool"
let expect_ref = function V_ref r -> r | _ -> invalid_arg "Collector: expected V_ref"
let expect_refs = function V_refs rs -> rs | _ -> invalid_arg "Collector: expected V_refs"

let req l r = Request (l, (fun _ -> r), fun _ s -> s)

(* One round of soft handshakes (Fig. 4): optional store fence, announce the
   round type, raise every mutator's bit in order, poll until all bits
   drop, optional load fence.  The fences are the four the paper requires
   of the pthread primitives (Section 2.4); [handshake_fences = false]
   ablates them. *)
let handshake cfg (h : hs) =
  let tag =
    match h with
    | Hs_nop1 -> "hs1"
    | Hs_nop2 -> "hs2"
    | Hs_nop3 -> "hs3"
    | Hs_nop4 -> "hs4"
    | Hs_get_roots -> "hs-roots"
    | Hs_get_work -> "hs-work"
  in
  let l n = Cimp.Label.v ("gc:" ^ tag ^ ":" ^ n) in
  let fence lbl =
    if cfg.Config.handshake_fences && not (Config.fence_dropped cfg (Cimp.Label.name lbl)) then
      req lbl Req_mfence
    else Skip lbl
  in
  (* The [skip-hs-wait] mutation signals the round but rushes past the
     acknowledgement poll: the rendezvous degenerates to a broadcast. *)
  let wait =
    if Config.hs_wait_skipped cfg tag then Skip (l "wait-skipped")
    else
      seq
        [
          assign (l "pending0") (map_gc (fun d -> { d with g_any_pending = true }));
          While
            ( l "poll-loop",
              (fun s -> (gc s).g_any_pending),
              Request
                ( l "poll",
                  (fun _ -> Req_hs_poll),
                  fun v s -> map_gc (fun d -> { d with g_any_pending = expect_bool v }) s ) );
        ]
  in
  seq
    [
      fence (l "store-fence");
      req (l "begin") (Req_hs_begin h);
      assign (l "m0") (map_gc (fun d -> { d with g_hs_m = 0 }));
      While
        ( l "signal-loop",
          (fun s -> (gc s).g_hs_m < cfg.Config.n_muts),
          seq
            [
              Request (l "signal", (fun s -> Req_hs_set (gc s).g_hs_m), fun _ s -> s);
              assign (l "m++") (map_gc (fun d -> { d with g_hs_m = d.g_hs_m + 1 }));
            ] );
      wait;
      fence (l "load-fence");
    ]

let process cfg : (req, value, State.t) Cimp.Com.t =
  let l n = Cimp.Label.v ("gc:" ^ n) in
  let wl_empty lbl =
    Request
      (lbl, (fun _ -> Req_wl_empty), fun v s -> map_gc (fun d -> { d with g_w_empty = expect_bool v }) s)
  in
  let wl_pick lbl =
    Request
      (lbl, (fun _ -> Req_wl_pick), fun v s -> map_gc (fun d -> { d with g_src = expect_ref v }) s)
  in
  let the_src s = match (gc s).g_src with Some r -> r | None -> invalid_arg "Collector: no src" in
  (* Scan one grey object: mark the target of each of its fields in turn,
     then blacken it (Fig. 2 lines 27-30). *)
  let scan_src =
    seq
      [
        assign (l "fld0") (map_gc (fun d -> { d with g_fld = 0 }));
        While
          ( l "fld-loop",
            (fun s -> (gc s).g_fld < cfg.Config.n_fields),
            seq
              [
                Request
                  ( l "load-field",
                    (fun s -> Req_read (L_field (the_src s, (gc s).g_fld))),
                    fun v s ->
                      map_gc (fun d -> { d with g_mark = { d.g_mark with mk_ref = expect_ref v } }) s );
                Mark.code cfg ~prefix:(l "mark") Mark.gc_lens;
                assign (l "fld++") (map_gc (fun d -> { d with g_fld = d.g_fld + 1 }));
              ] );
        Request (l "blacken", (fun s -> Req_wl_remove (the_src s)), fun _ s -> s);
      ]
  in
  (* Fig. 2 lines 24-34: drain W, then a termination handshake; repeat while
     the handshake recovers work. *)
  let mark_loop =
    seq
      [
        wl_empty (l "w-empty-init");
        While
          ( l "mark-outer",
            (fun s -> not (gc s).g_w_empty),
            seq
              [
                wl_pick (l "pick-first");
                While
                  ( l "mark-inner",
                    (fun s -> (gc s).g_src <> None),
                    seq [ scan_src; wl_pick (l "pick-next") ] );
                handshake cfg Hs_get_work;
                wl_empty (l "w-empty");
              ] );
      ]
  in
  (* Fig. 2 lines 37-45: snapshot the heap domain and free the whites. *)
  let sweep =
    seq
      [
        req (l "phase-sweep") (Req_write (W_phase Ph_sweep));
        Request
          ( l "snapshot",
            (fun _ -> Req_heap_snapshot),
            fun v s -> map_gc (fun d -> { d with g_sweep = expect_refs v }) s );
        While
          ( l "sweep-loop",
            (fun s -> (gc s).g_sweep <> []),
            seq
              [
                assign (l "sweep-next") (map_gc (fun d ->
                    match d.g_sweep with
                    | r :: rest -> { d with g_ref = Some r; g_sweep = rest }
                    | [] -> invalid_arg "Collector: empty sweep list"));
                Request
                  ( l "sweep-load-flag",
                    (fun s -> Req_read (L_mark (Option.get (gc s).g_ref))),
                    fun v s -> map_gc (fun d -> { d with g_flag = expect_bool v }) s );
                If
                  ( l "sweep-test",
                    (fun s -> (gc s).g_flag <> (gc s).g_fM),
                    Request (l "free", (fun s -> Req_free (Option.get (gc s).g_ref)), fun _ s -> s),
                    Skip (l "sweep-live") );
              ] );
      ]
  in
  let init_handshakes =
    (* O1 (Section 4, Observations): the two middle initialization rounds
       can purportedly be elided on x86-TSO; with [skip_init_handshakes]
       the control-variable writes still happen, in order, but only the
       final round communicates them. *)
    if cfg.Config.skip_init_handshakes then
      [
        assign (l "flip-fM") (map_gc (fun d -> { d with g_fM = not d.g_fM }));
        Request (l "write-fM", (fun s -> Req_write (W_fM (gc s).g_fM)), fun _ s -> s);
        req (l "phase-init") (Req_write (W_phase Ph_init));
        req (l "phase-mark") (Req_write (W_phase Ph_mark));
        Request (l "write-fA", (fun s -> Req_write (W_fA (gc s).g_fM)), fun _ s -> s);
        handshake cfg Hs_nop4;
      ]
    else
      [
        assign (l "flip-fM") (map_gc (fun d -> { d with g_fM = not d.g_fM }));
        Request (l "write-fM", (fun s -> Req_write (W_fM (gc s).g_fM)), fun _ s -> s);
        handshake cfg Hs_nop2;
        req (l "phase-init") (Req_write (W_phase Ph_init));
        handshake cfg Hs_nop3;
        req (l "phase-mark") (Req_write (W_phase Ph_mark));
        Request (l "write-fA", (fun s -> Req_write (W_fA (gc s).g_fM)), fun _ s -> s);
        handshake cfg Hs_nop4;
      ]
  in
  let cycle_body =
    seq
      ([ handshake cfg Hs_nop1 ]  (* lines 3-4: all mutators see Idle *)
      @ init_handshakes
      @ [ handshake cfg Hs_get_roots ]  (* lines 15-20 *)
      @ [ mark_loop ]
      @ [ sweep ]
      @ [ req (l "phase-idle") (Req_write (W_phase Ph_idle)) ])
  in
  if cfg.Config.max_cycles = 0 then Loop cycle_body
  else
    (* Bounded variant for exhaustive runs: k cycles, then halt.  The
       paper's collector is the k = 0 everlasting loop. *)
    seq
      [
        While
          ( l "cycle-loop",
            (fun s -> (gc s).g_cycles < cfg.Config.max_cycles),
            seq [ cycle_body; assign (l "cycle++") (map_gc (fun d -> { d with g_cycles = d.g_cycles + 1 })) ]
          );
        Skip (l "halted");
      ]

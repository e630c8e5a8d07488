(* The mark operation of Fig. 5, as a CIMP code template.

   mark(ref, w) is inlined at each use site (CIMP has no procedures, and
   neither does the Isabelle model); [code] generates one expansion with
   fresh labels under [prefix].  The caller deposits the reference to mark
   in the process's mark registers (mk_ref; None means "nothing to mark",
   covering NULL fields) before the expansion runs.

   The sequence is modelled at the paper's granularity:

     load f_M                         (line 2; expected = not f_M)
     load flag(ref)                   (line 3)
     if flag = expected then
       load phase                     (line 4)
       if phase <> Idle then
         lock                         (line 5: LOCK'd CMPXCHG begins)
         load flag(ref)               (line 6)
         if flag = expected then
           winner := true             (line 7)
           store flag(ref) := f_M     (line 8, ghost_honorary_grey := ref)
         else winner := false         (lines 10-11)
         unlock                       (CAS retires; buffer must drain)
         if winner then w := w u {ref}  (lines 12-13, ghg := null)

   Note the store at line 8 uses the f_M value loaded at line 2 — f_M may
   flip after the load, one of the races the invariants must absorb
   (Section 3.2 "Marking").  With [cas_mark = false] (ablation) the
   lock/unlock pair is omitted, so two markers can both win the race and
   grey the same object twice, violating valid_W_inv's disjointness. *)

open Types
open State
open Cimp.Com

type lens = { get : State.t -> mark_regs; set : mark_regs -> State.t -> State.t }

let gc_lens =
  {
    get = (fun s -> (gc s).g_mark);
    set = (fun r s -> map_gc (fun d -> { d with g_mark = r }) s);
  }

let mut_lens =
  {
    get = (fun s -> (mut s).m_mark);
    set = (fun r s -> map_mut (fun d -> { d with m_mark = r }) s);
  }

let code cfg ~prefix (lens : lens) : (req, value, State.t) Cimp.Com.t =
  let prefix = Cimp.Label.name prefix in
  let l n = Cimp.Label.v (prefix ^ ":" ^ n) in
  let regs = lens.get in
  let the_ref s =
    match (regs s).mk_ref with Some r -> r | None -> invalid_arg "Mark.code: no target"
  in
  let expect_bool = function V_bool b -> b | _ -> invalid_arg "Mark.code: expected V_bool" in
  let expect_phase = function V_phase p -> p | _ -> invalid_arg "Mark.code: expected V_phase" in
  let load_fM =
    Request
      ( l "load-fM",
        (fun _ -> Req_read L_fM),
        fun v s -> lens.set { (regs s) with mk_fM = expect_bool v } s )
  in
  let load_flag lbl =
    Request
      ( lbl,
        (fun s -> Req_read (L_mark (the_ref s))),
        fun v s -> lens.set { (regs s) with mk_flag = expect_bool v } s )
  in
  let load_phase =
    Request
      ( l "load-phase",
        (fun _ -> Req_read L_phase),
        fun v s -> lens.set { (regs s) with mk_phase = expect_phase v } s )
  in
  let unmarked s = (regs s).mk_flag <> (regs s).mk_fM in
  let set_winner lbl b = assign lbl (fun s -> lens.set { (regs s) with mk_winner = b } s) in
  let store_mark =
    (* line 8 + its ghost annotation, one rendezvous *)
    Request
      ( l "cas-store",
        (fun s -> Req_write_ghg (W_mark (the_ref s, (regs s).mk_fM), the_ref s)),
        fun _ s -> s )
  in
  let wl_add = Request (l "wl-add", (fun s -> Req_wl_add (the_ref s)), fun _ s -> s) in
  let lock = Request (l "lock", (fun _ -> Req_lock), fun _ s -> s) in
  let unlock = Request (l "unlock", (fun _ -> Req_unlock), fun _ s -> s) in
  let cas_core =
    seq
      [
        load_flag (l "cas-load-flag");
        If (l "cas-test", unmarked, seq [ set_winner (l "cas-win") true; store_mark ], set_winner (l "cas-lose") false);
      ]
  in
  (* The [weaken-cas] mutation unlocks ONE expansion (this one, if the
     prefix matches) while every other marker keeps the LOCK — a finer
     probe than the cas_mark ablation, which unlocks them all. *)
  let cas =
    if cfg.Config.cas_mark && not (Config.cas_weakened cfg prefix) then
      seq [ lock; cas_core; unlock ]
    else cas_core
  in
  let attempt =
    seq
      [
        load_phase;
        If
          ( l "phase-test",
            (fun s -> (regs s).mk_phase <> Ph_idle),
            seq
              [
                cas;
                If (l "win-test", (fun s -> (regs s).mk_winner), wl_add, Skip (l "lost"));
              ],
            Skip (l "phase-idle") );
      ]
  in
  If
    ( l "null-test",
      (fun s -> (regs s).mk_ref = None),
      Skip (l "null"),
      seq
        ((* [swap-mark-loads]: read the flag before f_M, reversing Fig. 5
            lines 2-3 for this expansion only. *)
         (if Config.mark_loads_swapped cfg prefix then [ load_flag (l "load-flag"); load_fM ]
          else [ load_fM; load_flag (l "load-flag") ])
        @ [ If (l "flag-test", unmarked, attempt, Skip (l "already-marked")) ]) )

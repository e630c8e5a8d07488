(* Shared vocabulary of the collector model (Sections 2 and 3.1).

   All data here is canonical plain data (ints, bools, lists, variants) so
   that whole global states can be fingerprinted with polymorphic hashing by
   the checker. *)

type rf = Gcheap.Obj.rf
type fld = Gcheap.Obj.fld

(* Collector phases, as communicated through the [phase] control variable
   (Fig. 2; Fig. 3 collapses Mark and Sweep into "MarkSweep" for the
   mutators' view). *)
type phase = Ph_idle | Ph_init | Ph_mark | Ph_sweep

let pp_phase ppf p =
  Fmt.string ppf (match p with Ph_idle -> "Idle" | Ph_init -> "Init" | Ph_mark -> "Mark" | Ph_sweep -> "Sweep")

(* Handshake types.  Figure 2 has four no-op rounds (lines 3-4, 6-7, 9-10,
   13-14), the root-marking round (15-20) and the mark-loop-termination
   rounds (31-34).  We keep the four no-ops distinct because the
   handshake-phase relation of Fig. 3 is indexed by them. *)
type hs = Hs_nop1 | Hs_nop2 | Hs_nop3 | Hs_nop4 | Hs_get_roots | Hs_get_work

let pp_hs ppf h =
  Fmt.string ppf
    (match h with
    | Hs_nop1 -> "nop1"
    | Hs_nop2 -> "nop2"
    | Hs_nop3 -> "nop3"
    | Hs_nop4 -> "nop4"
    | Hs_get_roots -> "get-roots"
    | Hs_get_work -> "get-work")

(* The handshake phases along the bottom of Fig. 3.  A process is "in"
   hp X between completing the handshake that initiates X and completing
   the next one. *)
type hp = Hp_idle | Hp_idle_init | Hp_init_mark | Hp_idle_mark_sweep

let pp_hp ppf h =
  Fmt.string ppf
    (match h with
    | Hp_idle -> "hp_Idle"
    | Hp_idle_init -> "hp_IdleInit"
    | Hp_init_mark -> "hp_InitMark"
    | Hp_idle_mark_sweep -> "hp_IdleMarkSweep")

let hp_of_hs = function
  | Hs_nop1 -> Hp_idle
  | Hs_nop2 -> Hp_idle_init
  | Hs_nop3 -> Hp_init_mark
  | Hs_nop4 | Hs_get_roots | Hs_get_work -> Hp_idle_mark_sweep

(* The handshake preceding [h] in the cycle; get-work also precedes nop1
   (cycle wrap) and itself (repeated termination rounds).  Used to place a
   mutator that has not yet completed the current round. *)
let hs_pred = function
  | Hs_nop1 -> Hs_get_work
  | Hs_nop2 -> Hs_nop1
  | Hs_nop3 -> Hs_nop2
  | Hs_nop4 -> Hs_nop3
  | Hs_get_roots -> Hs_nop4
  | Hs_get_work -> Hs_get_roots (* or a previous get-work: same hp *)

(* TSO-visible memory locations: the three collector control variables plus
   per-object mark flags and reference fields (Section 3.1 makes all of
   these subject to TSO). *)
type loc = L_fA | L_fM | L_phase | L_mark of rf | L_field of rf * fld

let pp_loc ppf = function
  | L_fA -> Fmt.string ppf "fA"
  | L_fM -> Fmt.string ppf "fM"
  | L_phase -> Fmt.string ppf "phase"
  | L_mark r -> Fmt.pf ppf "mark(%d)" r
  | L_field (r, f) -> Fmt.pf ppf "%d.f%d" r f

(* Buffered write actions (the contents of TSO store buffers). *)
type write =
  | W_fA of bool
  | W_fM of bool
  | W_phase of phase
  | W_mark of rf * bool
  | W_field of rf * fld * rf option

let loc_of_write = function
  | W_fA _ -> L_fA
  | W_fM _ -> L_fM
  | W_phase _ -> L_phase
  | W_mark (r, _) -> L_mark r
  | W_field (r, f, _) -> L_field (r, f)

let pp_write ppf = function
  | W_fA b -> Fmt.pf ppf "fA:=%b" b
  | W_fM b -> Fmt.pf ppf "fM:=%b" b
  | W_phase p -> Fmt.pf ppf "phase:=%a" pp_phase p
  | W_mark (r, b) -> Fmt.pf ppf "mark(%d):=%b" r b
  | W_field (r, f, v) ->
    Fmt.pf ppf "%d.f%d:=%a" r f (Fmt.option ~none:(Fmt.any "null") Fmt.int) v

(* Values travelling back from Sys to a requester. *)
type value =
  | V_unit
  | V_bool of bool
  | V_phase of phase
  | V_ref of rf option
  | V_refs of rf list
  | V_hs of hs * bool  (* handshake type, pending? *)

(* Requests to the Sys process.  Fig. 9's requests are pairs (p, ro-...);
   here the rendezvous rule hands Sys the requester's pid (Cimp.Com's
   Response), so a request names no process and every mutator runs one
   program. *)
type req =
  | Req_read of loc
  | Req_write of write
  | Req_mfence
  | Req_lock
  | Req_unlock
  | Req_alloc of bool  (* the mark to install, loaded from fA beforehand *)
  | Req_free of rf
  | Req_hs_begin of hs  (* collector: announce round type *)
  | Req_hs_set of int  (* collector: set mutator m's pending bit *)
  | Req_hs_poll  (* collector: V_bool(any bit still pending) *)
  | Req_hs_read  (* mutator: V_hs(type, own bit) *)
  | Req_hs_done  (* mutator: clear own bit *)
  | Req_wl_add of rf  (* add to caller's work-list; clears caller's ghg *)
  | Req_wl_transfer  (* mutator: W <- W u Wm, Wm <- empty *)
  | Req_wl_pick  (* collector: V_ref(some element of W), no removal *)
  | Req_wl_remove of rf  (* collector: W <- W minus {ref} (blacken) *)
  | Req_wl_empty  (* collector: V_bool(W = empty) *)
  | Req_write_ghg of write * rf
    (* the marking store of Fig. 5 line 8: buffer the mark write and set the
       caller's ghost_honorary_grey in one step, as the Isabelle model
       attaches the ghost assignment to the store *)
  | Req_heap_snapshot  (* collector sweep: V_refs(domain of heap) *)

let pp_req ppf = function
  | Req_read l -> Fmt.pf ppf "read %a" pp_loc l
  | Req_write w -> Fmt.pf ppf "write %a" pp_write w
  | Req_mfence -> Fmt.string ppf "mfence"
  | Req_lock -> Fmt.string ppf "lock"
  | Req_unlock -> Fmt.string ppf "unlock"
  | Req_alloc m -> Fmt.pf ppf "alloc(mark=%b)" m
  | Req_free r -> Fmt.pf ppf "free %d" r
  | Req_hs_begin h -> Fmt.pf ppf "hs-begin %a" pp_hs h
  | Req_hs_set m -> Fmt.pf ppf "hs-set mut%d" m
  | Req_hs_poll -> Fmt.string ppf "hs-poll"
  | Req_hs_read -> Fmt.string ppf "hs-read"
  | Req_hs_done -> Fmt.string ppf "hs-done"
  | Req_wl_add r -> Fmt.pf ppf "wl-add %d" r
  | Req_wl_transfer -> Fmt.string ppf "wl-transfer"
  | Req_wl_pick -> Fmt.string ppf "wl-pick"
  | Req_wl_remove r -> Fmt.pf ppf "wl-remove %d" r
  | Req_wl_empty -> Fmt.string ppf "wl-empty"
  | Req_write_ghg (w, r) -> Fmt.pf ppf "write %a [ghg := %d]" pp_write w r
  | Req_heap_snapshot -> Fmt.string ppf "heap-snapshot"

(* -- Small sorted-set helpers over int lists ------------------------------ *)

module Iset = struct
  let add x s = if List.mem x s then s else List.sort compare (x :: s)
  let remove x s = List.filter (fun y -> y <> x) s
  let mem = List.mem
  let union a b = List.fold_left (fun s x -> add x s) a b
end

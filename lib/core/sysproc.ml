(* The Sys process (Fig. 9, extended): it encapsulates the x86-TSO memory
   system, allocation, the handshake bits, the work-lists and the ghost
   state — "the variables that the run-time system designers consider to be
   global reside here" (Section 3.1).

   Sys is reactive: an everlasting external choice between answering one
   request and committing one buffered write (the only internal transition,
   Fig. 9's sys-dequeue-write-buffer).  A request that cannot currently be
   served (lock held, full buffer, non-empty buffer at a fence) simply has
   no response transitions, which blocks the requester until the state
   changes — CIMP rendezvous gives us Fig. 9's side conditions for free. *)

open Types
open State

type com = (req, value, State.t) Cimp.Com.t

(* Commit a write to memory, recording a dangling commit. *)
let commit sd w =
  let mem', ok = do_write sd.s_mem w in
  { sd with s_mem = mem'; s_dangling = sd.s_dangling || not ok }

(* Apply a write for process p: buffered under TSO and PSO; under the SC
   baseline committed at once, so, like any commit, only while no other
   process holds the lock.  [ghg] optionally sets p's ghost honorary grey
   in the same step (the Fig. 5 marking store). *)
let apply_write cfg sd p w ~ghg =
  let sd = match ghg with None -> sd | Some r -> set_ghg sd p (Some r) in
  match cfg.Config.memory with
  | Config.SC -> if not_blocked sd p then Some (commit sd w) else None
  | Config.TSO | Config.PSO ->
    if List.length (buf_of sd p) < cfg.Config.buf_bound then
      Some (set_buf sd p (buf_of sd p @ [ w ]))
    else None (* buffer full: requester waits (bounded-buffer discipline) *)

(* Answer [req] from process [p], whom the rendezvous names. *)
let respond cfg p req (s : State.t) : (State.t * value) list =
  let sd = sys s in
  let ret sd' v = [ (L_sys sd', v) ] in
  let blocked = not (not_blocked sd p) in
  match req with
  | Req_read loc ->
    if blocked then []
    else begin
      let v, ok = read sd p loc in
      ret { sd with s_dangling = sd.s_dangling || not ok } v
    end
  | Req_write w -> (
    match apply_write cfg sd p w ~ghg:None with Some sd' -> ret sd' V_unit | None -> [])
  | Req_write_ghg (w, r) -> (
    match apply_write cfg sd p w ~ghg:(Some r) with Some sd' -> ret sd' V_unit | None -> [])
  | Req_mfence -> if buf_of sd p = [] then ret sd V_unit else []
  | Req_lock -> if sd.s_lock = None then ret { sd with s_lock = Some p } V_unit else []
  | Req_unlock ->
    if sd.s_lock = Some p && buf_of sd p = [] then ret { sd with s_lock = None } V_unit else []
  | Req_alloc mark ->
    (* The paper's coarsest abstraction: allocation atomically installs an
       initialised object at a non-deterministically chosen free reference.
       A full heap answers NULL rather than blocking the mutator forever. *)
    if blocked then []
    else begin
      match Gcheap.Heap.free_refs sd.s_mem.heap with
      | [] -> ret sd (V_ref None)
      | frs ->
        List.map
          (fun r ->
            let heap = Gcheap.Heap.alloc sd.s_mem.heap r ~mark in
            (L_sys { sd with s_mem = { sd.s_mem with heap } }, V_ref (Some r)))
          frs
    end
  | Req_free r ->
    (* Fig. 2 line 44: atomic removal from the heap domain. *)
    if blocked then []
    else begin
      let heap = Gcheap.Heap.free sd.s_mem.heap r in
      ret { sd with s_mem = { sd.s_mem with heap } } V_unit
    end
  | Req_hs_begin h ->
    ret { sd with s_hs_type = h; s_hs_done = List.map (fun _ -> false) sd.s_hs_done } V_unit
  | Req_hs_set m -> ret (set_hs_bit sd m true) V_unit
  | Req_hs_poll -> ret sd (V_bool (List.exists Fun.id sd.s_hs_pending))
  | Req_hs_read -> ret sd (V_hs (sd.s_hs_type, hs_bit sd (p - 1)))
  | Req_hs_done ->
    let m = p - 1 in
    let sd = set_hs_bit sd m false in
    let sd = set_hs_done sd m true in
    ret
      { sd with s_hs_mut_hs = List.mapi (fun i h -> if i = m then sd.s_hs_type else h) sd.s_hs_mut_hs }
      V_unit
  | Req_wl_add r ->
    (* Fig. 5 lines 12-14: the CAS winner greys the object on its own
       work-list and retires its ghost honorary grey. *)
    ret (set_ghg (set_wl sd p (Iset.add r (wl_of sd p))) p None) V_unit
  | Req_wl_transfer ->
    (* Fig. 2 lines 20/34: atomic W <- W u Wm; Wm <- empty. *)
    let sd' = set_wl (set_wl sd Config.pid_gc (Iset.union (wl_of sd Config.pid_gc) (wl_of sd p))) p [] in
    ret sd' V_unit
  | Req_wl_pick -> (
    (* Fig. 2 line 27: src <- r. r in W — a non-deterministic pick, without
       removal (the object stays grey until blackened at line 30). *)
    match wl_of sd Config.pid_gc with
    | [] -> ret sd (V_ref None)
    | refs -> List.map (fun r -> (L_sys sd, V_ref (Some r))) refs)
  | Req_wl_remove r -> ret (set_wl sd Config.pid_gc (Iset.remove r (wl_of sd Config.pid_gc))) V_unit
  | Req_wl_empty -> ret sd (V_bool (wl_of sd Config.pid_gc = []))
  | Req_heap_snapshot ->
    (* Fig. 2 line 38: refs <- heap. *)
    if blocked then [] else ret sd (V_refs (Gcheap.Heap.domain sd.s_mem.heap))

(* Fig. 9's only internal transition: commit a pending write of some
   unblocked software process — the oldest one under TSO; under the PSO
   extension, any write with no older write to the same location (coherence
   kept, cross-location order relaxed). *)
let dequeue cfg (s : State.t) : State.t list =
  let sd = sys s in
  let commits = ref [] in
  let commit_from p w rest = commits := L_sys (set_buf (commit sd w) p rest) :: !commits in
  for p = 0 to Config.n_software cfg - 1 do
    if not_blocked sd p then begin
      let buf = buf_of sd p in
      match cfg.Config.memory with
      | Config.PSO ->
        List.iteri
          (fun i w ->
            let loc = loc_of_write w in
            let older_same =
              List.exists (fun w' -> loc_of_write w' = loc) (List.filteri (fun j _ -> j < i) buf)
            in
            if not older_same then commit_from p w (List.filteri (fun j _ -> j <> i) buf))
          buf
      | Config.TSO | Config.SC -> (
        match buf with w :: rest -> commit_from p w rest | [] -> ())
    end
  done;
  !commits

let process cfg : com =
  Cimp.Com.Loop
    (Cimp.Com.Choose
       [
         Cimp.Com.Response (Cimp.Label.v "sys:respond", respond cfg);
         Cimp.Com.Local_op (Cimp.Label.v "sys:dequeue", dequeue cfg);
       ])

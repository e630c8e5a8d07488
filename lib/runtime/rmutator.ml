(* A concrete mutator handle: the operations of Fig. 6 with both write
   barriers compiled in, plus the GC-safe-point poll that services soft
   handshakes.

   Operations are barrier-complete and handshake-free, exactly as in the
   model: [poll] is only called between operations.

   Safety validation mirrors the headline theorem from the mutator's seat:
   every root carries the slot epoch observed when it was adopted, and a
   root whose object was freed (or freed and reused: the epoch catches the
   ABA case) is precisely a valid_refs_inv violation, reported via
   [Unsafe].  The audit's contract: each safe point reports exactly what a
   full scan of the roots would report if it ran at the instant the safe
   point reads [Rheap.frees_begun].  So a safe point rescans every root
   only when a free has begun since the last full scan, and otherwise
   checks just the roots adopted since the previous safe point (DESIGN.md
   §13, "Root audit"). *)

open Rshared

exception Unsafe of string

type t = {
  id : int;
  sh : Rshared.t;
  mutable roots : Rheap.rf list;  (* newest first *)
  rooted : bool array;  (* per slot: is it in [roots] *)
  adopted_epoch : int array;  (* per rooted slot: its epoch when adopted *)
  mutable fresh : Rheap.rf list;  (* adopted since the previous safe point *)
  mutable audited_frees : int;
    (* [Rheap.frees] as read just before the last full scan; -1 before
       the first, so the first safe point scans *)
  mutable root_audits : int;  (* full scans done *)
  mutable wm : Rheap.rf list;  (* private work-list *)
  barriers : bool;  (* ablation switch for the barrier-overhead bench *)
  mutable ops : int;  (* statistics *)
  mutable saw_get_roots : bool;  (* set when poll services a get-roots round *)
  mutable stall_since_ns : int;
    (* start of the current free-list-empty episode; < 0 = not stalled.
       Set on the first failed alloc of an episode, cleared (recording
       the episode's duration) on the next success. *)
}

let make ?(barriers = true) sh id ~roots =
  if List.mem Rheap.null roots then invalid_arg "Rmutator.make: null root";
  let n_slots = sh.heap.Rheap.n_slots in
  let t =
    {
      id;
      sh;
      roots;
      rooted = Array.make n_slots false;
      adopted_epoch = Array.make n_slots 0;
      fresh = [];
      audited_frees = -1;
      root_audits = 0;
      wm = [];
      barriers;
      ops = 0;
      saw_get_roots = false;
      stall_since_ns = -1;
    }
  in
  List.iter
    (fun r ->
      t.rooted.(r) <- true;
      t.adopted_epoch.(r) <- Rheap.epoch sh.heap r)
    roots;
  t

let ops t = t.ops
let root_audits t = t.root_audits

let unsafe t fmt =
  Fmt.kstr
    (fun msg ->
      raise (Unsafe (Printf.sprintf "mutator %d (cycle %d): %s" t.id (Atomic.get t.sh.cycles) msg)))
    fmt

let root_refs t = t.roots

let check_root t r =
  if not (Rheap.is_allocated t.sh.heap r) then unsafe t "rooted reference %d was freed" r
  else if Rheap.epoch t.sh.heap r <> t.adopted_epoch.(r) then
    unsafe t "rooted reference %d was freed and reused" r

(* The headline check, from this mutator's perspective: all roots denote
   live, un-recycled objects.  Equal counters mean no free has begun
   since the last full scan started, so every root checked since then is
   as it was, and the fresh roots, a prefix of [roots], are all that is
   left to check.  The scan keeps [frees], read before it starts: a free
   that straddles the scan then leaves [frees_begun] ahead, and the next
   safe point scans again. *)
let validate_roots t =
  let heap = t.sh.heap in
  if Atomic.get heap.Rheap.frees_begun <> t.audited_frees then begin
    let frees = Atomic.get heap.Rheap.frees in
    t.root_audits <- t.root_audits + 1;
    List.iter (check_root t) t.roots;
    t.audited_frees <- frees
  end
  else List.iter (fun r -> if t.rooted.(r) then check_root t r) t.fresh;
  t.fresh <- []

let adopt t r =
  if r <> Rheap.null && not t.rooted.(r) then begin
    t.rooted.(r) <- true;
    t.adopted_epoch.(r) <- Rheap.epoch t.sh.heap r;
    t.roots <- r :: t.roots;
    t.fresh <- r :: t.fresh
  end

(* The mutator's side of the soft handshakes (Fig. 2's at-m blocks).
   The ack latency — collector's request publish to this mutator's slot
   clear — is what a mutator actually contributes to a ragged round, so
   it is recorded here, per mutator, against the timestamp the collector
   stamped alongside the request. *)
let poll t =
  match Atomic.get t.sh.hs_req.(t.id) with
  | Hs_none -> ()
  | req ->
    (match req with
    | Hs_none | Hs_nop -> ()
    | Hs_get_roots ->
      (* lines 17-20: mark own roots into the private work-list, transfer *)
      List.iter (fun r -> t.wm <- mark t.sh r t.wm) t.roots;
      transfer t.sh t.wm;
      t.wm <- [];
      t.saw_get_roots <- true
    | Hs_get_work ->
      (* lines 32-34 *)
      transfer t.sh t.wm;
      t.wm <- []);
    Atomic.set t.sh.hs_req.(t.id) Hs_none;
    if t.sh.lat.lat_on then
      Obs.Latency.record t.sh.lat.hs_ack.(t.id)
        (Obs.Clock.monotonic_ns () - Atomic.get t.sh.lat.hs_req_ns.(t.id))

(* Load (Fig. 6): read a field of a rooted object and adopt the result. *)
let load t src f =
  let v = Rheap.field t.sh.heap src f in
  adopt t v;
  t.ops <- t.ops + 1;
  v

(* Store (Fig. 6): deletion barrier on the overwritten value, insertion
   barrier on the stored value, then the store itself. *)
let store t src f dst =
  if t.barriers then begin
    t.wm <- mark t.sh (Rheap.field t.sh.heap src f) t.wm;  (* deletion barrier *)
    t.wm <- mark t.sh dst t.wm  (* insertion barrier *)
  end;
  Rheap.set_field t.sh.heap src f dst;
  t.ops <- t.ops + 1

(* Alloc (Fig. 6): allocate with the current f_A sense and adopt.  With
   latency on, each successful allocation is timed, and a null return
   (free list empty) opens a stall episode whose total wait — first
   failure to next success — lands in [alloc_stall_wait]. *)
let alloc t =
  let lat = t.sh.lat in
  let r =
    if not lat.Rshared.lat_on then Rheap.alloc t.sh.heap ~mark:(Atomic.get t.sh.f_a)
    else begin
      let t0 = Obs.Clock.monotonic_ns () in
      let r = Rheap.alloc t.sh.heap ~mark:(Atomic.get t.sh.f_a) in
      let t1 = Obs.Clock.monotonic_ns () in
      if r = Rheap.null then begin
        if t.stall_since_ns < 0 then begin
          t.stall_since_ns <- t0;
          Atomic.incr lat.alloc_stalls
        end
      end
      else begin
        Obs.Latency.record lat.alloc (t1 - t0);
        if t.stall_since_ns >= 0 then begin
          Obs.Latency.record lat.alloc_stall_wait (t1 - t.stall_since_ns);
          t.stall_since_ns <- -1
        end
      end;
      r
    end
  in
  adopt t r;
  t.ops <- t.ops + 1;
  r

let discard t r =
  if r <> Rheap.null && t.rooted.(r) then begin
    t.rooted.(r) <- false;
    t.roots <- List.filter (fun x -> x <> r) t.roots
  end;
  t.ops <- t.ops + 1

(* One random operation over the current roots. *)
let random_op t rng =
  match root_refs t with
  | [] -> ignore (alloc t)
  | roots -> (
    let pick l = List.nth l (Random.State.int rng (List.length l)) in
    let f = Random.State.int rng t.sh.heap.Rheap.n_fields in
    match Random.State.int rng 10 with
    | 0 | 1 | 2 -> ignore (load t (pick roots) f)
    | 3 | 4 | 5 -> store t (pick roots) f (pick roots)
    | 6 | 7 -> ignore (alloc t)
    | 8 -> store t (pick roots) f Rheap.null (* delete an edge *)
    | _ -> if List.length roots > 1 then discard t (pick roots))

(* The Lists workload: each mutator owns a singly-linked list hanging off a
   stable anchor root, and plays rounds of exactly the Fig. 1 scenario:

     build   push a chain of fresh nodes behind the anchor;
     grab    walk the chain deep, adopting interior nodes into the roots;
     splice  cut the chain near the anchor, deleting (possibly ahead of the
             collector's wavefront) the edges that grey-protect the
             adopted nodes;
     hold    keep the adopted roots across the next two collection cycles,
             validating them at every safe point;
     release and start over.

   With the barriers in place the splice's deletion barrier greys the cut
   tail and the adopted nodes survive; without it the collector never sees
   them, the sweep frees them while rooted, and [validate_roots] faults. *)

let anchor t = List.nth t.roots (List.length t.roots - 1)

(* A GC-safe point inside the workload driver. *)
let safe_point t =
  validate_roots t;
  poll t

let stopping t = Atomic.get t.sh.stop || Atomic.get t.sh.stop_muts

let list_round t rng =
  let a = anchor t in
  let rec walk r k = if k = 0 || r = Rheap.null then r else walk (load t r 0) (k - 1) in
  let push () =
    let node = alloc t in
    if node <> Rheap.null then begin
      store t node 0 (Rheap.field t.sh.heap a 0);
      store t a 0 node;
      (* the fresh node is reachable via the anchor; no need to root it *)
      discard t node
    end
  in
  (* build while the collector is idle, so the chain is white for the
     upcoming cycle *)
  let len = 10 + Random.State.int rng 20 in
  for _ = 1 to len do
    safe_point t;
    push ()
  done;
  (* wait until this mutator has just acked a get-roots round: the attack
     window — its roots are sampled, the wavefront has barely moved *)
  t.saw_get_roots <- false;
  while (not t.saw_get_roots) && not (stopping t) do
    safe_point t;
    Domain.cpu_relax ()
  done;
  (* grab: adopt interior nodes (they are white and not in the snapshot) *)
  ignore (walk a len);
  (* splice ahead of the wavefront *)
  let d = walk a (1 + Random.State.int rng 2) in
  if d <> Rheap.null then store t d 0 Rheap.null;
  (* hold the adopted roots across this cycle's sweep and the next *)
  let c0 = Atomic.get t.sh.cycles in
  while Atomic.get t.sh.cycles < c0 + 2 && not (stopping t) do
    safe_point t;
    Domain.cpu_relax ()
  done;
  (* release every root but the anchor *)
  List.iter (fun r -> if r <> a then t.rooted.(r) <- false) t.roots;
  t.roots <- [ a ]

type workload = Uniform | Lists

(* The mutator thread body: service handshakes (validating roots at every
   safe point) until the collector has stopped; perform workload operations
   until the harness says stop. *)
let run ?(workload = Uniform) t rng =
  while not (Atomic.get t.sh.stop_muts) do
    safe_point t;
    if not (Atomic.get t.sh.stop) then begin
      match workload with Uniform -> random_op t rng | Lists -> list_round t rng
    end
    else Domain.cpu_relax ()
  done

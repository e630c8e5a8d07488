(* The tricolor interpretation of Section 3.2 ("Collector Predicates and
   Invariants"), including its two TSO-induced subtleties:

   - an object is *white* if it is not marked on the (committed) heap,
     *grey* if it is on some work-list or is some process's
     ghost_honorary_grey, and *black* if it is marked and not grey;
   - the colours overlap: during a winning CAS an object can be white
     (mark still in the winner's store buffer) and grey (ghost honorary
     grey) at once, and without the ghost it would look black between the
     CAS and the work-list insertion.

   Marks are interpreted against the committed memory's f_M sense.  Every
   colour is a reference mask (Gcheap.Heap); the list and per-reference
   functions are views of the masks. *)

open State

(* All grey references: work-lists of every software process plus the ghost
   honorary greys. *)
let grey_mask cfg sd =
  let add m r = m lor Gcheap.Heap.bit r in
  let rec wls p m = function
    | wl :: rest when p < Config.n_software cfg ->
      wls (p + 1) (List.fold_left add m wl) rest
    | _ -> m
  in
  let ghg m = function Some r -> add m r | None -> m in
  List.fold_left ghg (wls 0 0 sd.s_W) sd.s_ghg land Gcheap.Heap.universe sd.s_mem.heap

(* Marked on the heap w.r.t. the committed sense of f_M. *)
let marked_mask sd = Gcheap.Heap.marked_mask sd.s_mem.heap sd.s_mem.fM

let white_mask sd = Gcheap.Heap.marked_mask sd.s_mem.heap (not sd.s_mem.fM)

let black_mask cfg sd = marked_mask sd land lnot (grey_mask cfg sd)

(* Grey-protected whites: white objects reachable from some grey via a
   chain of zero or more white objects (Fig. 1). *)
let protected_mask cfg sd =
  let white = white_mask sd in
  Gcheap.Reach.white_reach sd.s_mem.heap ~white (grey_mask cfg sd) land white

let mem r m = Gcheap.Heap.bit r land m <> 0

let greys cfg sd = Gcheap.Heap.refs_of_mask (grey_mask cfg sd)
let is_grey cfg sd r = mem r (grey_mask cfg sd)
let is_marked sd r = mem r (marked_mask sd)
let is_white sd r = mem r (white_mask sd)
let is_black cfg sd r = mem r (black_mask cfg sd)

let blacks cfg sd = Gcheap.Heap.refs_of_mask (black_mask cfg sd)

let grey_protected_whites cfg sd = Gcheap.Heap.refs_of_mask (protected_mask cfg sd)
let is_grey_protected cfg sd r = mem r (protected_mask cfg sd)

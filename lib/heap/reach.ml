(* Reachability through the heap (Section 3.2, "Collector Predicates"):
   a reference reaches another if there is a path from the former to the
   latter through objects on the heap; a reachable reference is one reached
   from some root.  The TSO refinements (buffered writes and in-flight
   deletion-barrier references as extra roots) are applied by the caller
   (Core.Invariants), which assembles the root set; paths themselves always
   go via the committed heap, as the paper prescribes.

   Both closures run over reference masks (see Heap): each round adds the
   children of the newest frontier, so a closure costs one pass over the
   heap per level of the graph.  The list functions are views of them. *)

(* Everything reachable from the [roots] mask, the roots included whether
   or not they denote live objects — dangling roots are exactly what the
   safety property forbids. *)
let reach heap roots =
  let rec go seen frontier =
    if frontier = 0 then seen
    else
      let next = Heap.children_mask heap frontier land lnot seen in
      go (seen lor next) next
  in
  go roots roots

(* Reachability restricted to chains of *white* intermediate objects: used
   for grey protection.  Everything reachable from the [srcs] mask via
   paths all of whose intermediate nodes (every node we pass through) are
   in the [white] mask; the sources themselves are included regardless of
   colour, matching Grey ->w* White with a chain of length >= 0.  Sources
   expand unconditionally, interior nodes only if white, so a node reached
   first as a non-white chain endpoint still expands if it is a source. *)
let white_reach heap ~white srcs =
  let rec go expanded frontier =
    if frontier = 0 then expanded
    else
      let next = Heap.children_mask heap frontier land white land lnot expanded in
      go (expanded lor next) next
  in
  srcs lor Heap.children_mask heap (go srcs srcs)

let reachable_set heap roots = Heap.refs_of_mask (reach heap (Heap.mask_of_refs heap roots))

let reaches heap ~src ~dst = List.mem dst (reachable_set heap [ src ])

let reachable heap roots r = List.mem r (reachable_set heap roots)

let white_reachable_set heap ~white srcs =
  let white = Heap.mask_of_refs heap (List.filter white (List.init (Heap.n_refs heap) Fun.id)) in
  Heap.refs_of_mask (white_reach heap ~white (Heap.mask_of_refs heap srcs))

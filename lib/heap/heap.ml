(* The heap: a partial map from references to objects (Section 3.1), whose
   domain doubles as the set of allocated references.  Represented as a
   fixed-length list over the bounded reference universe so that heaps are
   canonical data.

   Sets of references are int bitmasks, bit r standing for reference r:
   the invariant layer (Reach, Core.Color, Core.Invariants) computes
   allocation, marks, children and reachability over them, and the list
   views ([domain], [free_refs], [marked_with]) read the same masks.  Bits
   0 .. max_refs-1 keep every mask non-negative, which caps the universe
   at max_refs references. *)

type t = {
  n_fields : int;
  cells : Obj.t option list;  (* indexed by reference; None is free *)
}

let max_refs = Sys.int_size - 1

let make ~n_refs ~n_fields =
  if n_refs > max_refs then
    invalid_arg
      (Printf.sprintf "Heap.make: %d references exceed the %d-reference universe" n_refs
         max_refs);
  { n_fields; cells = List.init n_refs (fun _ -> None) }

let n_refs h = List.length h.cells

let valid_ref h r = r >= 0 && r < n_refs h && List.nth h.cells r <> None

let get h r = if r >= 0 && r < n_refs h then List.nth h.cells r else None

(* -- Reference-set masks -------------------------------------------------- *)

let universe h = (1 lsl n_refs h) - 1

(* Bit r, or 0 for a reference no mask can hold; intersecting with
   [universe] drops the rest of the out-of-universe references. *)
let bit r = if r >= 0 && r < max_refs then 1 lsl r else 0

let mask_of_refs h rs = List.fold_left (fun m r -> m lor bit r) 0 rs land universe h

(* Ascending: witnesses, snapshots and root lists print in this order. *)
let refs_of_mask m =
  let rec go r m =
    if m = 0 then [] else if m land 1 = 0 then go (r + 1) (m lsr 1) else r :: go (r + 1) (m lsr 1)
  in
  go 0 m

(* Cells selected by [keep], as a mask. *)
let cells_mask h keep =
  let rec go b m = function
    | [] -> m
    | c :: cs -> go (b lsl 1) (if keep c then m lor b else m) cs
  in
  go 1 0 h.cells

let valid_mask h = cells_mask h Option.is_some

let marked_mask h sense =
  cells_mask h (function Some o -> o.Obj.mark = sense | None -> false)

(* The union of the children of every allocated object in [set]. *)
let children_mask h set =
  let rec fields m = function
    | [] -> m
    | Some c :: fs -> fields (m lor bit c) fs
    | None :: fs -> fields m fs
  in
  let rec go set m = function
    | [] -> m
    | c :: cs ->
      if set = 0 then m
      else
        let m = match c with Some o when set land 1 <> 0 -> fields m o.Obj.fields | _ -> m in
        go (set lsr 1) m cs
  in
  go set 0 h.cells land universe h

let domain h = refs_of_mask (valid_mask h)

let free_refs h = refs_of_mask (universe h land lnot (valid_mask h))

let update h r f =
  {
    h with
    cells = List.mapi (fun i c -> if i = r then Option.map f c else c) h.cells;
  }

let set h r o = { h with cells = List.mapi (fun i c -> if i = r then o else c) h.cells }

(* Allocation installs a fresh all-NULL object with the given mark; the
   caller picks the reference (non-deterministically, per the paper's atomic
   allocation abstraction). *)
let alloc h r ~mark = set h r (Some (Obj.make ~mark ~n_fields:h.n_fields))

let free h r = set h r None

let set_field h r f v = update h r (fun o -> Obj.set_field o f v)
let set_mark h r m = update h r (fun o -> Obj.set_mark o m)

let field h r f = Option.bind (get h r) (fun o -> Obj.field o f)
let mark h r = Option.map (fun o -> o.Obj.mark) (get h r)

(* References marked with flag value [m]. *)
let marked_with h m = refs_of_mask (marked_mask h m)

let pp ppf h =
  let cell ppf (r, c) =
    match c with
    | None -> Fmt.pf ppf "%d:free" r
    | Some o -> Fmt.pf ppf "%d:%a" r Obj.pp o
  in
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut cell)
    (List.mapi (fun r c -> (r, c)) h.cells)

(* Canonical fingerprints of global CIMP states.

   Control state is identified by each process's label spine (commands
   themselves carry closures and cannot be compared); data states must be
   canonical plain OCaml data — everything in the GC model is ints, bools,
   lists, options and flat variants — so structural comparison is sound.
   The pair is the structural key: [equal] compares it, so the reference
   BFS's seen-set is exact.

   Hashing is a compact structural fingerprint built from one hash per
   slot.  A slot's hash is an FNV-1a-style mix over its label spine, one
   word per label (the hash [Cimp.Label.v] computed when the program was
   built), and a traversal of its data representation; a fingerprint
   mixes the slots' hashes in slot order.  A configuration memoises its
   slot hash ([Cimp.Com.memo_hash]), and a step changes one or two
   configurations while its successor shares the others with the parent,
   so a successor re-mixes only the slots its step changed.  Building a
   fingerprint allocates only the record and the closure that rebuilds
   the key: the checking engine and the validator read only the hash,
   and the (spine list, payload list) key is built when [equal] asks for
   it.  Its values are stored in certificate tables (GCCERT003) and
   checkpoints (schema 3), so the mix sequence below, and the label
   hash, are a file format: changing either invalidates every stored
   fingerprint.  It replaces the former [Hashtbl.hash_param 64 256]
   polymorphic hash, which (a) re-walked the whole value on every probe,
   (b) truncated deep states at its meaningful-node budget, and (c)
   folded to 30 bits.  The structural mix fills a native word (63 bits
   on 64-bit platforms, never 0), so it can key the parallel explorer's
   sharded seen-set directly, with collision probability ~ n^2 / 2^63. *)

type t = {
  fp : int;  (* compact structural fingerprint; never 0 *)
  key : unit -> Cimp.Label.t list list * Stdlib.Obj.t list;
      (* builds the (control spines, data payloads) pair the hash mixed *)
}

(* -- the structural mix ----------------------------------------------------- *)

(* FNV-1a over native ints: xor then multiply by the 64-bit FNV prime,
   wrapping mod 2^63.  Unboxed throughout — no Int64 in the hot path. *)
let fnv_prime = 0x100000001b3
let mix h x = (h lxor x) * fnv_prime

(* A closure-free loop over the characters, so the accumulator stays in
   a register.  Strings in data payloads only: a label is mixed as its
   hash, which is this mix of its name from a fixed seed. *)
let mix_string h s =
  let h = ref (mix h (String.length s)) in
  for i = 0 to String.length s - 1 do
    h := mix !h (Char.code (String.unsafe_get s i))
  done;
  !h

(* Structural walk of a data payload.  Only the representations canonical
   data can have: immediates, scannable blocks, strings, boxed floats.
   Functional and abstract values violate the module contract (they would
   also break the explorer's structural [equal]), so fail loudly.

   The tags of lazy, closure, object, infix and forward blocks are the
   contiguous range [lazy_tag .. forward_tag] just below [no_scan_tag],
   so one comparison admits every ordinary block to the scan path;
   immediate fields are mixed in place, without a call.  The mix sequence
   is exactly that of a call per field: [mix (mix h 3) v] for an
   immediate [v], and the tag-and-size header then the fields for a
   block. *)
let rec mix_obj h (o : Stdlib.Obj.t) =
  if Stdlib.Obj.is_int o then mix (mix h 3) (Stdlib.Obj.obj o : int) else mix_block h o

and mix_block h o =
  let tag = Stdlib.Obj.tag o in
  if tag < Stdlib.Obj.lazy_tag then begin
    let n = Stdlib.Obj.size o in
    let acc = ref (mix (mix (mix h 5) tag) n) in
    for i = 0 to n - 1 do
      let f = Stdlib.Obj.field o i in
      if Stdlib.Obj.is_int f then acc := mix (mix !acc 3) (Stdlib.Obj.obj f : int)
      else acc := mix_block !acc f
    done;
    !acc
  end
  else if tag < Stdlib.Obj.no_scan_tag then
    invalid_arg "Fingerprint: non-canonical value in a data state"
  else if tag = Stdlib.Obj.string_tag then mix_string (mix h 7) (Stdlib.Obj.obj o : string)
  else if tag = Stdlib.Obj.double_tag then
    mix (mix h 9) (Int64.to_int (Int64.bits_of_float (Stdlib.Obj.obj o : float)))
  else (* custom blocks (Int64.t etc.): content-hashed polymorphically *)
    mix (mix h 11) (Hashtbl.hash o)

(* The mix sequence.  A slot's hash is the seed, the tag 13, one word
   per frame (the hash of its head label), the tag 17, then the data
   walk of its payload, finished; a fingerprint is the seed mixed with
   each slot's hash in slot order, finished.  [of_parts] runs it over
   assembled lists, [of_system] over the slots in place; test_check
   pins its values and test_reduce holds [of_system] and the canonical
   fingerprint to [of_parts]. *)
let seed = 0xcbf29ce484222

let rec mix_frames h = function
  | [] -> h
  | c :: stack -> mix_frames (mix h (Cimp.Label.hash (Cimp.Com.head_label c))) stack

(* 0 is the parallel seen-set's empty-slot sentinel, and a slot memo's
   empty word *)
let finish h = if h = 0 then 1 else h

let fresh_slot_hash stack data =
  finish (mix_obj (mix (mix_frames (mix seed 13) stack) 17) (Stdlib.Obj.repr data))

let hash_config (c : _ Cimp.Com.config) = fresh_slot_hash c.Cimp.Com.stack c.Cimp.Com.data
let slot_hash c = Cimp.Com.memo_hash c hash_config
let mix_slot = mix
let of_mix h ~key = { fp = finish h; key }

(* The data payloads are stashed as Obj.t to keep this module polymorphic in
   the system's state type; they are only ever consumed by the structural
   walk above and the polymorphic [compare], never re-projected. *)
let of_parts ~control ~data : t =
  if List.compare_lengths control data <> 0 then
    invalid_arg "Fingerprint.of_parts: one spine per payload";
  let h =
    List.fold_left2
      (fun h spine d ->
        let s = List.fold_left (fun h l -> mix h (Cimp.Label.hash l)) (mix seed 13) spine in
        mix h (finish (mix_obj (mix s 17) d)))
      seed control data
  in
  of_mix h ~key:(fun () -> (control, data))

let of_system (sys : ('a, 'v, 's) Cimp.System.t) : t =
  let n = Cimp.System.n_procs sys in
  let h = ref seed in
  for p = 0 to n - 1 do
    h := mix !h (slot_hash (Cimp.System.proc sys p))
  done;
  let key () =
    ( List.init n (fun p -> Cimp.Com.stack_labels (Cimp.System.proc sys p).Cimp.Com.stack),
      List.init n (fun p -> Stdlib.Obj.repr (Cimp.System.proc sys p).Cimp.Com.data) )
  in
  of_mix !h ~key

(* Structural equality, with the cached fingerprint as a cheap negative
   filter (equal structures always have equal fingerprints): only then
   are the two keys built and compared. *)
let equal (a : t) (b : t) = a.fp = b.fp && Stdlib.compare (a.key ()) (b.key ()) = 0

let hash (a : t) = a.fp

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

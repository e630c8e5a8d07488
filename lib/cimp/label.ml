(* Program-location labels.

   Every CIMP command carries a label, written [{l}] in the paper (Fig. 7).
   Labels serve two purposes: they anchor the [at p l] local assertions of
   Section 3.2, and they let the model checker fingerprint control state
   without inspecting the (closure-bearing) command syntax.  Labels must be
   unique within a program; [Cimp.Com.duplicate_labels] enforces this.

   A label is built once, when its program is, and carries a hash of its
   name so that the checker mixes one word per label rather than every
   character.  The name is the first field, so polymorphic [compare]
   orders labels by name, as it ordered the strings they used to be. *)

type t = { name : string; hash : int }

(* The FNV-1a mix of [Check.Fingerprint], over the name's length and
   bytes, from a fixed seed: a pure function of the name. *)
let fnv_prime = 0x100000001b3
let mix h x = (h lxor x) * fnv_prime

let hash_name s =
  let h = ref (mix 0xcbf29ce484222 (String.length s)) in
  for i = 0 to String.length s - 1 do
    h := mix !h (Char.code (String.unsafe_get s i))
  done;
  !h

let v name = { name; hash = hash_name name }
let name l = l.name
let hash l = l.hash
let equal a b = a == b || (a.hash = b.hash && String.equal a.name b.name)
let compare a b = String.compare a.name b.name
let pp ppf l = Fmt.string ppf l.name

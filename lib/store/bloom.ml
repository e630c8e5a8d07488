type t = { k : int; mask : int; bits : Bytes.t }

(* Two independent probe streams by double hashing: idx_i = h1 + i*h2.
   The mixers are truncated splitmix-style multiply-xorshift rounds;
   fingerprints are already well-mixed FNV words, but events of one run
   share high bits, so re-mixing is cheap insurance.  Constants fit the
   63-bit int range. *)
let mix x =
  let x = x lxor (x lsr 33) in
  let x = x * 0x2545F4914F6CDD1D in
  let x = x lxor (x lsr 29) in
  let x = x * 0x1B03738712FAD17 in
  x lxor (x lsr 32)

let bits_per_key = 10
let k_probes = 7

let create ~expected =
  if expected < 0 then invalid_arg "Bloom.create: negative expected count";
  let want = max 64 (expected * bits_per_key) in
  let m = ref 64 in
  while !m < want do
    m := !m * 2
  done;
  { k = k_probes; mask = !m - 1; bits = Bytes.make (!m / 8) '\000' }

let probes t fp f =
  let h1 = mix fp in
  let h2 = mix (fp lxor 0x9E3779B9) lor 1 in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < t.k do
    let idx = (h1 + (!i * h2)) land t.mask in
    ok := f (idx lsr 3) (idx land 7);
    incr i
  done;
  !ok

let add t fp =
  ignore
    (probes t fp (fun byte bit ->
         Bytes.unsafe_set t.bits byte
           (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.bits byte) lor (1 lsl bit)));
         true))

let mem t fp =
  probes t fp (fun byte bit -> Char.code (Bytes.unsafe_get t.bits byte) land (1 lsl bit) <> 0)

let bytes t = Bytes.length t.bits

let write b t =
  Codec.add_varint b t.k;
  Codec.add_varint b (Bytes.length t.bits);
  Buffer.add_bytes b t.bits

let read b pos =
  let k, pos = Codec.get_varint b pos in
  let len, pos = Codec.get_varint b pos in
  (* [mem] indexes [bits] unchecked through [mask]: only a filter
     [create] could have made is accepted *)
  if k <> k_probes || len < 8 || len land (len - 1) <> 0 then invalid_arg "Bloom.read";
  let bits = Bytes.sub b pos len in
  ({ k; mask = (len * 8) - 1; bits }, pos + len)

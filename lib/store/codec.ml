(* LEB128 over the 63-bit pattern.  [lsr] (not [asr]) drives the encode
   loop so negative ints — structural fingerprints and packed rendezvous
   events both use bit 62 — terminate in <= 9 groups. *)

let max_varint_bytes = 9

let add_varint b v =
  let v = ref v in
  let continue = ref true in
  while !continue do
    let low = !v land 0x7f in
    v := !v lsr 7;
    if !v = 0 then begin
      Buffer.add_char b (Char.unsafe_chr low);
      continue := false
    end
    else Buffer.add_char b (Char.unsafe_chr (low lor 0x80))
  done

let varint_size v =
  let v = ref (v lsr 7) and n = ref 1 in
  while !v <> 0 do
    v := !v lsr 7;
    incr n
  done;
  !n

let read_varint b ~len pos =
  let v = ref 0 in
  let shift = ref 0 in
  let p = ref !pos in
  let continue = ref true in
  while !continue do
    if !p >= len then invalid_arg "Codec.read_varint: past the end";
    let c = Char.code (Bytes.get b !p) in
    incr p;
    v := !v lor ((c land 0x7f) lsl !shift);
    shift := !shift + 7;
    if c land 0x80 = 0 then continue := false
  done;
  pos := !p;
  !v

let get_varint b pos =
  let p = ref pos in
  let v = read_varint b ~len:(Bytes.length b) p in
  (v, !p)

type entry = { fp : int; parent : int; event : int; meta : int }

(* The entry word packs, from bit 0: depth stamp (23 bits), violated
   invariant index + 1 (8 bits, 0 for none), expanded bit (bit 31).
   2^23 BFS levels is far past anything an explicit-state run reaches. *)
let depth_mask = (1 lsl 23) - 1
let viol_shift = 23
let viol_mask = 0xFF
let expanded_bit = 1 lsl 31
let max_violation = viol_mask - 2

let depth w = w land depth_mask
let violation w = ((w lsr viol_shift) land viol_mask) - 1
let expanded w = w land expanded_bit <> 0

let word ~depth ~violation ~expanded =
  if depth < 0 || depth > depth_mask then invalid_arg "Segment.word: depth stamp out of range";
  if violation < -1 || violation > max_violation then
    invalid_arg "Segment.word: violation index out of range";
  depth lor ((violation + 1) lsl viol_shift) lor (if expanded then expanded_bit else 0)

type t = {
  path : string;
  shard : int;
  seq : int;
  n : int;
  max_depth : int;
  bloom : Bloom.t;
  index_fp : int array;  (* first fingerprint of each block *)
  index_off : int array;  (* block offset within the data region *)
  data_pos : int;  (* file offset of the data region *)
  data_len : int;
  disk_bytes : int;
  mutable digest : string option;
      (* MD5 (hex) of the file, once a checkpoint has needed it *)
}

let magic = "GCSEG001"
let block_size = 256

let path t = t.path
let with_path t path = { t with path }
let shard t = t.shard
let seq t = t.seq
let length t = t.n
let max_depth t = t.max_depth
let disk_bytes t = t.disk_bytes

(* A segment's file never changes once written, so its digest is
   computed at most once, and only for a checkpoint. *)
let digest t =
  match t.digest with
  | Some d -> d
  | None ->
    let d = Digest.to_hex (Digest.file t.path) in
    t.digest <- Some d;
    d

let mem_bytes t =
  Bloom.bytes t.bloom + (2 * 8 * Array.length t.index_fp) + 96 (* record + headers *)

(* Two passes over the entries: the first checks them and lays out the
   Bloom filter, the block index and the data region's length, which the
   header carries; the second encodes the data region into the file
   behind the header, a block at a time. *)
let write ~path ~shard ~seq entries =
  let n = Array.length entries in
  let bloom = Bloom.create ~expected:n in
  let n_blocks = (n + block_size - 1) / block_size in
  let index_fp = Array.make n_blocks 0 in
  let index_off = Array.make n_blocks 0 in
  let prev = ref 0 in
  let max_depth = ref 0 in
  let data_len = ref 0 in
  Array.iteri
    (fun i e ->
      if e.fp = 0 then invalid_arg "Segment.write: zero fingerprint";
      if i > 0 && e.fp <= !prev then invalid_arg "Segment.write: entries not sorted";
      if e.meta land 0xFFFFFFFF <> e.meta then invalid_arg "Segment.write: meta exceeds 32 bits";
      max_depth := max !max_depth (depth e.meta);
      Bloom.add bloom e.fp;
      if i mod block_size = 0 then begin
        index_fp.(i / block_size) <- e.fp;
        index_off.(i / block_size) <- !data_len;
        data_len := !data_len + Codec.varint_size e.fp
      end
      else data_len := !data_len + Codec.varint_size (e.fp - !prev);
      prev := e.fp;
      data_len :=
        !data_len + Codec.varint_size e.parent + Codec.varint_size e.event
        + Codec.varint_size e.meta)
    entries;
  let header = Buffer.create 1024 in
  Codec.add_varint header shard;
  Codec.add_varint header seq;
  Codec.add_varint header n;
  Codec.add_varint header !max_depth;
  Bloom.write header bloom;
  Codec.add_varint header n_blocks;
  for b = 0 to n_blocks - 1 do
    Codec.add_varint header index_fp.(b);
    Codec.add_varint header index_off.(b)
  done;
  Codec.add_varint header !data_len;
  let hlen = Buffer.create Codec.max_varint_bytes in
  Codec.add_varint hlen (Buffer.length header);
  (* one block at a time through one buffer *)
  let block = Buffer.create 4096 in
  Fs.write path (fun oc ->
      output_string oc magic;
      Buffer.output_buffer oc hlen;
      Buffer.output_buffer oc header;
      Array.iteri
        (fun i e ->
          if i mod block_size = 0 then begin
            Buffer.output_buffer oc block;
            Buffer.clear block;
            Codec.add_varint block e.fp
          end
          else Codec.add_varint block (e.fp - entries.(i - 1).fp);
          Codec.add_varint block e.parent;
          Codec.add_varint block e.event;
          Codec.add_varint block e.meta)
        entries;
      Buffer.output_buffer oc block);
  let data_pos = String.length magic + Buffer.length hlen + Buffer.length header in
  {
    path;
    shard;
    seq;
    n;
    max_depth = !max_depth;
    bloom;
    index_fp;
    index_off;
    data_pos;
    data_len = !data_len;
    disk_bytes = data_pos + !data_len;
    digest = None;
  }

(* Every read fails closed: a short read or bytes that do not decode
   (a truncated or overwritten file) raise [Sys_error] naming the file,
   as an I/O failure does, never [End_of_file] or [Invalid_argument]. *)
let corrupt path = raise (Sys_error (path ^ ": truncated or corrupt segment"))

let read_varint_ic ic =
  let v = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    let c = Char.code (input_char ic) in
    v := !v lor ((c land 0x7f) lsl !shift);
    shift := !shift + 7;
    if c land 0x80 = 0 then continue := false
  done;
  !v

let load ?digest path =
  Option.iter
    (fun d ->
      if Digest.to_hex (Digest.file path) <> d then
        raise (Sys_error (path ^ ": segment digest mismatch")))
    digest;
  In_channel.with_open_bin path (fun ic ->
      let file_len = in_channel_length ic in
      (* sizes are checked against the file before anything is
         allocated, so corrupt bytes cannot ask for a huge buffer *)
      let check ok = if not ok then corrupt path in
      try
        let m = really_input_string ic (String.length magic) in
        check (m = magic);
        let hlen = read_varint_ic ic in
        check (hlen >= 0 && hlen <= file_len - pos_in ic);
        let header = Bytes.create hlen in
        really_input ic header 0 hlen;
        let data_pos = pos_in ic in
        let pos = 0 in
        let shard, pos = Codec.get_varint header pos in
        let seq, pos = Codec.get_varint header pos in
        let n, pos = Codec.get_varint header pos in
        let max_depth, pos = Codec.get_varint header pos in
        let bloom, pos = Bloom.read header pos in
        let n_blocks, pos = Codec.get_varint header pos in
        check (n >= 0 && n_blocks = (n + block_size - 1) / block_size && n_blocks <= hlen);
        let index_fp = Array.make (max 1 n_blocks) 0 in
        let index_off = Array.make (max 1 n_blocks) 0 in
        let pos = ref pos in
        for b = 0 to n_blocks - 1 do
          let fp, p = Codec.get_varint header !pos in
          let off, p = Codec.get_varint header p in
          check (if b = 0 then off = 0 else off > index_off.(b - 1));
          index_fp.(b) <- fp;
          index_off.(b) <- off;
          pos := p
        done;
        let data_len, _ = Codec.get_varint header !pos in
        check (data_len = file_len - data_pos);
        check (n_blocks = 0 || index_off.(n_blocks - 1) < data_len);
        {
          path;
          shard;
          seq;
          n;
          max_depth;
          bloom;
          index_fp;
          index_off;
          data_pos;
          data_len;
          disk_bytes = data_pos + data_len;
          digest;
        }
      with End_of_file | Invalid_argument _ -> corrupt path)

(* Decode the [count] entries of the block held in the first [len]
   bytes of [buf], calling [f] on each; stops early when [f] returns
   false. *)
let decode_block path buf len count f =
  let pos = ref 0 in
  let get () = try Codec.read_varint buf ~len pos with Invalid_argument _ -> corrupt path in
  let prev = ref 0 in
  let i = ref 0 in
  let go = ref true in
  while !go && !i < count do
    let d = get () in
    let fp = if !i = 0 then d else !prev + d in
    prev := fp;
    let parent = get () in
    let event = get () in
    let meta = get () in
    incr i;
    go := f { fp; parent; event; meta }
  done

(* [len] bytes of the file at [path] from offset [pos] *)
let read_at path pos len =
  let buf = Bytes.create len in
  In_channel.with_open_bin path (fun ic ->
      seek_in ic pos;
      try really_input ic buf 0 len with End_of_file -> corrupt path);
  buf

(* block [b]'s length in bytes *)
let block_len t b =
  let next = if b + 1 < Array.length t.index_off then t.index_off.(b + 1) else t.data_len in
  next - t.index_off.(b)

let read_block t b = read_at t.path (t.data_pos + t.index_off.(b)) (block_len t b)

let block_count t b = min block_size (t.n - (b * block_size))

let maybe t fp = t.n > 0 && Bloom.mem t.bloom fp

let find t fp =
  if t.n = 0 || not (Bloom.mem t.bloom fp) then None
  else if fp < t.index_fp.(0) then None
  else begin
    (* rightmost block whose first fingerprint is <= fp *)
    let lo = ref 0 and hi = ref (Array.length t.index_fp - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if t.index_fp.(mid) <= fp then lo := mid else hi := mid - 1
    done;
    let buf = read_block t !lo in
    let found = ref None in
    decode_block t.path buf (Bytes.length buf) (block_count t !lo) (fun e ->
        if e.fp = fp then begin
          found := Some e;
          false
        end
        else e.fp < fp);
    !found
  end

(* The blocks are contiguous from the start of the data region, so one
   sequential pass reads them, each into the one buffer, which is as
   long as the longest block. *)
let iter t f =
  if t.n > 0 then begin
    let n_blocks = Array.length t.index_off in
    let longest = ref 0 in
    for b = 0 to n_blocks - 1 do
      longest := max !longest (block_len t b)
    done;
    let buf = Bytes.create !longest in
    let each e =
      f e;
      true
    in
    In_channel.with_open_bin t.path (fun ic ->
        seek_in ic t.data_pos;
        for b = 0 to n_blocks - 1 do
          let len = block_len t b in
          (try really_input ic buf 0 len with End_of_file -> corrupt t.path);
          decode_block t.path buf len (block_count t b) each
        done)
  end

let entries t =
  let out = Array.make t.n { fp = 0; parent = 0; event = 0; meta = 0 } in
  let i = ref 0 in
  iter t (fun e ->
      out.(!i) <- e;
      incr i);
  out

(* Tier 0 below is the former Check.Par_explore.Seen, verbatim in its
   concurrency discipline: every operation, including the 70%-load
   doubling and now the freeze/merge paths, runs entirely under the
   owning shard's mutex, so two workers can never resize (or spill) the
   same shard concurrently and an insert can never land in a table a
   concurrent resize is about to discard.

   A tier-0 slot's meta word is the segment entry word ({!Segment.word}),
   so entries move between RAM and disk unchanged. *)

let n_shards = 64
let shard_bits = 6 (* log2 n_shards *)
let entry_bytes = 32 (* 4 words: key, parent, event, meta *)

type add_result = Fresh | Improved of int | Stale

type hooks = {
  on_spill : shard:int -> entries:int -> bytes:int -> start_ns:int -> stop_ns:int -> unit;
  on_merge : shard:int -> segments:int -> entries:int -> start_ns:int -> stop_ns:int -> unit;
  on_disk_probe : shard:int -> hit:bool -> start_ns:int -> stop_ns:int -> unit;
}

let no_hooks =
  {
    on_spill = (fun ~shard:_ ~entries:_ ~bytes:_ ~start_ns:_ ~stop_ns:_ -> ());
    on_merge = (fun ~shard:_ ~segments:_ ~entries:_ ~start_ns:_ ~stop_ns:_ -> ());
    on_disk_probe = (fun ~shard:_ ~hit:_ ~start_ns:_ ~stop_ns:_ -> ());
  }

type stats = {
  spills : int;
  merges : int;
  segments : int;
  spilled_entries : int;
  disk_probes : int;
  disk_hits : int;
  bloom_checks : int;
  bloom_negatives : int;
  resident_entries : int;
  resident_bytes : int;
  peak_resident_bytes : int;
  disk_bytes : int;
  segment_mem_bytes : int;
}

type shard = {
  id : int;
  lock : Obs.Contention.lock;
  mutable keys : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable parents : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable meta : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable events : int array;
  mutable count : int;  (* tier-0 occupancy *)
  mutable distinct : int;  (* distinct states (shadow copies excluded) *)
  mutable segs : Segment.t list;  (* newest first *)
  mutable next_seq : int;
  mutable spills : int;
  mutable merges : int;
  mutable spilled_entries : int;
  mutable disk_probes : int;
  mutable disk_hits : int;
  mutable bloom_checks : int;
  mutable bloom_negatives : int;
  mutable peak_bytes : int;
}

type t = {
  shards : shard array;
  initial_cap : int;
  budget : int;  (* bytes, 0 = never spill *)
  shard_budget : int;  (* bytes of tier-0 occupancy that trigger a freeze *)
  merge_fanout : int;
  mutable dir : string option;
  mutable temp : bool;  (* [dir] is this store's own temporary directory *)
  mutable hooks : hooks;
  mutable timed : bool;  (* pay clock reads around spill/merge/probe *)
}

let make_arr cap =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout cap in
  Bigarray.Array1.fill a 0;
  a

let no_copy = { Segment.fp = 0; parent = 0; event = 0; meta = 0 }
let default_shard_cap = 1024

let create ?(shard_cap = default_shard_cap) ?(mem_budget = 0) ?spill_dir ?(merge_fanout = 8) ()
    =
  if shard_cap <= 0 || shard_cap land (shard_cap - 1) <> 0 then
    invalid_arg "Tiered.create: shard_cap must be a power of two";
  if merge_fanout < 2 then invalid_arg "Tiered.create: merge_fanout must be >= 2";
  (* an all-RAM store keeps an explicit dir, so a resumed checkpoint
     can still attach its segments there *)
  let dir, temp =
    match spill_dir with
    | Some d ->
      if mem_budget > 0 then Fs.mkdirs d;
      (Some d, false)
    | None -> if mem_budget > 0 then (Some (Fs.temp_dir "gcstore"), true) else (None, false)
  in
  (* freeze when measured occupancy (entries x entry_bytes) crosses the
     shard's slice of the budget; the floor keeps degenerate budgets
     from writing near-empty segments *)
  let shard_budget = if mem_budget > 0 then max (16 * entry_bytes) (mem_budget / n_shards) else 0 in
  {
    shards =
      Array.init n_shards (fun id ->
          {
            id;
            lock = Obs.Contention.make_lock ();
            keys = make_arr shard_cap;
            parents = make_arr shard_cap;
            meta = make_arr shard_cap;
            events = Array.make shard_cap 0;
            count = 0;
            distinct = 0;
            segs = [];
            next_seq = 0;
            spills = 0;
            merges = 0;
            spilled_entries = 0;
            disk_probes = 0;
            disk_hits = 0;
            bloom_checks = 0;
            bloom_negatives = 0;
            peak_bytes = 0;
          });
    initial_cap = shard_cap;
    budget = mem_budget;
    shard_budget;
    merge_fanout;
    dir;
    temp;
    hooks = no_hooks;
    timed = false;
  }

let set_hooks t hooks =
  t.hooks <- hooks;
  t.timed <- true

let mem_budget t = t.budget

let ensure_spill_dir t =
  match t.dir with
  | Some d -> d
  | None ->
    let d = Fs.temp_dir "gcstore" in
    t.dir <- Some d;
    t.temp <- true;
    d

let temp_dir t = if t.temp then t.dir else None

let shard (t : t) fp = t.shards.(fp land (n_shards - 1))

(* Slot of [fp], or of the empty slot where it belongs; caller locks. *)
let probe keys cap fp =
  let mask = cap - 1 in
  let i = ref ((fp asr shard_bits) land mask) in
  let go = ref true in
  while !go do
    let k = Bigarray.Array1.unsafe_get keys !i in
    if k = 0 || k = fp then go := false else i := (!i + 1) land mask
  done;
  !i

let grow s =
  let old_cap = Bigarray.Array1.dim s.keys in
  let cap = 2 * old_cap in
  let keys = make_arr cap in
  let parents = make_arr cap in
  let meta = make_arr cap in
  let events = Array.make cap 0 in
  for i = 0 to old_cap - 1 do
    let k = Bigarray.Array1.unsafe_get s.keys i in
    if k <> 0 then begin
      let j = probe keys cap k in
      Bigarray.Array1.unsafe_set keys j k;
      Bigarray.Array1.unsafe_set parents j (Bigarray.Array1.unsafe_get s.parents i);
      Bigarray.Array1.unsafe_set meta j (Bigarray.Array1.unsafe_get s.meta i);
      events.(j) <- s.events.(i)
    end
  done;
  s.keys <- keys;
  s.parents <- parents;
  s.meta <- meta;
  s.events <- events

(* Insert a fingerprint known to be absent from tier 0; caller locks. *)
let tier0_insert s fp ~parent ~event ~meta =
  while 10 * (s.count + 1) > 7 * Bigarray.Array1.dim s.keys do
    grow s
  done;
  let i = probe s.keys (Bigarray.Array1.dim s.keys) fp in
  Bigarray.Array1.unsafe_set s.keys i fp;
  Bigarray.Array1.unsafe_set s.parents i parent;
  Bigarray.Array1.unsafe_set s.meta i meta;
  s.events.(i) <- event;
  s.count <- s.count + 1;
  let bytes = s.count * entry_bytes in
  if bytes > s.peak_bytes then s.peak_bytes <- bytes

let seg_path t s seq =
  Filename.concat (ensure_spill_dir t) (Printf.sprintf "shard%02d-%06d.seg" s.id seq)

(* Sorted tier-0 contents; caller locks. *)
let dump_locked s =
  let arr = Array.make s.count no_copy in
  let j = ref 0 in
  for i = 0 to Bigarray.Array1.dim s.keys - 1 do
    let k = Bigarray.Array1.unsafe_get s.keys i in
    if k <> 0 then begin
      arr.(!j) <-
        {
          Segment.fp = k;
          parent = Bigarray.Array1.unsafe_get s.parents i;
          event = s.events.(i);
          meta = Bigarray.Array1.unsafe_get s.meta i;
        };
      incr j
    end
  done;
  Array.sort (fun (a : Segment.entry) b -> compare a.fp b.fp) arr;
  arr

(* The newest-wins view of a shard with segments, read under its lock or
   from a quiescent store.  Tier 0 and the segments, newest first, are
   concatenated and stably sorted, so each fingerprint's first copy is
   its newest: every stored fingerprint once, ascending.  Transient
   memory is one shard's entries, 1/64 of the store. *)
let newest s =
  let all = Array.concat (dump_locked s :: List.map Segment.entries s.segs) in
  Array.stable_sort (fun (a : Segment.entry) b -> compare a.fp b.fp) all;
  let n = ref 0 in
  Array.iter
    (fun (e : Segment.entry) ->
      if !n = 0 || all.(!n - 1).fp <> e.fp then begin
        all.(!n) <- e;
        incr n
      end)
    all;
  Array.sub all 0 !n

(* [f fp parent event word] once per fingerprint of shard [s], with its
   newest copy.  A shard without segments is read in place, in slot
   order. *)
let view s f =
  if s.segs = [] then
    for i = 0 to Bigarray.Array1.dim s.keys - 1 do
      let k = Bigarray.Array1.unsafe_get s.keys i in
      if k <> 0 then
        f k (Bigarray.Array1.unsafe_get s.parents i) s.events.(i)
          (Bigarray.Array1.unsafe_get s.meta i)
    done
  else Array.iter (fun (e : Segment.entry) -> f e.fp e.parent e.event e.meta) (newest s)

(* Called right after a freeze, so tier 0 is empty and the view is the
   segments' newest copies. *)
let merge_locked t s =
  let start_ns = if t.timed then Obs.Clock.monotonic_ns () else 0 in
  let old = s.segs in
  let entries = newest s in
  let seq = s.next_seq in
  s.next_seq <- seq + 1;
  s.segs <- [ Segment.write ~path:(seg_path t s seq) ~shard:s.id ~seq entries ];
  s.merges <- s.merges + 1;
  List.iter (fun seg -> Fs.rm_rf (Segment.path seg)) old;
  if t.timed then
    t.hooks.on_merge ~shard:s.id ~segments:(List.length old) ~entries:(Array.length entries)
      ~start_ns ~stop_ns:(Obs.Clock.monotonic_ns ())

let freeze_locked t s =
  let start_ns = if t.timed then Obs.Clock.monotonic_ns () else 0 in
  let entries = dump_locked s in
  let seq = s.next_seq in
  s.next_seq <- seq + 1;
  let seg = Segment.write ~path:(seg_path t s seq) ~shard:s.id ~seq entries in
  s.segs <- seg :: s.segs;
  s.spills <- s.spills + 1;
  s.spilled_entries <- s.spilled_entries + Array.length entries;
  s.keys <- make_arr t.initial_cap;
  s.parents <- make_arr t.initial_cap;
  s.meta <- make_arr t.initial_cap;
  s.events <- Array.make t.initial_cap 0;
  s.count <- 0;
  if t.timed then
    t.hooks.on_spill ~shard:s.id ~entries:(Array.length entries) ~bytes:(Segment.disk_bytes seg)
      ~start_ns
      ~stop_ns:(Obs.Clock.monotonic_ns ());
  if List.length s.segs >= t.merge_fanout then merge_locked t s

let maybe_spill t s =
  if t.shard_budget > 0 && s.count * entry_bytes >= t.shard_budget then freeze_locked t s

(* Exact membership in the frozen tiers; caller locks.  Newest segment
   first, so a shadow-spilled copy wins over its stale ancestors. *)
let seg_find t s fp =
  let rec go = function
    | [] -> None
    | seg :: rest ->
      s.bloom_checks <- s.bloom_checks + 1;
      if not (Segment.maybe seg fp) then begin
        s.bloom_negatives <- s.bloom_negatives + 1;
        go rest
      end
      else begin
        s.disk_probes <- s.disk_probes + 1;
        let start_ns = if t.timed then Obs.Clock.monotonic_ns () else 0 in
        let r = Segment.find seg fp in
        if t.timed then
          t.hooks.on_disk_probe ~shard:s.id ~hit:(r <> None) ~start_ns
            ~stop_ns:(Obs.Clock.monotonic_ns ());
        match r with
        | Some e ->
          s.disk_hits <- s.disk_hits + 1;
          Some e
        | None -> go rest
      end
  in
  go s.segs

(* -- the one access path ------------------------------------------------------

   [add], [mark_violation], [begin_expand] and [find] each run one
   operation on a fingerprint's newest copy, through [access]: lock the
   shard, probe tier 0, then the segments newest first, and run the
   operation on what was found.  A disk step (segment probe, spill,
   merge) may raise; the lock is released before the exception goes on,
   so the other workers are not left waiting on it.  The operations are
   closed functions of ints, so the all-RAM path allocates nothing.

   An operation sees the copy as [at]: a tier-0 slot (>= 0), [on_disk]
   with the copy in [copy], or [absent]. *)

let on_disk = -1
let absent = -2

let release s e =
  let bt = Printexc.get_raw_backtrace () in
  Obs.Contention.unlock s.lock;
  Printexc.raise_with_backtrace e bt

let access t fp op a b c =
  let s = shard t fp in
  Obs.Contention.lock s.lock;
  match
    let i = probe s.keys (Bigarray.Array1.dim s.keys) fp in
    if Bigarray.Array1.unsafe_get s.keys i = fp then op t s fp i no_copy a b c
    else
      match seg_find t s fp with
      | Some e -> op t s fp on_disk e a b c
      | None -> op t s fp absent no_copy a b c
  with
  | r ->
    Obs.Contention.unlock s.lock;
    r
  | exception e -> release s e

let word_at s at (copy : Segment.entry) =
  if at >= 0 then Bigarray.Array1.unsafe_get s.meta at else copy.meta

let parent_at s at (copy : Segment.entry) =
  if at >= 0 then Bigarray.Array1.unsafe_get s.parents at else copy.parent

let event_at s at (copy : Segment.entry) = if at >= 0 then s.events.(at) else copy.event

(* Replace the newest copy: in place in tier 0, or by a shadow copy
   there, which every read consults first, so the disk copy is dead
   until a merge drops it. *)
let rewrite t s fp at ~parent ~event ~meta =
  if at >= 0 then begin
    Bigarray.Array1.unsafe_set s.meta at meta;
    Bigarray.Array1.unsafe_set s.parents at parent;
    s.events.(at) <- event
  end
  else begin
    tier0_insert s fp ~parent ~event ~meta;
    maybe_spill t s
  end

let add_op t s fp at copy parent event depth =
  if at = absent then begin
    tier0_insert s fp ~parent ~event ~meta:(Segment.word ~depth ~violation:(-1) ~expanded:false);
    s.distinct <- s.distinct + 1;
    maybe_spill t s;
    Fresh
  end
  else
    let m = word_at s at copy in
    if depth < Segment.depth m then begin
      let v = Segment.violation m in
      rewrite t s fp at ~parent ~event
        ~meta:(Segment.word ~depth ~violation:v ~expanded:(Segment.expanded m));
      Improved v
    end
    else Stale

let add t fp ~parent ~event ~depth = access t fp add_op parent event depth

let mark_op t s fp at copy idx _ _ =
  if at <> absent then
    let m = word_at s at copy in
    rewrite t s fp at ~parent:(parent_at s at copy) ~event:(event_at s at copy)
      ~meta:(Segment.word ~depth:(Segment.depth m) ~violation:idx ~expanded:(Segment.expanded m))

let mark_violation t fp idx = access t fp mark_op idx 0 0

let expand_op t s fp at copy depth _ _ =
  if at = absent then `Stale
  else
    let m = word_at s at copy in
    let d = Segment.depth m in
    if d < depth then `Stale
    else if Segment.expanded m then `Again d
    else begin
      rewrite t s fp at ~parent:(parent_at s at copy) ~event:(event_at s at copy)
        ~meta:(Segment.word ~depth:d ~violation:(Segment.violation m) ~expanded:true);
      `First d
    end

let begin_expand t fp ~depth = access t fp expand_op depth 0 0

let find_op _ s _ at copy _ _ _ =
  if at = absent then None else Some (parent_at s at copy, event_at s at copy)

let find t fp = access t fp find_op 0 0 0

let count t = Array.fold_left (fun acc s -> acc + s.distinct) 0 t.shards
let capacity t = Array.fold_left (fun acc s -> acc + Bigarray.Array1.dim s.keys) 0 t.shards

let max_depth t =
  let best = ref 0 in
  Array.iter
    (fun s ->
      view s (fun _ _ _ w ->
          let d = Segment.depth w in
          if d > !best then best := d))
    t.shards;
  !best

let iter t f =
  Array.iter
    (fun s -> view s (fun fp parent event meta -> f { Segment.fp; parent; event; meta }))
    t.shards

let locks t = Array.map (fun s -> s.lock) t.shards
let resident_bytes t = Array.fold_left (fun acc s -> acc + (s.count * entry_bytes)) 0 t.shards
let resident_bytes_per_shard t = Array.map (fun s -> s.count * entry_bytes) t.shards

let stats t =
  Array.fold_left
    (fun (acc : stats) s ->
      let seg_disk = List.fold_left (fun a seg -> a + Segment.disk_bytes seg) 0 s.segs in
      let seg_mem = List.fold_left (fun a seg -> a + Segment.mem_bytes seg) 0 s.segs in
      {
        spills = acc.spills + s.spills;
        merges = acc.merges + s.merges;
        segments = acc.segments + List.length s.segs;
        spilled_entries = acc.spilled_entries + s.spilled_entries;
        disk_probes = acc.disk_probes + s.disk_probes;
        disk_hits = acc.disk_hits + s.disk_hits;
        bloom_checks = acc.bloom_checks + s.bloom_checks;
        bloom_negatives = acc.bloom_negatives + s.bloom_negatives;
        resident_entries = acc.resident_entries + s.count;
        resident_bytes = acc.resident_bytes + (s.count * entry_bytes);
        peak_resident_bytes = acc.peak_resident_bytes + s.peak_bytes;
        disk_bytes = acc.disk_bytes + seg_disk;
        segment_mem_bytes = acc.segment_mem_bytes + seg_mem;
      })
    {
      spills = 0;
      merges = 0;
      segments = 0;
      spilled_entries = 0;
      disk_probes = 0;
      disk_hits = 0;
      bloom_checks = 0;
      bloom_negatives = 0;
      resident_entries = 0;
      resident_bytes = 0;
      peak_resident_bytes = 0;
      disk_bytes = 0;
      segment_mem_bytes = 0;
    }
    t.shards

(* -- checkpoint support ---------------------------------------------------- *)

let tier0_dump t ~shard =
  let s = t.shards.(shard) in
  Obs.Contention.with_lock s.lock (fun () -> dump_locked s)

let segments_of t ~shard =
  let s = t.shards.(shard) in
  Obs.Contention.with_lock s.lock (fun () -> s.segs)

let shard_meta t ~shard =
  let s = t.shards.(shard) in
  Obs.Contention.with_lock s.lock (fun () -> (s.distinct, s.next_seq))

let restore_shard t ~shard ~distinct ~next_seq ~tier0 ~segs =
  let s = t.shards.(shard) in
  Obs.Contention.with_lock s.lock (fun () ->
      Array.iter
        (fun (e : Segment.entry) ->
          tier0_insert s e.fp ~parent:e.parent ~event:e.event ~meta:e.meta)
        tier0;
      s.segs <- segs;
      s.distinct <- distinct;
      s.next_seq <- next_seq)

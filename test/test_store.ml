(* Tests for the tiered state store (lib/store): the varint codec's
   totality on the 63-bit range, Bloom-filter soundness, segment
   round-trips, spill equivalence against the all-RAM checker, merges
   under concurrent inserts, and checkpoint/resume — including recovery
   from a crash that left half-written snapshot debris behind and from a
   fault injected at every file step of a snapshot write, the
   publication order of snapshots and certificates, a disk fault that
   must stop a two-worker run, temporary directories that must not
   outlive their run, damaged segments, and every JSON document a run
   writes, each refused by path when any field is missing or mistyped. *)

open Cimp

type com = (int, int, int) Com.t

let proc c data = Com.make [ c ] data

(* -- codec ------------------------------------------------------------------- *)

let test_varint_roundtrip () =
  let cases =
    [
      0; 1; 127; 128; 300; 0x3FFF_FFFF; max_int; min_int; -1; -42;
      1 lsl 62; (1 lsl 62) lor 12345; min_int + 1;
    ]
  in
  let b = Buffer.create 64 in
  List.iter (fun v -> Store.Codec.add_varint b v) cases;
  let bytes = Buffer.to_bytes b in
  let pos = ref 0 in
  List.iter
    (fun v ->
      let got, pos' = Store.Codec.get_varint bytes !pos in
      Alcotest.(check int) (Fmt.str "varint %d" v) v got;
      Alcotest.(check bool)
        (Fmt.str "bounded encoding of %d" v)
        true
        (pos' - !pos <= Store.Codec.max_varint_bytes);
      pos := pos')
    cases;
  Alcotest.(check int) "stream fully consumed" (Bytes.length bytes) !pos

(* -- bloom ------------------------------------------------------------------- *)

let test_bloom_no_false_negatives () =
  let n = 5_000 in
  let f = Store.Bloom.create ~expected:n in
  let key i = (i * 2654435761) lxor (i lsl 31) in
  for i = 1 to n do
    Store.Bloom.add f (key i)
  done;
  for i = 1 to n do
    if not (Store.Bloom.mem f (key i)) then
      Alcotest.failf "false negative for key %d" (key i)
  done;
  (* false positives exist but must be rare: probe n fresh keys *)
  let fp = ref 0 in
  for i = n + 1 to 2 * n do
    if Store.Bloom.mem f (key i) then incr fp
  done;
  Alcotest.(check bool)
    (Fmt.str "false-positive rate %.2f%% < 5%%" (100. *. float_of_int !fp /. float_of_int n))
    true
    (float_of_int !fp /. float_of_int n < 0.05);
  (* serialization round-trip preserves answers *)
  let b = Buffer.create 1024 in
  Store.Bloom.write b f;
  let f', pos = Store.Bloom.read (Buffer.to_bytes b) 0 in
  Alcotest.(check int) "self-delimiting" (Buffer.length b) pos;
  for i = 1 to n do
    if not (Store.Bloom.mem f' (key i)) then
      Alcotest.failf "false negative after round-trip for key %d" (key i)
  done

(* -- segment ----------------------------------------------------------------- *)

let test_segment_roundtrip () =
  let dir = Store.Fs.temp_dir "test-store-seg" in
  let n = 2_000 in
  (* adversarial fingerprints: dense positives, negatives (rendezvous
     kind bit), and extremes — sorted by plain int order as the store
     dumps them *)
  let fps =
    Array.init n (fun i ->
        match i mod 4 with
        | 0 -> i + 1
        | 1 -> -(i * 7) - 1
        | 2 -> (i * 2654435761) lxor (1 lsl 55)
        | _ -> min_int + (i * 13) + 1)
    |> Array.to_list
    |> List.sort_uniq compare
    |> Array.of_list
  in
  let entries =
    Array.map
      (fun fp ->
        {
          Store.Segment.fp;
          parent = fp lxor 0x55;
          event = (if fp land 1 = 0 then -fp else fp lsr 3);
          meta = fp land 0x7FFF_FFFF;
        })
      fps
  in
  let path = Filename.concat dir "t.seg" in
  let seg = Store.Segment.write ~path ~shard:3 ~seq:7 entries in
  Alcotest.(check int) "length" (Array.length entries) (Store.Segment.length seg);
  (* reload from disk and probe every entry through the Bloom + index path *)
  let seg = Store.Segment.load path in
  Alcotest.(check int) "shard" 3 (Store.Segment.shard seg);
  Alcotest.(check int) "seq" 7 (Store.Segment.seq seg);
  Alcotest.(check int) "max_depth: the entries' largest depth stamp"
    (Array.fold_left
       (fun d (e : Store.Segment.entry) -> max d (Store.Segment.depth e.meta))
       0 entries)
    (Store.Segment.max_depth seg);
  (* the entry word: each field round-trips at its widest, and a value
     outside its slot is refused *)
  let deepest = (1 lsl 23) - 1 and worst = Store.Segment.max_violation in
  let w = Store.Segment.word ~depth:deepest ~violation:worst ~expanded:true in
  Alcotest.(check (triple int int bool)) "entry word fields" (deepest, worst, true)
    (Store.Segment.depth w, Store.Segment.violation w, Store.Segment.expanded w);
  List.iter
    (fun (depth, violation) ->
      match Store.Segment.word ~depth ~violation ~expanded:false with
      | _ -> Alcotest.failf "word accepted depth %d, violation %d" depth violation
      | exception Invalid_argument _ -> ())
    [ (deepest + 1, -1); (-1, -1); (0, worst + 1); (0, -2) ];
  Array.iter
    (fun (e : Store.Segment.entry) ->
      Alcotest.(check bool) "bloom sees it" true (Store.Segment.maybe seg e.Store.Segment.fp);
      match Store.Segment.find seg e.Store.Segment.fp with
      | None -> Alcotest.failf "lost fingerprint %d" e.Store.Segment.fp
      | Some got ->
        Alcotest.(check int) "parent" e.Store.Segment.parent got.Store.Segment.parent;
        Alcotest.(check int) "event" e.Store.Segment.event got.Store.Segment.event;
        Alcotest.(check int) "meta" e.Store.Segment.meta got.Store.Segment.meta)
    entries;
  (* absent keys answer None (Bloom may pass, the block scan must not) *)
  let present = Hashtbl.create 256 in
  Array.iter (fun (e : Store.Segment.entry) -> Hashtbl.replace present e.Store.Segment.fp ()) entries;
  for i = 1 to 1_000 do
    let fp = (i * 48271) lxor (1 lsl 40) in
    if not (Hashtbl.mem present fp) then
      Alcotest.(check bool)
        (Fmt.str "absent %d stays absent" fp)
        true
        (Store.Segment.find seg fp = None)
  done;
  (* iter yields the entries back in order *)
  let seen = ref [] in
  Store.Segment.iter seg (fun e -> seen := e.Store.Segment.fp :: !seen);
  Alcotest.(check (list int))
    "iter in fingerprint order"
    (Array.to_list (Array.map (fun (e : Store.Segment.entry) -> e.Store.Segment.fp) entries))
    (List.rev !seen);
  Store.Fs.rm_rf dir

(* -- tiered store under concurrent inserts ----------------------------------- *)

(* Hammer one logical key-space from several domains with a budget small
   enough to force repeated freezes and merges mid-insert, then verify
   every key is present exactly once with its best depth. *)
let test_merge_under_concurrent_inserts () =
  let dir = Store.Fs.temp_dir "test-store-merge" in
  let seen = Store.Tiered.create ~shard_cap:64 ~mem_budget:(64 * Store.Tiered.entry_bytes * Store.Tiered.n_shards) ~spill_dir:dir ~merge_fanout:3 () in
  let n_doms = 4 and per_dom = 4_000 in
  let key d i = ((i * 2654435761) lxor (d lsl 58)) lor 1 in
  let doms =
    Array.init n_doms (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_dom do
              (* two adds per key: depth 2i then i — the second must improve *)
              ignore (Store.Tiered.add seen (key d i) ~parent:1 ~event:d ~depth:(2 * i));
              match Store.Tiered.add seen (key d i) ~parent:1 ~event:d ~depth:i with
              | Store.Tiered.Improved _ | Store.Tiered.Stale -> ()
              | Store.Tiered.Fresh -> Alcotest.failf "duplicate fresh for key %d" (key d i)
            done))
  in
  Array.iter Domain.join doms;
  Alcotest.(check int) "distinct count" (n_doms * per_dom) (Store.Tiered.count seen);
  let st = Store.Tiered.stats seen in
  Alcotest.(check bool) "spills happened" true (st.Store.Tiered.spills > 0);
  Alcotest.(check bool) "merges happened" true (st.Store.Tiered.merges > 0);
  let depths = Hashtbl.create (n_doms * per_dom) in
  Store.Tiered.iter seen (fun e ->
      if Hashtbl.mem depths e.fp then Alcotest.failf "key %d viewed twice" e.fp;
      Hashtbl.replace depths e.fp (Store.Segment.depth e.meta));
  for d = 0 to n_doms - 1 do
    for i = 1 to per_dom do
      match Hashtbl.find_opt depths (key d i) with
      | None -> Alcotest.failf "lost key %d after spill/merge" (key d i)
      | Some dep ->
        if dep <> i then Alcotest.failf "key %d depth %d, expected %d" (key d i) dep i
    done
  done;
  Alcotest.(check int) "max_depth" per_dom (Store.Tiered.max_depth seen);
  Store.Fs.rm_rf dir

(* -- the store against a reference table --------------------------------------- *)

(* Model-based: the same random calls go to a Store.Tiered and to a
   reference Hashtbl, under a budget and fanout small enough that shards
   spill and merge throughout.  Adds are fresh, improving or stale as
   their random depths fall; marks and expansion claims hit keys present
   or absent, on disk or in tier 0.  Every call must answer as the
   reference does, and at the end the newest-wins view ({!Store.Tiered.iter})
   must equal the reference entry by entry, with [count] and [max_depth]
   to match.  On several domains each owns its keys, which share four
   shards, so spills and merges interleave across domains. *)

type op = Add of int * int | Mark of int * int | Expand of int * int

type model_entry = {
  mutable m_depth : int;
  mutable m_viol : int;
  mutable m_expanded : bool;
  mutable m_parent : int;
}

let n_model_keys = 240

(* keys of domain [d]: four shards (low bits), never 0 *)
let model_key d i = (((d * 1_000) + i) lsl 6) lor (i land 3)

let gen_op =
  QCheck.Gen.(
    let key = int_range 1 n_model_keys in
    frequency
      [
        (6, map2 (fun i d -> Add (i, d)) key (int_bound 1_000));
        (1, map2 (fun i v -> Mark (i, v)) key (int_bound 5));
        (3, map2 (fun i d -> Expand (i, d)) key (int_bound 1_000));
      ])

(* One domain's calls against the store and its own reference; the first
   disagreement, if any. *)
let run_model store tbl d ops =
  let key i = model_key d i in
  let step op =
    match op with
    | Add (i, depth) ->
      let parent = depth + 1 in
      let want =
        match Hashtbl.find_opt tbl (key i) with
        | None ->
          Hashtbl.replace tbl (key i)
            { m_depth = depth; m_viol = -1; m_expanded = false; m_parent = parent };
          Store.Tiered.Fresh
        | Some r when depth < r.m_depth ->
          r.m_depth <- depth;
          r.m_parent <- parent;
          Store.Tiered.Improved r.m_viol
        | Some _ -> Store.Tiered.Stale
      in
      Store.Tiered.add store (key i) ~parent ~event:(-parent) ~depth = want
    | Mark (i, v) ->
      Option.iter (fun r -> r.m_viol <- v) (Hashtbl.find_opt tbl (key i));
      Store.Tiered.mark_violation store (key i) v;
      true
    | Expand (i, depth) ->
      let want =
        match Hashtbl.find_opt tbl (key i) with
        | Some r when r.m_depth >= depth ->
          if r.m_expanded then `Again r.m_depth
          else begin
            r.m_expanded <- true;
            `First r.m_depth
          end
        | _ -> `Stale
      in
      Store.Tiered.begin_expand store (key i) ~depth = want
  in
  List.find_index (fun op -> not (step op)) ops

let store_model ~domains =
  let print runs =
    Fmt.str "%d domain(s), %a calls" domains Fmt.(list ~sep:comma int) (List.map List.length runs)
  in
  QCheck.Test.make ~count:25
    ~name:
      (Fmt.str "tiered store vs a reference table, %d domain%s" domains
         (if domains = 1 then "" else "s"))
    (QCheck.make ~print
       QCheck.Gen.(list_repeat domains (list_size (int_range 400 1_000) gen_op)))
    (fun runs ->
      let dir = Store.Fs.temp_dir "test-store-model" in
      Fun.protect ~finally:(fun () -> Store.Fs.rm_rf dir) @@ fun () ->
      let store =
        Store.Tiered.create ~shard_cap:16
          ~mem_budget:(Store.Tiered.n_shards * 16 * Store.Tiered.entry_bytes)
          ~spill_dir:dir ~merge_fanout:3 ()
      in
      let tbls = List.map (fun _ -> Hashtbl.create 64) runs in
      let go d (tbl, ops) () = run_model store tbl d ops in
      let outcomes =
        match List.combine tbls runs with
        | [ one ] -> [ go 0 one () ]
        | many -> List.map Domain.join (List.mapi (fun d r -> Domain.spawn (go d r)) many)
      in
      List.iteri
        (fun d o ->
          Option.iter
            (QCheck.Test.fail_reportf "domain %d: call %d answered unlike the reference" d)
            o)
        outcomes;
      let view = Hashtbl.create 256 in
      Store.Tiered.iter store (fun e ->
          if Hashtbl.mem view e.fp then QCheck.Test.fail_reportf "key %d viewed twice" e.fp;
          Hashtbl.replace view e.fp e);
      let want = List.concat_map (fun tbl -> List.of_seq (Hashtbl.to_seq tbl)) tbls in
      List.iter
        (fun (k, r) ->
          match Hashtbl.find_opt view k with
          | None -> QCheck.Test.fail_reportf "key %d missing from the view" k
          | Some (e : Store.Segment.entry) ->
            let depth = Store.Segment.depth e.meta and viol = Store.Segment.violation e.meta in
            let expanded = Store.Segment.expanded e.meta in
            if
              (depth, viol, expanded, e.parent, e.event)
              <> (r.m_depth, r.m_viol, r.m_expanded, r.m_parent, -r.m_parent)
            then
              QCheck.Test.fail_reportf "key %d: depth %d, verdict %d, expanded %b; want %d, %d, %b"
                k depth viol expanded r.m_depth r.m_viol r.m_expanded)
        want;
      let n = List.length want in
      let deepest = List.fold_left (fun m (_, r) -> max m r.m_depth) 0 want in
      let got = (Hashtbl.length view, Store.Tiered.count store, Store.Tiered.max_depth store) in
      if got <> (n, n, deepest) then begin
        let v, c, m = got in
        QCheck.Test.fail_reportf
          "view %d entries, count %d, max_depth %d; reference %d, max depth %d" v c m n deepest
      end;
      (Store.Tiered.stats store).merges > 0 || QCheck.Test.fail_report "no merge happened")

(* -- spill equivalence against the all-RAM checker ---------------------------- *)

(* Two interleaving counters with a violation: enough states to spill
   heavily under a tiny budget, a violation whose shortest trace the
   spilled run must still find.  The store keeps membership exact and
   reads each entry's newest copy, so verdict, invariant, counterexample
   length, state count and depth must all match the all-RAM run. *)
let two_counters ?(bound = 40) () =
  let p : com =
    Com.While (Label.v "w", (fun s -> s < bound), Com.Local_op (Label.v "step", fun s -> [ s + 1; s + 2 ]))
  in
  System.make [| "p"; "q" |] [| proc p 0; proc p 0 |]

let bad_sum sys = (System.proc sys 0).Com.data + (System.proc sys 1).Com.data <> 51

(* the violated invariant and counterexample length, as the cross-check
   harness compares them *)
let violation o = (Reduce.Crosscheck.signature o).Reduce.Crosscheck.violation
let verdict = Alcotest.(option (pair string int))

let test_forced_spill_equivalence () =
  let invariants = [ ("not-51", bad_sum) ] in
  let all_ram = Check.Explore.run ~normal_form:false ~invariants (two_counters ()) in
  let base = violation all_ram in
  List.iter
    (fun jobs ->
      let dir = Store.Fs.temp_dir (Fmt.str "test-store-spill%d" jobs) in
      let o =
        Check.Par_explore.run ~jobs ~normal_form:false ~mem_budget:(48 * 1024)
          ~spill_dir:dir ~invariants (two_counters ())
      in
      (* on a violating instance the states-at-stop count is traversal-order
         dependent; the deterministic contract is invariant + shortest-CE
         length (exact counts are pinned on the clean instance below) *)
      Alcotest.check verdict
        (Fmt.str "spilled run matches all-RAM at jobs=%d" jobs)
        base (violation o);
      Store.Fs.rm_rf dir)
    [ 1; 4 ];
  (* same equivalence on a clean (violation-free) instance, where state
     counts are exactly comparable, plus proof that most states spilled *)
  let p : com =
    Com.While (Label.v "w", (fun s -> s < 60), Com.Local_op (Label.v "step", fun s -> [ s + 1; s + 3 ]))
  in
  let sys () = System.make [| "p"; "q" |] [| proc p 0; proc p 0 |] in
  let seq = Check.Explore.run ~normal_form:false ~invariants:[] (sys ()) in
  let dir = Store.Fs.temp_dir "test-store-spill-clean" in
  let o =
    Check.Par_explore.run ~jobs:2 ~normal_form:false
      ~mem_budget:(Store.Tiered.n_shards * 20 * Store.Tiered.entry_bytes) ~spill_dir:dir
      ~invariants:[] (sys ())
  in
  Alcotest.(check int) "clean states" seq.Check.Explore.states o.Check.Explore.states;
  Alcotest.(check int) "clean transitions" seq.Check.Explore.transitions o.Check.Explore.transitions;
  Alcotest.(check int) "clean deadlocks" seq.Check.Explore.deadlocks o.Check.Explore.deadlocks;
  Alcotest.(check int) "clean depth" seq.Check.Explore.depth o.Check.Explore.depth;
  Alcotest.(check bool) "clean verdict" true (o.Check.Explore.violation = None);
  Store.Fs.rm_rf dir

(* -- checkpoint / resume ------------------------------------------------------ *)

(* Checkpoint a run every few hundred states, load the snapshot back,
   resume, and pin the resumed outcome to the uninterrupted one.  The
   final snapshot is written post-quiescence, so loading it and resuming
   exercises the full store-restore path even without a kill. *)
let test_checkpoint_resume_equivalence () =
  let invariants = [ ("not-51", bad_sum) ] in
  let uninterrupted =
    Check.Par_explore.run ~jobs:2 ~normal_form:false ~invariants (two_counters ())
  in
  let dir = Store.Fs.temp_dir "test-store-ckpt" in
  let o =
    Check.Par_explore.run ~jobs:2 ~normal_form:false ~checkpoint:(dir, 300) ~invariants
      (two_counters ())
  in
  Alcotest.check verdict "checkpointed run unaffected" (violation uninterrupted) (violation o);
  (match Store.Checkpoint.manifest dir with
  | Error msg -> Alcotest.failf "manifest: %s" msg
  | Ok (seq, _) -> Alcotest.(check bool) "snapshots were written" true (seq >= 1));
  (match Store.Checkpoint.load dir with
  | Error msg -> Alcotest.failf "load: %s" msg
  | Ok snap ->
    let r =
      Check.Par_explore.run ~jobs:2 ~normal_form:false ~resume:snap ~invariants (two_counters ())
    in
    Alcotest.check verdict "resumed verdict + CE length" (violation uninterrupted) (violation r));
  Store.Fs.rm_rf dir

(* A mid-run snapshot (not the final one): checkpoint with a tiny
   interval, grab the first snapshot as soon as the manifest appears by
   racing the run from another domain, then resume from that strictly
   partial snapshot and require the uninterrupted verdict.  This is the
   in-process analogue of the CI SIGKILL smoke. *)
let test_resume_from_mid_run_snapshot () =
  let uninterrupted =
    Check.Explore.run ~normal_form:false ~invariants:[] (two_counters ())
  in
  let dir = Store.Fs.temp_dir "test-store-midrun" in
  let snap_holder = ref None in
  let grabber =
    Domain.spawn (fun () ->
        let deadline = Unix.gettimeofday () +. 30. in
        let rec poll () =
          if Unix.gettimeofday () > deadline then ()
          else
            match Store.Checkpoint.manifest dir with
            | Ok (seq, _) when seq >= 1 -> (
              match Store.Checkpoint.load dir with
              | Ok snap when snap.Store.Checkpoint.states > 0 -> snap_holder := Some snap
              | _ -> poll ())
            | _ ->
              Unix.sleepf 0.002;
              poll ()
        in
        poll ())
  in
  let full =
    Check.Par_explore.run ~jobs:1 ~normal_form:false ~checkpoint:(dir, 200) ~invariants:[]
      (two_counters ())
  in
  Domain.join grabber;
  (match !snap_holder with
  | None -> Alcotest.fail "no snapshot captured while the run was live"
  | Some snap ->
    let r =
      Check.Par_explore.run ~jobs:2 ~normal_form:false ~resume:snap ~invariants:[]
        (two_counters ())
    in
    Alcotest.(check int)
      (Fmt.str "resume from snapshot %d (%d states) completes the space"
         snap.Store.Checkpoint.seq snap.Store.Checkpoint.states)
      uninterrupted.Check.Explore.states r.Check.Explore.states;
    Alcotest.(check int) "transitions" uninterrupted.Check.Explore.transitions
      r.Check.Explore.transitions;
    Alcotest.(check int) "depth" uninterrupted.Check.Explore.depth r.Check.Explore.depth;
    Alcotest.(check bool) "clean" true (r.Check.Explore.violation = None));
  Alcotest.(check int) "checkpointed run itself is right" uninterrupted.Check.Explore.states
    full.Check.Explore.states;
  Store.Fs.rm_rf dir

(* -- faults through the file layer ---------------------------------------------

   Store.Fs calls a hook before every step; these helpers count the steps
   and fail one of them with the error a failing disk raises. *)

let with_hook hook f =
  Store.Fs.set_hook hook;
  Fun.protect ~finally:(fun () -> Store.Fs.set_hook ignore) f

let injected_msg = "injected fault"
let injected = Sys_error injected_msg

(* fails the [n]th step (from 0) that [p] accepts; domain-safe *)
let fail_nth ?(p = fun _ -> true) n =
  let seen = Atomic.make 0 in
  fun step -> if p step && Atomic.fetch_and_add seen 1 = n then raise injected

(* a hook recording every step, and the steps recorded so far in order *)
let step_log () =
  let m = Mutex.create () and log = ref [] in
  ((fun step -> Mutex.protect m (fun () -> log := step :: !log)), fun () -> List.rev !log)

let raises_injected what f =
  match f () with
  | _ -> Alcotest.failf "%s: the run returned" what
  | exception Sys_error msg when msg = injected_msg -> ()

(* The fault loops write hundreds of snapshots, and their fsyncs are
   nearly all of the cost (the faults come from the hook, not the disk),
   so they run on tmpfs where the host has one. *)
let on_tmpfs f =
  let saved = Filename.get_temp_dir_name () in
  if Sys.file_exists "/dev/shm" && Sys.is_directory "/dev/shm" then
    Filename.set_temp_dir_name "/dev/shm";
  Fun.protect ~finally:(fun () -> Filename.set_temp_dir_name saved) f

let under dir path = path = dir || String.starts_with ~prefix:(dir ^ "/") path

(* the path a step creates, changes or removes *)
let target = function
  | Store.Fs.Mkdir p | Write p | Fsync p | Remove p -> p
  | Rename (_, p) | Link (_, p) -> p

let pp_step ppf step =
  let name =
    match step with
    | Store.Fs.Mkdir _ -> "mkdir"
    | Write _ -> "write"
    | Fsync _ -> "fsync"
    | Rename _ -> "rename to"
    | Link _ -> "link to"
    | Remove _ -> "remove"
  in
  Fmt.pf ppf "%s %s" name (target step)

(* Crash recovery.  A half-written snapshot (tmp-snap debris, a torn
   manifest) must be invisible — load still returns the last complete
   snapshot, and the next checkpointed run garbage-collects the debris.
   Then a fault at every step of a budgeted run's second snapshot write:
   load must return the first snapshot if the fault came before the
   manifest's rename and the second after it, and resuming it must reach
   the uninterrupted run's counts. *)
let test_crash_mid_checkpoint_recovery () =
  let dir = Store.Fs.temp_dir "test-store-crash" in
  let o =
    Check.Par_explore.run ~jobs:1 ~normal_form:false ~checkpoint:(dir, 500) ~invariants:[]
      (two_counters ())
  in
  (* simulate a crash mid-write: partial snapshot dir + torn manifest *)
  let tmp = Filename.concat dir "tmp-snap" in
  Unix.mkdir tmp 0o755;
  Out_channel.with_open_bin (Filename.concat tmp "state.json") (fun oc ->
      Out_channel.output_string oc "{\"schema\":1,\"truncat");
  Out_channel.with_open_bin (Filename.concat dir "MANIFEST.json.tmp") (fun oc ->
      Out_channel.output_string oc "{\"schema\":1,\"latest\":\"snap-99");
  (match Store.Checkpoint.load dir with
  | Error msg -> Alcotest.failf "load after simulated crash: %s" msg
  | Ok snap ->
    Alcotest.(check int) "last complete snapshot survives" o.Check.Explore.states
      snap.Store.Checkpoint.states;
    (* resume completes instantly (final snapshot: empty frontier) with
       the identical verdict *)
    let r =
      Check.Par_explore.run ~jobs:1 ~normal_form:false ~resume:snap ~invariants:[]
        (two_counters ())
    in
    Alcotest.(check int) "states preserved" o.Check.Explore.states r.Check.Explore.states);
  (* the next write sweeps the debris *)
  let dir2_run =
    Check.Par_explore.run ~jobs:1 ~normal_form:false ~checkpoint:(dir, 500) ~invariants:[]
      (two_counters ())
  in
  ignore dir2_run;
  Alcotest.(check bool) "tmp-snap swept" false (Sys.file_exists tmp);
  Store.Fs.rm_rf dir;
  (* every step of the second snapshot write *)
  on_tmpfs @@ fun () ->
  let bound = 14 in
  let reference = Check.Explore.run ~normal_form:false ~invariants:[] (two_counters ~bound ()) in
  let budget = Store.Tiered.n_shards * 16 * Store.Tiered.entry_bytes in
  let run root =
    Check.Par_explore.run ~jobs:1 ~normal_form:false ~mem_budget:budget
      ~spill_dir:(Filename.concat root "spill")
      ~checkpoint:(Filename.concat root "ckpt", 2 * reference.Check.Explore.states / 5)
      ~invariants:[] (two_counters ~bound ())
  in
  let root = Store.Fs.temp_dir "test-store-steps" in
  let log, logged = step_log () in
  ignore (with_hook log (fun () -> run root));
  let steps = Array.of_list (logged ()) in
  let ckpt = Filename.concat root "ckpt" in
  Store.Fs.rm_rf root;
  let find_from i p =
    let rec go i = if i >= Array.length steps || p steps.(i) then i else go (i + 1) in
    go i
  in
  let is_tmp_mkdir = ( = ) (Store.Fs.Mkdir (Filename.concat ckpt "tmp-snap")) in
  let first = find_from (find_from 0 is_tmp_mkdir + 1) is_tmp_mkdir in
  (* at one worker nothing else runs while a snapshot is written *)
  let stop = find_from first (fun s -> not (under ckpt (target s))) in
  let published =
    find_from first (function
      | Store.Fs.Rename (_, dst) -> dst = Filename.concat ckpt "MANIFEST.json"
      | _ -> false)
  in
  Alcotest.(check bool) "a second snapshot write with a manifest rename" true
    (first < published && published < stop);
  Alcotest.(check bool) "it links spilled segments" true
    (Array.exists (function Store.Fs.Link _ -> true | _ -> false) (Array.sub steps first (stop - first)));
  for k = first to stop - 1 do
    let root = Store.Fs.temp_dir "test-store-step" in
    let what = Fmt.str "fault at step %d (%a)" k pp_step steps.(k) in
    raises_injected what (fun () -> with_hook (fail_nth k) (fun () -> run root));
    (match Store.Checkpoint.load ~mem_budget:budget (Filename.concat root "ckpt") with
    | Error msg -> Alcotest.failf "%s: load: %s" what msg
    | Ok snap ->
      Alcotest.(check int) (what ^ ": snapshot") (if k <= published then 1 else 2)
        snap.Store.Checkpoint.seq;
      let r =
        Check.Par_explore.run ~jobs:1 ~normal_form:false ~resume:snap ~invariants:[]
          (two_counters ~bound ())
      in
      Alcotest.(check (pair int int)) (what ^ ": resumed counts")
        (reference.Check.Explore.states, reference.Check.Explore.transitions)
        (r.Check.Explore.states, r.Check.Explore.transitions));
    Store.Fs.rm_rf root
  done

(* Publication order, over the step log of one snapshot write and one
   certificate write.  Each rename publishes the files written under its
   source (the renamed file, or every file of the renamed directory) and
   those written next to its target (a certificate's table.seg): each is
   fsynced after its last write and before the rename, a renamed
   directory too, and the target's directory is fsynced after the rename
   and before the next one. *)
let check_publication_order what steps =
  let steps = Array.of_list steps in
  let n = Array.length steps in
  let indices p = List.filter (fun i -> p steps.(i)) (List.init n Fun.id) in
  let renames = indices (function Store.Fs.Rename _ -> true | _ -> false) in
  Alcotest.(check bool) (what ^ ": publishes by rename") true (renames <> []);
  let fsynced path ~after ~before =
    List.exists (fun i -> after < i && i < before && steps.(i) = Store.Fs.Fsync path) (List.init n Fun.id)
  in
  List.iteri
    (fun r i ->
      match steps.(i) with
      | Store.Fs.Rename (src, dst) ->
        let next = Option.value (List.nth_opt renames (r + 1)) ~default:n in
        let written =
          List.sort_uniq compare
            (List.filter_map
               (fun j ->
                 match steps.(j) with
                 | (Store.Fs.Write p | Link (_, p))
                   when j < i && (under src p || Filename.dirname p = Filename.dirname dst) ->
                   Some p
                 | _ -> None)
               (List.init n Fun.id))
        in
        let last_write p =
          List.fold_left max (-1)
            (indices (function Store.Fs.Write q | Link (_, q) -> q = p | _ -> false))
        in
        Alcotest.(check bool) (Fmt.str "%s: %s publishes files" what dst) true (written <> []);
        List.iter
          (fun p ->
            Alcotest.(check bool)
              (Fmt.str "%s: %s fsynced before it is published as %s" what p dst)
              true
              (fsynced p ~after:(last_write p) ~before:i))
          written;
        if List.exists (fun p -> p <> src && under src p) written then
          Alcotest.(check bool) (Fmt.str "%s: directory %s fsynced before its rename" what src)
            true
            (fsynced src ~after:(List.fold_left max (-1) (List.map last_write written)) ~before:i);
        Alcotest.(check bool)
          (Fmt.str "%s: %s's directory fsynced after the rename" what dst)
          true
          (fsynced (Filename.dirname dst) ~after:i ~before:next)
      | _ -> ())
    renames

let test_publication_order () =
  let root = Store.Fs.temp_dir "test-store-order" in
  Fun.protect ~finally:(fun () -> Store.Fs.rm_rf root) @@ fun () ->
  let store =
    Store.Tiered.create
      ~mem_budget:(Store.Tiered.n_shards * 16 * Store.Tiered.entry_bytes)
      ~spill_dir:(Filename.concat root "spill") ()
  in
  for i = 1 to 4_000 do
    ignore (Store.Tiered.add store ((i * 2654435761) lor 1) ~parent:0 ~event:0 ~depth:1)
  done;
  let log, logged = step_log () in
  with_hook log (fun () ->
      Store.Checkpoint.write ~dir:(Filename.concat root "ckpt") ~seq:1 ~config:Obs.Json.Null
        ~store ~states:4_000 ~transitions:0 ~deadlocks:0 ~truncated:false ~elapsed_s:0.
        ~best:None ~frontier:[||]);
  let snapshot = logged () in
  Alcotest.(check bool) "the snapshot links spilled segments" true
    (List.exists (function Store.Fs.Link _ -> true | _ -> false) snapshot);
  check_publication_order "snapshot" snapshot;
  let entries =
    Array.init 100 (fun i ->
        {
          Store.Segment.fp = i + 1;
          parent = 0;
          event = 0;
          meta = Store.Segment.word ~depth:(min i 1) ~violation:(-1) ~expanded:true;
        })
  in
  let log, logged = step_log () in
  (match
     with_hook log (fun () ->
         Certify.Writer.write ~dir:(Filename.concat root "cert") ~config_hash:"order"
           ~reduce:"none" ~invariant_names:[] ~run_config:Obs.Json.Null ~max_depth:1 entries)
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "certificate write: %s" msg);
  check_publication_order "certificate" (logged ())

(* A worker whose disk step fails stops the whole pool: a failed spill
   write, and separately a failed snapshot write at the checkpoint
   rendezvous, make a two-worker run raise the injected error instead of
   leaving the other worker spinning. *)
let test_disk_fault_stops_the_pool () =
  let root = Store.Fs.temp_dir "test-store-fault" in
  Fun.protect ~finally:(fun () -> Store.Fs.rm_rf root) @@ fun () ->
  let spill = Filename.concat root "spill" and ckpt = Filename.concat root "ckpt" in
  let write_in dir = function Store.Fs.Write p -> under dir p | _ -> false in
  raises_injected "a failed spill write" (fun () ->
      with_hook (fail_nth ~p:(write_in spill) 3) (fun () ->
          Check.Par_explore.run ~jobs:2 ~normal_form:false
            ~mem_budget:(Store.Tiered.n_shards * 20 * Store.Tiered.entry_bytes) ~spill_dir:spill
            ~invariants:[] (two_counters ())));
  raises_injected "a failed snapshot write" (fun () ->
      with_hook (fail_nth ~p:(write_in ckpt) 0) (fun () ->
          Check.Par_explore.run ~jobs:2 ~normal_form:false ~checkpoint:(ckpt, 300) ~invariants:[]
            (two_counters ())))

(* No temporary directory outlives its run.  With the temp dir pointed at
   an empty directory, a budgeted run (which fsyncs nothing: no
   checkpoint publishes its segments), a run that raises mid-spill, and
   a resume of a budgeted checkpoint each leave it empty; an explicit
   spill directory stays. *)
let test_no_temp_dir_outlives_its_run () =
  let kept = Store.Fs.temp_dir "test-store-kept" and tmp = Store.Fs.temp_dir "test-store-tmp" in
  let saved = Filename.get_temp_dir_name () in
  Filename.set_temp_dir_name tmp;
  Fun.protect ~finally:(fun () ->
      Filename.set_temp_dir_name saved;
      Store.Fs.rm_rf kept;
      Store.Fs.rm_rf tmp)
  @@ fun () ->
  let left () = Array.to_list (Sys.readdir tmp) in
  let empty what = Alcotest.(check (list string)) (what ^ " leaves the temp dir empty") [] (left ()) in
  let budget = Store.Tiered.n_shards * 20 * Store.Tiered.entry_bytes in
  let run ?spill_dir ?checkpoint ?resume () =
    Check.Par_explore.run ~jobs:2 ~normal_form:false ~mem_budget:budget ?spill_dir ?checkpoint
      ?resume ~invariants:[] (two_counters ())
  in
  let log, logged = step_log () in
  ignore (with_hook log (fun () -> run ()));
  let is_write = function Store.Fs.Write _ -> true | _ -> false in
  Alcotest.(check bool) "the budgeted run spilled" true (List.exists is_write (logged ()));
  Alcotest.(check bool) "and fsynced nothing" false
    (List.exists (function Store.Fs.Fsync _ -> true | _ -> false) (logged ()));
  empty "a budgeted run";
  raises_injected "a run failing mid-spill" (fun () ->
      with_hook (fail_nth ~p:is_write 3) (fun () -> run ()));
  empty "a run that raised mid-spill";
  let ckpt = Filename.concat kept "ckpt" in
  ignore (run ~checkpoint:(ckpt, 300) ());
  empty "a checkpointed budgeted run";
  (match Store.Checkpoint.load ~mem_budget:budget ckpt with
  | Error msg -> Alcotest.failf "load: %s" msg
  | Ok snap ->
    Alcotest.(check bool) "the loaded store has its own temp dir" true (left () <> []);
    ignore (run ~resume:snap ()));
  empty "a resume of a budgeted checkpoint";
  let spill = Filename.concat kept "spill" in
  ignore (run ~spill_dir:spill ());
  Alcotest.(check bool) "an explicit spill dir stays, with its segments" true
    (Sys.readdir spill <> [||])

(* A snapshot keeps its segments when a later run spills into the same
   directory: writes replace a file instead of rewriting it in place, so
   the snapshot's hard links keep their bytes and it still resumes. *)
let test_snapshot_survives_spill_dir_reuse () =
  let root = Store.Fs.temp_dir "test-store-reuse" in
  Fun.protect ~finally:(fun () -> Store.Fs.rm_rf root) @@ fun () ->
  let spill = Filename.concat root "spill" and ckpt = Filename.concat root "ckpt" in
  let budget = Store.Tiered.n_shards * 16 * Store.Tiered.entry_bytes in
  let reference = Check.Explore.run ~normal_form:false ~invariants:[] (two_counters ~bound:20 ()) in
  (* stop at the first expansion after the first snapshot is published *)
  let stop ~worker:_ ~depth:_ =
    if Sys.file_exists (Filename.concat ckpt "MANIFEST.json") then raise Exit
  in
  (match
     Check.Par_explore.run ~jobs:1 ~normal_form:false ~mem_budget:budget ~spill_dir:spill
       ~hooks:{ Check.Par_explore.no_hooks with on_expand = stop }
       ~checkpoint:(ckpt, reference.Check.Explore.states / 2)
       ~invariants:[] (two_counters ~bound:20 ())
   with
  | _ -> Alcotest.fail "the run closed before its first snapshot"
  | exception Exit -> ());
  (* another model spills under the same segment names *)
  let p : com =
    Com.While (Label.v "w", (fun s -> s < 30), Com.Local_op (Label.v "step", fun s -> [ s + 1; s + 3 ]))
  in
  ignore
    (Check.Par_explore.run ~jobs:1 ~normal_form:false ~mem_budget:budget ~spill_dir:spill
       ~invariants:[] (System.make [| "p"; "q" |] [| proc p 0; proc p 0 |]));
  match Store.Checkpoint.load ~mem_budget:budget ckpt with
  | Error msg -> Alcotest.failf "load: %s" msg
  | Ok snap ->
    let r =
      Check.Par_explore.run ~jobs:1 ~normal_form:false ~resume:snap ~invariants:[]
        (two_counters ~bound:20 ())
    in
    Alcotest.(check (pair int int)) "the snapshot resumes to the uninterrupted counts"
      (reference.Check.Explore.states, reference.Check.Explore.transitions)
      (r.Check.Explore.states, r.Check.Explore.transitions)

(* Resuming against the wrong model must be refused, not silently
   diverge. *)
let test_resume_model_mismatch_refused () =
  let dir = Store.Fs.temp_dir "test-store-mismatch" in
  ignore
    (Check.Par_explore.run ~jobs:1 ~normal_form:false ~checkpoint:(dir, 100) ~invariants:[]
       (two_counters ()));
  (match Store.Checkpoint.load dir with
  | Error msg -> Alcotest.failf "load: %s" msg
  | Ok snap ->
    let other =
      let p : com = Com.Local_op (Label.v "p", fun s -> [ s + 1 ]) in
      System.make [| "solo" |] [| proc p 100 |]
    in
    Alcotest.check_raises "mismatched model refused"
      (Invalid_argument "Par_explore.run: checkpoint does not match this model configuration")
      (fun () ->
        ignore (Check.Par_explore.run ~jobs:1 ~normal_form:false ~resume:snap ~invariants:[] other)));
  Store.Fs.rm_rf dir

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    (try Unix.mkdir dst 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Array.iter (fun f -> copy_tree (Filename.concat src f) (Filename.concat dst f)) (Sys.readdir src)
  end
  else
    Out_channel.with_open_bin dst (fun oc ->
        Out_channel.output_string oc (In_channel.with_open_bin src In_channel.input_all))

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let parse what s =
  match Obs.Json.of_string s with Ok j -> j | Error e -> Alcotest.failf "%s: %s" what e

(* the smallest budget: 16 entries a shard *)
let floor_budget = Store.Tiered.n_shards * 16 * Store.Tiered.entry_bytes

(* A copy of a budgeted run's first snapshot, taken at the first
   expansion after it is published: a mid-run snapshot, with a non-empty
   frontier and live segments. *)
let mid_run_snapshot name =
  let dir = Store.Fs.temp_dir (name ^ "-run") and mid = Store.Fs.temp_dir name in
  let copied = ref false in
  let hooks =
    {
      Check.Par_explore.no_hooks with
      on_expand =
        (fun ~worker:_ ~depth:_ ->
          if (not !copied) && Sys.file_exists (Filename.concat dir "MANIFEST.json") then begin
            copied := true;
            copy_tree dir mid
          end);
    }
  in
  ignore
    (Check.Par_explore.run ~jobs:1 ~normal_form:false ~hooks ~mem_budget:floor_budget
       ~checkpoint:(dir, 1200)
       ~invariants:[] (two_counters ()));
  Store.Fs.rm_rf dir;
  Alcotest.(check bool) "a mid-run snapshot was copied" true !copied;
  mid

(* the directory of [dir]'s latest snapshot *)
let latest_snap dir =
  match Store.Checkpoint.manifest dir with
  | Error msg -> Alcotest.failf "manifest: %s" msg
  | Ok (seq, _) -> Filename.concat dir (Fmt.str "snap-%d" seq)

(* [load] that releases the temporary store directory of a snapshot it
   accepts *)
let load_snapshot dir =
  Result.map
    (fun snap -> Option.iter Store.Fs.rm_rf (Store.Tiered.temp_dir snap.Store.Checkpoint.store))
    (Store.Checkpoint.load dir)

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* Segments fail closed.  A snapshot whose tier-0 dump or live segment is
   truncated (in its header or its data), has header bytes overwritten,
   or has one bit flipped near its end (damage that still decodes, and
   that a resume would otherwise explore from as if it were the model's),
   is refused by [load] naming the file; a budgeted run whose spilled
   segments are truncated under it raises the Sys_error of an I/O
   failure, naming a segment. *)
let test_damaged_segments_refused () =
  let mid = mid_run_snapshot "test-store-damaged" in
  let spill = Store.Fs.temp_dir "test-store-damaged-spill" in
  Fun.protect ~finally:(fun () ->
      Store.Fs.rm_rf mid;
      Store.Fs.rm_rf spill)
  @@ fun () ->
  let snap = latest_snap mid in
  let first prefix =
    let names = List.sort compare (Array.to_list (Sys.readdir snap)) in
    match List.find_opt (String.starts_with ~prefix) names with
    | Some name -> name
    | None -> Alcotest.failf "no %s segment in the snapshot" prefix
  in
  let damages =
    [
      ("truncated to 10 bytes", fun s -> String.sub s 0 10);
      ("without its last byte", fun s -> String.sub s 0 (String.length s - 1));
      ( "with bytes 9-11 overwritten",
        fun s -> String.sub s 0 9 ^ "\xff\xff\xff" ^ String.sub s 12 (String.length s - 12) );
      ( "with a bit flipped 3 bytes before its end",
        fun s ->
          let b = Bytes.of_string s and i = String.length s - 3 in
          Bytes.set b i (Char.chr (Char.code s.[i] lxor 0x01));
          Bytes.to_string b );
    ]
  in
  List.iter
    (fun name ->
      let path = Filename.concat snap name in
      let original = read_file path in
      List.iter
        (fun (what, damage) ->
          write_file path (damage original);
          let loaded = load_snapshot mid in
          write_file path original;
          match loaded with
          | Ok () -> Alcotest.failf "a snapshot with %s %s was loaded" name what
          | Error msg ->
            Alcotest.(check bool) (Fmt.str "%s %s: %S names it" name what msg) true (contains msg path);
            Alcotest.(check string)
              (Fmt.str "%s %s: refused by its digest, before decoding" name what)
              ("snapshot load failed: " ^ path ^ ": segment digest mismatch")
              msg)
        damages)
    [ first "t0-"; first "shard" ];
  Alcotest.(check (result unit string)) "the undamaged snapshot loads" (Ok ()) (load_snapshot mid);
  let truncated = ref [] in
  let on_expand ~worker:_ ~depth:_ =
    if !truncated = [] then begin
      truncated :=
        List.filter (fun f -> Filename.check_suffix f ".seg") (Array.to_list (Sys.readdir spill));
      List.iter (fun f -> Unix.truncate (Filename.concat spill f) 10) !truncated
    end
  in
  match
    Check.Par_explore.run ~jobs:1 ~normal_form:false ~mem_budget:floor_budget ~spill_dir:spill
      ~hooks:{ Check.Par_explore.no_hooks with on_expand } ~invariants:[] (two_counters ())
  with
  | _ -> Alcotest.failf "the run finished on %d truncated segments" (List.length !truncated)
  | exception Sys_error msg ->
    Alcotest.(check bool) (Fmt.str "%S names a truncated segment" msg) true
      (List.exists
         (fun f -> msg = Filename.concat spill f ^ ": truncated or corrupt segment")
         !truncated)

(* [doc] with member [k] set to [v] *)
let set k v = function
  | Obs.Json.Obj kvs -> Obs.Json.Obj (List.map (fun (k', x) -> (k', if k' = k then v else x)) kvs)
  | j -> j

(* A checkpoint of an older schema is refused by name.  Schema 2 stored
   fingerprints mixed without slot hashes, which no run produces now,
   so its frontier could not be found in its own store.  Its manifest,
   and a state.json behind a current manifest, are each refused naming
   the document and the schema found; `gcmodel resume` prints that as one
   line and exits 1. *)
let test_old_schema_refused () =
  let ckpt = Store.Fs.temp_dir "test-store-schema" in
  Fun.protect ~finally:(fun () -> Store.Fs.rm_rf ckpt) @@ fun () ->
  Alcotest.(check (pair int (list string))) "checkpointed explore" (0, [])
    (Test_core.run_tool
       [ "explore"; "--refs"; "2"; "--ops"; "1"; "--reduce"; "none"; "--checkpoint"; ckpt ]);
  let schema_2 path f =
    let original = read_file path in
    write_file path (Obs.Json.to_string (set "schema" (Obs.Json.Int 2) (parse path original)));
    Fun.protect ~finally:(fun () -> write_file path original) f
  in
  let manifest = Filename.concat ckpt "MANIFEST.json" in
  let state = Filename.concat (latest_snap ckpt) "state.json" in
  List.iter
    (fun (doc, path) ->
      let refusal = doc ^ ": schema 2, expected 3" in
      schema_2 path (fun () ->
          Alcotest.(check (result unit string)) (doc ^ ": load refuses schema 2") (Error refusal)
            (load_snapshot ckpt);
          Alcotest.(check (pair int (list string))) (doc ^ ": resume refuses schema 2")
            (1, [ "gcmodel resume: " ^ refusal ])
            (Test_core.run_tool [ "resume"; ckpt ])))
    [ ("MANIFEST.json", manifest); ("state.json", state) ];
  Alcotest.(check (pair int (list string))) "the untouched checkpoint resumes" (0, [])
    (Test_core.run_tool [ "resume"; ckpt ])

(* -- every run document is read fail-closed -------------------------------------

   Every way a reader can be handed a bad document: for each object field
   the document without it, and for each leaf (a scalar or an empty list,
   list elements included) the document with the leaf replaced by a
   value of another JSON type; never [null], so a nullable leaf is
   refused too.  Paths are spelt as Obs.Json.Decode names them.  [skip]
   lists the fields a reader ignores by design, [opaque] those it
   requires but does not look into. *)
let mutations ~skip ~opaque doc =
  let join path k = if path = "" then k else path ^ "." ^ k in
  let rec go path j rebuild acc =
    match j with
    | Obs.Json.Obj (_ :: _ as kvs) ->
      List.fold_left
        (fun acc (k, v) ->
          let p = join path k in
          if List.mem p skip then acc
          else
            let acc = (p, rebuild (Obs.Json.Obj (List.remove_assoc k kvs))) :: acc in
            if List.mem p opaque then acc else go p v (fun v' -> rebuild (set k v' j)) acc)
        acc kvs
    | Obs.Json.List (_ :: _ as vs) ->
      snd
        (List.fold_left
           (fun (i, acc) v ->
             ( i + 1,
               go (Fmt.str "%s[%d]" path i) v
                 (fun v' -> rebuild (Obs.Json.List (List.mapi (fun i' x -> if i' = i then v' else x) vs)))
                 acc ))
           (0, acc) vs)
    | Obs.Json.Null -> (path, rebuild (Obs.Json.Bool true)) :: acc
    | Obs.Json.Bool _ -> (path, rebuild (Obs.Json.Int 1)) :: acc
    | Obs.Json.Int _ | Obs.Json.Float _ -> (path, rebuild (Obs.Json.String "x")) :: acc
    | Obs.Json.String _ | Obs.Json.List [] | Obs.Json.Obj [] -> (path, rebuild (Obs.Json.Int 7)) :: acc
  in
  List.rev (go "" doc Fun.id [])

(* [read] hands a document to its reader: [Error] is the refusal's
   message.  The untouched document must read (last: reading it may
   advance the run it belongs to), and every mutation, plus the [extra]
   (path, document) pairs, must be refused naming its path as
   "DOC: missing or malformed PATH". *)
let refused_by_path ?(extra = []) ~doc ~skip ~opaque ~read json =
  let cases = mutations ~skip ~opaque json @ extra in
  List.iter
    (fun (path, bad) ->
      let expected = Fmt.str "%s: missing or malformed %s" doc path in
      match read bad with
      | Ok () -> Alcotest.failf "%s: a malformed %s was accepted" doc path
      | Error msg ->
        if not (String.ends_with ~suffix:expected msg) then
          Alcotest.failf "%s: the refusal %S does not name %s" doc msg path)
    cases;
  (match read json with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: the untouched document is refused: %s" doc msg);
  List.length cases

let test_run_documents_refused_by_path () =
  let checked = ref [] in
  let count doc n = checked := (doc, n) :: !checked in
  (* MANIFEST.json and state.json of a budgeted mid-run snapshot, and
     state.json of a violating run's final snapshot (its [best] cell
     set); both files are rewritten in place and read by [load] *)
  let mid = mid_run_snapshot "test-store-documents" in
  let violating = Store.Fs.temp_dir "test-store-documents-best" in
  Fun.protect ~finally:(fun () ->
      Store.Fs.rm_rf mid;
      Store.Fs.rm_rf violating)
  @@ fun () ->
  ignore
    (Check.Par_explore.run ~jobs:1 ~normal_form:false ~checkpoint:(violating, 100_000)
       ~invariants:[ ("not-51", bad_sum) ] (two_counters ()));
  (* [path] of checkpoint [dir] holds [json] while [dir] loads *)
  let rewritten dir path json =
    let original = read_file path in
    write_file path (Obs.Json.to_string json);
    Fun.protect ~finally:(fun () -> write_file path original) (fun () -> load_snapshot dir)
  in
  let manifest = Filename.concat mid "MANIFEST.json" in
  count "MANIFEST.json"
    (refused_by_path ~doc:"MANIFEST.json" ~skip:[] ~opaque:[ "config" ]
       ~read:(rewritten mid manifest) (parse manifest (read_file manifest)));
  let state dir = Filename.concat (latest_snap dir) "state.json" in
  let mid_state = parse "state.json" (read_file (state mid)) in
  let field k = function Obs.Json.Obj kvs -> List.assoc k kvs | _ -> Alcotest.fail k in
  let has_segments =
    match field "shards" mid_state with
    | Obs.Json.List shards -> List.exists (fun sh -> field "segs" sh <> Obs.Json.List []) shards
    | _ -> false
  in
  Alcotest.(check bool) "the mid-run snapshot has live segments" true has_segments;
  (* a frontier task that is not an [fp, depth] pair *)
  let short_task =
    match field "frontier" mid_state with
    | Obs.Json.List workers -> (
      match List.find_index (fun w -> w <> Obs.Json.List []) workers with
      | None -> Alcotest.fail "the mid-run snapshot has an empty frontier"
      | Some w ->
        let cut = function
          | Obs.Json.List (Obs.Json.List (fp :: _) :: rest) ->
            Obs.Json.List (Obs.Json.List [ fp ] :: rest)
          | j -> j
        in
        let workers = List.mapi (fun i x -> if i = w then cut x else x) workers in
        (Fmt.str "frontier[%d][0]" w, set "frontier" (Obs.Json.List workers) mid_state))
    | _ -> Alcotest.fail "frontier is not a list"
  in
  count "state.json (mid-run)"
    (refused_by_path ~doc:"state.json" ~skip:[ "config" ] ~opaque:[] ~extra:[ short_task ]
       ~read:(rewritten mid (state mid)) mid_state);
  let final_state = parse "state.json" (read_file (state violating)) in
  Alcotest.(check bool) "the violating run's snapshot has a best cell" true
    (field "best" final_state <> Obs.Json.Null);
  count "state.json (violation)"
    (refused_by_path ~doc:"state.json" ~skip:[ "config" ] ~opaque:[]
       ~read:(rewritten violating (state violating)) final_state);
  (* CERT.json, read by [read_header] *)
  let cert = Store.Fs.temp_dir "test-store-documents-cert" in
  Fun.protect ~finally:(fun () -> Store.Fs.rm_rf cert) @@ fun () ->
  Alcotest.(check (pair int (list string))) "certifying explore" (0, [])
    (Test_core.run_tool [ "explore"; "--refs"; "2"; "--ops"; "1"; "--certificate"; cert ]);
  let header = Certify.Certificate.header_path cert in
  count "CERT.json"
    (refused_by_path ~doc:"CERT.json" ~skip:[] ~opaque:[ "config" ]
       ~read:(fun j ->
         write_file header (Obs.Json.to_string_pretty j);
         Result.map ignore (Certify.Certificate.read_header cert))
       (parse header (read_file header)));
  (* the run configuration, read as `gcmodel resume` reads it: one
     stderr line and exit 1 on a refusal *)
  let ckpt = Store.Fs.temp_dir "test-store-documents-config" in
  Fun.protect ~finally:(fun () -> Store.Fs.rm_rf ckpt) @@ fun () ->
  Alcotest.(check (pair int (list string))) "checkpointed explore" (0, [])
    (Test_core.run_tool
       [ "explore"; "--refs"; "2"; "--ops"; "1"; "--reduce"; "none"; "--disable"; "mfence";
         "--checkpoint"; ckpt ]);
  let manifest = Filename.concat ckpt "MANIFEST.json" in
  let manifest_json = parse manifest (read_file manifest) in
  count "run configuration"
    (refused_by_path ~doc:"run configuration" ~skip:[] ~opaque:[]
       ~read:(fun config ->
         write_file manifest (Obs.Json.to_string (set "config" config manifest_json));
         match Test_core.run_tool [ "resume"; ckpt ] with
         | 0, [] -> Ok ()
         | 1, [ line ] when String.starts_with ~prefix:"gcmodel resume: " line ->
           Error (String.sub line 16 (String.length line - 16))
         | code, lines -> Alcotest.failf "resume: exit %d, stderr %a" code Fmt.(Dump.list string) lines)
       (field "config" manifest_json));
  (* an exported trace, read by [Check.Trace.import] *)
  let sc =
    Core.Scenario.with_variant
      (Option.get (Core.Variants.by_name "alloc-white"))
      (Core.Scenario.make ~label:"documents" ~n_muts:2 ~n_refs:2 ~shape:"single" ())
  in
  let sys = (Core.Scenario.model sc).Core.Model.system in
  let walk =
    Check.Random_walk.run ~seed:42 ~steps:200_000 ~invariants:(Core.Scenario.invariants sc) sys
  in
  let tr =
    match walk.Check.Random_walk.violation with
    | Some tr -> tr
    | None -> Alcotest.fail "the alloc-white walk found no violation"
  in
  count "trace"
    (refused_by_path ~doc:"trace" ~skip:[ "names"; "length" ] ~opaque:[]
       ~read:(fun j -> Result.map ignore (Check.Trace.import sys j))
       (Check.Trace.to_json tr));
  List.iter
    (fun (doc, n) ->
      Alcotest.(check bool) (Fmt.str "%s: %d malformed documents refused" doc n) true (n > 0))
    !checked

let suite =
  [
    Alcotest.test_case "varint round-trip over the 63-bit range" `Quick test_varint_roundtrip;
    Alcotest.test_case "bloom: no false negatives, rare positives" `Quick
      test_bloom_no_false_negatives;
    Alcotest.test_case "segment write -> bloom -> lookup round-trip" `Quick test_segment_roundtrip;
    Alcotest.test_case "merge correctness under concurrent inserts" `Slow
      test_merge_under_concurrent_inserts;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 27 |]) (store_model ~domains:1);
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 27 |]) (store_model ~domains:4);
    Alcotest.test_case "forced-spill equivalence vs all-RAM" `Slow test_forced_spill_equivalence;
    Alcotest.test_case "checkpoint -> load -> resume equivalence" `Slow
      test_checkpoint_resume_equivalence;
    Alcotest.test_case "resume from a mid-run snapshot" `Slow test_resume_from_mid_run_snapshot;
    Alcotest.test_case "crash mid-checkpoint leaves last snapshot loadable" `Quick
      test_crash_mid_checkpoint_recovery;
    Alcotest.test_case "published files are fsynced before their rename" `Quick
      test_publication_order;
    Alcotest.test_case "a disk fault stops a two-worker run" `Quick
      test_disk_fault_stops_the_pool;
    Alcotest.test_case "no temporary directory outlives its run" `Quick
      test_no_temp_dir_outlives_its_run;
    Alcotest.test_case "a snapshot survives its spill directory's reuse" `Quick
      test_snapshot_survives_spill_dir_reuse;
    Alcotest.test_case "resume against the wrong model is refused" `Quick
      test_resume_model_mismatch_refused;
    Alcotest.test_case "every run document is refused by path" `Quick
      test_run_documents_refused_by_path;
    Alcotest.test_case "damaged segments are refused" `Quick test_damaged_segments_refused;
    Alcotest.test_case "checkpoints of an older schema are refused" `Quick test_old_schema_refused;
  ]

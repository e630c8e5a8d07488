(* The count gate: perfbench's three deterministic units (closure,
   recheck, walk; see perfbench/README.md) run through the same public
   calls, with a counter wrapped around each of the reducer's three hooks
   and each invariant.  It asserts perfbench's exact counts, and an upper
   bound on minor-heap words per state (per step for walk) taken the way
   perfbench takes it: the Gc.quick_stat delta around the unit after
   Gc.compact.  Neither depends on the host's speed, so the gate can
   block on any machine.

   The words bounds sit 5% above the recorded values (closure 1,099,
   recheck 1,071, walk 773 words), so a different 5.1.x patch release
   does not trip them.  Walk's promoted words per step are bounded too,
   at 4 over a recorded 1: a walker keeps one int per step of its run,
   not the states it visited, and one that kept a tail of its states
   alive again (41 promoted words per step) fails here.  A change that
   deliberately moves a count or an allocation re-records the literal
   here.  recheck's table.seg size depends on the fingerprint values
   (the table is delta-compressed in fingerprint order), so a change to
   the fingerprint mix re-pins it too: 989,143 bytes before fingerprints
   mixed one hash per slot, 989,185 since. *)

let paper_cfg ~cycles ~ops =
  let v = Option.get (Core.Variants.by_name "paper") in
  v.Core.Variants.tweak
    {
      Core.Config.default with
      n_muts = 2;
      n_refs = 2;
      n_fields = 1;
      buf_bound = 1;
      max_cycles = cycles;
      max_mut_ops = ops;
    }

let system cfg =
  match Gcheap.Shapes.by_name ~n_refs:2 ~n_fields:1 "single" with
  | Some shape -> (Core.Model.make cfg shape).Core.Model.system
  | None -> Alcotest.fail "shape single missing"

(* Calls through the reducer's hooks and the invariants. *)
type counts = { succ : int ref; fp : int ref; canon : int ref; evals : int ref }

let counted c f x =
  incr c;
  f x

let invariants_of cfg =
  List.map (fun i -> (i.Core.Invariants.name, i.Core.Invariants.check)) (Core.Invariants.all cfg)

let instrument cfg (r : _ Check.Reducer.t) =
  let c = { succ = ref 0; fp = ref 0; canon = ref 0; evals = ref 0 } in
  let r =
    {
      r with
      Check.Reducer.successors = counted c.succ r.successors;
      fingerprint = counted c.fp r.fingerprint;
      canon_state = counted c.canon r.canon_state;
    }
  in
  (c, r, List.map (fun (name, f) -> (name, counted c.evals f)) (invariants_of cfg))

let reducer_all cfg = Option.get (Core.Reduction.reducer cfg Reduce.Mode.All)

(* Minor-heap words allocated and words promoted, per item. *)
type words = { minor : float; promoted : float }

let words_per_item ~items f =
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  let per w0 w1 = Float.round ((w1 -. w0) /. float_of_int items) in
  ( r,
    {
      minor = per g0.Gc.minor_words g1.Gc.minor_words;
      promoted = per g0.Gc.promoted_words g1.Gc.promoted_words;
    } )

let check_counts c (r : _ Check.Reducer.t) ~succ ~fp ~canon ~evals ~sym ~nulled ~deferred =
  let eq what want got = Alcotest.(check int) what want got in
  eq "successor calls" succ !(c.succ);
  eq "fingerprint calls" fp !(c.fp);
  eq "canon calls" canon !(c.canon);
  eq "invariant evals" evals !(c.evals);
  eq "sym_permuted" sym (Atomic.get r.sym_permuted);
  eq "reg_nulled" nulled (Atomic.get r.reg_nulled);
  eq "deferred" deferred (Atomic.get r.deferred)

let check_words ?(kind = "minor") ~bound words =
  let msg = Printf.sprintf "%.0f %s words per item, bound %.0f" words kind bound in
  print_endline msg;
  if words > bound then Alcotest.fail msg

let closure_cfg = paper_cfg ~cycles:2 ~ops:1
let states = 61_070

let closure_counts c r =
  check_counts c r ~succ:states ~fp:166_679 ~canon:states ~evals:1_099_260 ~sym:61_944
    ~nulled:68_707 ~deferred:40_091

let test_closure () =
  let reducer = reducer_all closure_cfg in
  let c, r, invariants = instrument closure_cfg reducer in
  let sys = system closure_cfg in
  let o, words =
    words_per_item ~items:states (fun () ->
        Check.Par_explore.run ~jobs:1 ~reducer:r ~invariants sys)
  in
  Alcotest.(check bool) "no violation" true (o.Check.Explore.violation = None);
  Alcotest.(check (list int)) "states, transitions, depth" [ states; 166_678; 249 ]
    [ o.Check.Explore.states; o.transitions; o.depth ];
  closure_counts c reducer;
  check_words ~bound:1_154. words.minor

let test_recheck () =
  let cfg = closure_cfg in
  let dir = Store.Fs.temp_dir "gccounts-test" in
  Fun.protect ~finally:(fun () -> Store.Fs.rm_rf dir) @@ fun () ->
  let invariants = invariants_of cfg in
  let _, table = Certify.Writer.explore ~reducer:(reducer_all cfg) ~invariants (system cfg) in
  let entries, max_depth = Test_certify.ok_or_fail "certificate table" table in
  ignore
    (Test_certify.ok_or_fail "certificate write"
       (Certify.Writer.write ~dir ~config_hash:(Core.Config.hash cfg)
          ~reduce:(Reduce.Mode.to_string Reduce.Mode.All)
          ~invariant_names:(List.map fst invariants) ~run_config:Obs.Json.Null ~max_depth
          entries));
  let reducer = reducer_all cfg in
  let c, r, invariants = instrument cfg reducer in
  let sys = system cfg and config_hash = Core.Config.hash cfg in
  let res, words =
    words_per_item ~items:states (fun () ->
        Certify.Recheck.validate ~reducer:(Some r) ~invariants ~config_hash ~dir sys)
  in
  let _, st = Test_certify.ok_or_fail "validate" res in
  Alcotest.(check int) "validated states" states st.Certify.Recheck.states;
  Alcotest.(check int) "table.seg bytes" 989_185 st.Certify.Recheck.table_bytes;
  closure_counts c reducer;
  check_words ~bound:1_125. words.minor

let test_walk () =
  let cfg = paper_cfg ~cycles:0 ~ops:0 in
  let steps = 300_000 in
  let passthrough : _ Check.Reducer.t =
    {
      name = "none";
      fingerprint = Check.Fingerprint.of_system;
      successors = Cimp.System.steps;
      canon_state = Fun.id;
      sym_permuted = Atomic.make 0;
      reg_nulled = Atomic.make 0;
      deferred = Atomic.make 0;
    }
  in
  let c, r, invariants = instrument cfg passthrough in
  let sys = system cfg in
  let o, words =
    words_per_item ~items:steps (fun () ->
        Check.Random_walk.run ~seed:1 ~steps ~reducer:r ~invariants sys)
  in
  Alcotest.(check bool) "no violation" true (o.Check.Random_walk.violation = None);
  Alcotest.(check int) "steps" steps o.Check.Random_walk.steps_taken;
  check_counts c passthrough ~succ:steps ~fp:0 ~canon:0 ~evals:5_400_018 ~sym:0 ~nulled:0
    ~deferred:0;
  check_words ~bound:812. words.minor;
  check_words ~kind:"promoted" ~bound:4. words.promoted

let suite =
  [
    Alcotest.test_case "closure: exact counts, words/state" `Quick test_closure;
    Alcotest.test_case "recheck: exact counts, words/state" `Quick test_recheck;
    Alcotest.test_case "walk: exact counts, words/step" `Quick test_walk;
  ]

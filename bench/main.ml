(* Per-figure benchmark harness (Bechamel).

   The paper has no performance tables — its evaluation is the invariant
   catalogue and the necessity of each mechanism — so this harness prints
   (a) the shape results each figure's experiment reports (who is safe, who
   breaks, which litmus outcomes appear), and (b) one Bechamel timing group
   per figure for the costs the paper argues about qualitatively: the
   double-checked mark's fast path vs its CAS (Fig. 5, Section 2.3), the
   write-barrier overhead on stores (Fig. 6), TSO vs SC simulation
   (Fig. 9), handshake/cycle costs on the concrete runtime (Figs. 2-4),
   parsing/compiling CIMP (Fig. 7), rendezvous exploration (Fig. 8), and
   checker throughput (Fig. 10).

   The repository's benchmark — end-to-end and per-layer figures for the
   checkers and the runtime — is perfbench (perfbench/README.md); this
   harness only prints text. *)

open Bechamel
open Toolkit

(* -- shape results (the "rows the paper reports") -------------------------- *)

let shape_results () =
  Fmt.pr "=== shape results (see EXPERIMENTS.md for the full grids) ===@.";
  Fmt.pr "@.-- Fig. 9: x86-TSO litmus catalogue --@.";
  List.iter (fun v -> Fmt.pr "  %a@." Tso.Litmus.pp_verdict v) (Tso.Catalog.run_all ());
  Fmt.pr "@.-- Fig. 10: safety grid (bounded exhaustive) --@.";
  let row sc safety_only =
    let o = Core.Scenario.explore ~max_states:3_000_000 ~safety_only sc in
    Fmt.pr "  %-34s %a@." sc.Core.Scenario.label Check.Explore.pp_outcome o
  in
  row Core.Scenario.baseline false;
  row Core.Scenario.two_mutators false;
  row Core.Scenario.chain false;
  Fmt.pr "@.-- Fig. 1/6: ablations (each must break) --@.";
  List.iter
    (fun v -> row (Core.Scenario.witness_for v) true)
    [
      Core.Variants.no_deletion_barrier;
      Core.Variants.no_insertion_barrier;
      Core.Variants.alloc_white;
    ];
  Fmt.pr "@."

(* -- running a group -------------------------------------------------------- *)

(* Time one named group and print one ns/run line per test. *)
let run_group name tests =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let results = Benchmark.all cfg instances (Test.make_grouped ~name tests) in
  let results = Analyze.all ols Instance.monotonic_clock results in
  List.iter
    (fun (name, ols_result) ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Fmt.pr "  %-44s %12.1f ns/run@." name est
      | _ -> Fmt.pr "  %-44s (no estimate)@." name)
    (List.sort compare (Hashtbl.fold (fun name v acc -> (name, v) :: acc) results []))

(* -- timing groups ---------------------------------------------------------- *)

(* Fig. 5: the mark operation.  Fast path: the flag test sees an
   already-marked object and skips the CAS.  CAS path: mark an unmarked
   object (and reset it, so each run pays one CAS + one plain store). *)
let fig5_tests () =
  (* latency:false — the figure measures the paper's bare mechanism; the
     instrumented runtime's costs are `gcmodel harness`'s business *)
  let sh = Runtime.Rshared.make ~latency:false ~n_slots:16 ~n_fields:1 ~n_muts:0 () in
  Atomic.set sh.Runtime.Rshared.phase Runtime.Rshared.Mark;
  let marked = Runtime.Rheap.alloc sh.Runtime.Rshared.heap ~mark:(Atomic.get sh.Runtime.Rshared.f_m) in
  let white =
    Runtime.Rheap.alloc sh.Runtime.Rshared.heap ~mark:(not (Atomic.get sh.Runtime.Rshared.f_m))
  in
  [
    Test.make ~name:"mark-fast-path"
      (Staged.stage (fun () -> ignore (Runtime.Rshared.mark sh marked [])));
    Test.make ~name:"mark-cas-roundtrip"
      (Staged.stage (fun () ->
           ignore (Runtime.Rshared.mark sh white []);
           (* reset so the next run races the CAS again *)
           Atomic.set sh.Runtime.Rshared.heap.Runtime.Rheap.marks.(white)
             (not (Atomic.get sh.Runtime.Rshared.f_m))));
  ]

(* Fig. 6: store with/without barriers (the mutator-throughput argument for
   the double-checked barrier).  The repository's one barrier-cost
   measurement: read it as absolute ns/store. *)
let fig6_tests () =
  let sh = Runtime.Rshared.make ~latency:false ~n_slots:16 ~n_fields:1 ~n_muts:1 () in
  let a = Runtime.Rheap.alloc sh.Runtime.Rshared.heap ~mark:(Atomic.get sh.Runtime.Rshared.f_m) in
  let b = Runtime.Rheap.alloc sh.Runtime.Rshared.heap ~mark:(Atomic.get sh.Runtime.Rshared.f_m) in
  let with_b = Runtime.Rmutator.make sh 0 ~roots:[ a; b ] in
  let without_b = Runtime.Rmutator.make ~barriers:false sh 0 ~roots:[ a; b ] in
  let sh_marking = Runtime.Rshared.make ~latency:false ~n_slots:16 ~n_fields:1 ~n_muts:1 () in
  Atomic.set sh_marking.Runtime.Rshared.phase Runtime.Rshared.Mark;
  let a' = Runtime.Rheap.alloc sh_marking.Runtime.Rshared.heap ~mark:(Atomic.get sh_marking.Runtime.Rshared.f_m) in
  let b' = Runtime.Rheap.alloc sh_marking.Runtime.Rshared.heap ~mark:(Atomic.get sh_marking.Runtime.Rshared.f_m) in
  let with_b' = Runtime.Rmutator.make sh_marking 0 ~roots:[ a'; b' ] in
  [
    Test.make ~name:"store-no-barriers"
      (Staged.stage (fun () -> Runtime.Rmutator.store without_b a 0 b));
    Test.make ~name:"store-barriers-idle"
      (Staged.stage (fun () -> Runtime.Rmutator.store with_b a 0 b));
    (* during marking, targets already marked: both barriers fast-path *)
    Test.make ~name:"store-barriers-marking"
      (Staged.stage (fun () -> Runtime.Rmutator.store with_b' a' 0 b'));
  ]

(* Figs. 2-4: a full concrete collection cycle, including all handshake
   rounds, against one promptly-polling mutator.  The poller domain lives
   only while this group runs: in OCaml 5 every minor collection stops
   all domains, so a spinning domain left alive slows every other group. *)
let fig2_group () =
  let sh = Runtime.Rshared.make ~n_slots:64 ~n_fields:1 ~n_muts:1 () in
  let a = Runtime.Rheap.alloc sh.Runtime.Rshared.heap ~mark:(Atomic.get sh.Runtime.Rshared.f_a) in
  (* a small rooted chain to trace *)
  let m = Runtime.Rmutator.make sh 0 ~roots:[ a ] in
  let prev = ref a in
  for _ = 1 to 16 do
    let n = Runtime.Rmutator.alloc m in
    if n <> Runtime.Rheap.null then begin
      Runtime.Rmutator.store m !prev 0 n;
      prev := n
    end
  done;
  let stop = Atomic.make false in
  let poller =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Runtime.Rmutator.poll m;
          Domain.cpu_relax ()
        done)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join poller)
    (fun () ->
      run_group "fig2"
        [
          Test.make ~name:"concrete-gc-cycle"
            (Staged.stage (fun () -> Runtime.Rcollector.cycle sh));
        ])

(* Fig. 7: parse + typecheck + compile a CIMP surface program. *)
let fig7_tests () =
  let _, src, _ = Cimp_lang.Examples.handshake_sketch in
  [
    Test.make ~name:"parse" (Staged.stage (fun () -> ignore (Cimp_lang.Parser.program src)));
    Test.make ~name:"parse-check-compile"
      (Staged.stage (fun () -> ignore (Cimp_lang.Compile.of_source src)));
  ]

(* Fig. 8: exhaustively explore a rendezvous system. *)
let fig8_tests () =
  let _, src, _ = Cimp_lang.Examples.handshake_sketch in
  let sys = Cimp_lang.Compile.of_source src in
  [
    Test.make ~name:"explore-handshake-sketch"
      (Staged.stage (fun () -> ignore (Check.Par_explore.run ~invariants:[] sys)));
  ]

(* Fig. 9: enumerate all outcomes of SB under both memory models. *)
let fig9_tests () =
  [
    Test.make ~name:"litmus-SB-tso"
      (Staged.stage (fun () -> ignore (Tso.Litmus.outcomes ~mode:Core.Config.TSO Tso.Catalog.sb)));
    Test.make ~name:"litmus-SB-sc"
      (Staged.stage (fun () -> ignore (Tso.Litmus.outcomes ~mode:Core.Config.SC Tso.Catalog.sb)));
  ]

(* Fig. 10: checker throughput on the GC model — exhaustive closure of a
   small instance and a fixed-length random walk. *)
let fig10_tests () =
  let sc = Core.Scenario.make ~label:"bench" ~n_refs:2 ~shape:"single" ~max_mut_ops:1 () in
  let model = Core.Scenario.model sc in
  let invs = Core.Scenario.invariants sc in
  let walk_sc =
    Core.Scenario.make ~label:"bench-walk" ~n_refs:3 ~shape:"chain3" ~max_cycles:0 ~max_mut_ops:0 ()
  in
  let walk_model = Core.Scenario.model walk_sc in
  let walk_invs = Core.Scenario.invariants walk_sc in
  [
    Test.make ~name:"exhaustive-closure-3k-states"
      (Staged.stage (fun () ->
           ignore (Check.Par_explore.run ~invariants:invs model.Core.Model.system)));
    Test.make ~name:"random-walk-2k-steps"
      (Staged.stage (fun () ->
           ignore
             (Check.Random_walk.run ~steps:2_000 ~invariants:walk_invs walk_model.Core.Model.system)));
  ]

let () =
  shape_results ();
  Fmt.pr "=== timings (Bechamel, monotonic clock) ===@.";
  run_group "fig5" (fig5_tests ());
  run_group "fig6" (fig6_tests ());
  fig2_group ();
  run_group "fig7" (fig7_tests ());
  run_group "fig8" (fig8_tests ());
  run_group "fig9" (fig9_tests ());
  run_group "fig10" (fig10_tests ());
  Fmt.pr "done.@."

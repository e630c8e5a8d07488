(* Regenerates every figure-level experiment (E1..E10 of DESIGN.md).

   The paper has no performance tables; its "evaluation" is the invariant
   catalogue holding over every reachable state of the composed model, and
   the necessity of each mechanism.  Each experiment below prints a block
   whose results are recorded in EXPERIMENTS.md.

   Usage: experiments.exe [quick|full] [--obs=SPEC] [E<n> ...]
   - quick (default): bounds sized for a couple of minutes total
   - full: the larger grid used for the numbers in EXPERIMENTS.md
   - --obs=off|pretty|json:FILE (or RELAXING_OBS): observability sink for
     checker heartbeats, per-invariant cost, and per-experiment records *)

let quick = ref true
let obs = ref Obs.Reporter.null

let section n title =
  Fmt.pr "@.=== %s — %s ===@." n title;
  Obs.Reporter.emit !obs Obs.Record.experiment
    [ ("name", Obs.Json.String n); ("title", Obs.Json.String title) ]

let result_line label (o : _ Check.Explore.outcome) =
  Fmt.pr "  %-44s %a@." label Check.Explore.pp_outcome o

let check_expectation ~expect_violation label (o : _ Check.Explore.outcome) =
  let got = o.Check.Explore.violation <> None in
  if got = expect_violation then Fmt.pr "  %-44s as expected@." ("-> " ^ label)
  else Fmt.pr "  %-44s UNEXPECTED (%s)@." ("-> " ^ label)
      (if got then "violation found" else "no violation found")

(* Scenario exploration runs under the full reduction stack (symmetry +
   POR), like the bin/ checkers: the state counts in EXPERIMENTS.md are
   the reduced ones.  Experiments that install custom invariants not
   closed under the mutator permutation (E3's early-observation probe,
   E4's ghost-bit structure, E8's final-value collector) call
   {!Check.Par_explore.run} directly and stay unreduced. *)
let explore ?safety_only sc =
  let max_states = if !quick then 3_000_000 else 40_000_000 in
  Core.Scenario.explore ~max_states ~reduce:Reduce.Mode.All ?safety_only ~obs:!obs sc

(* -- E1: Fig. 1, grey protection / the deletion barrier ------------------- *)

let e1 () =
  section "E1" "Fig. 1: grey protection and the deletion barrier";
  let sc = Core.Scenario.chain in
  let o = explore sc in
  result_line ("paper collector on " ^ sc.Core.Scenario.label) o;
  check_expectation ~expect_violation:false "weak tricolor + safety hold" o;
  let v = Option.get (Core.Variants.by_name "no-deletion-barrier") in
  let sc' = Core.Scenario.witness_for v in
  let o' = explore ~safety_only:true sc' in
  result_line ("ablation " ^ sc'.Core.Scenario.label) o';
  check_expectation ~expect_violation:true "hiding scenario reachable without the barrier" o';
  match o'.Check.Explore.violation with
  | Some tr ->
    Fmt.pr "  counterexample schedule (%d atomic actions), last 12:@." (Check.Trace.length tr);
    let steps = tr.Check.Trace.steps in
    let tail =
      let n = List.length steps in
      List.filteri (fun i _ -> i >= n - 12) steps
    in
    let names = Array.init 3 (Cimp.System.name tr.Check.Trace.initial) in
    List.iter
      (fun (s : _ Check.Trace.step) ->
        Fmt.pr "    %a@." (Cimp.System.pp_event names) s.Check.Trace.event)
      tail
  | None -> ()

(* -- E2: Fig. 2, the collector cycle -------------------------------------- *)

let e2 () =
  section "E2" "Fig. 2: collector control loop, per-line invariants";
  List.iter
    (fun sc ->
      let o = explore sc in
      result_line sc.Core.Scenario.label o;
      check_expectation ~expect_violation:false "all line-comment invariants hold" o)
    [ Core.Scenario.baseline; Core.Scenario.two_cycles ];
  (* Deep randomized run: thousands of cycles with the unbounded collector. *)
  let sc =
    Core.Scenario.make ~label:"unbounded-random" ~n_refs:4 ~n_fields:2 ~max_cycles:0
      ~max_mut_ops:0 ~buf_bound:2 ~shape:"chain3" ~mut_mfence:true ()
  in
  let steps = if !quick then 30_000 else 300_000 in
  let w = Core.Scenario.random_walk ~steps ~obs:!obs sc in
  Fmt.pr "  %-44s %a@." "random deep run (4 refs, 2 fields, unbounded)" Check.Random_walk.pp_outcome w

(* -- E3: Fig. 3, phase/handshake protocol ---------------------------------- *)

let e3 () =
  section "E3" "Fig. 3: control-state transitions and handshake phases";
  let sc = Core.Scenario.two_mutators in
  let o = explore sc in
  result_line sc.Core.Scenario.label o;
  check_expectation ~expect_violation:false "sys_phase_inv + fA/fM relation hold" o;
  (* Stale observation is possible: a mutator can read the *new* phase
     before its handshake (TSO lets control state leak early).  We confirm
     by asking the checker to prove it impossible and expecting a
     "violation" (i.e. the behaviour is reachable). *)
  let sc = Core.Scenario.baseline in
  let model = Core.Scenario.model sc in
  let cfg = sc.Core.Scenario.cfg in
  let never_early sys =
    let sd = Core.Model.sys_data sys cfg in
    not
      (sd.Core.State.s_hs_type = Core.Types.Hs_nop2
      && List.nth sd.Core.State.s_hs_pending 0
      && (Core.Model.mut_data sys cfg 0).Core.State.m_mark.Core.State.mk_fM
         = sd.Core.State.s_mem.Core.State.fM)
  in
  let o =
    Check.Par_explore.run ~max_states:(if !quick then 2_000_000 else 10_000_000)
      ~invariants:[ ("mutator-never-sees-new-fM-early", never_early) ]
      model.Core.Model.system
  in
  result_line "reachability: mutator reads flipped fM pre-handshake" o;
  check_expectation ~expect_violation:true "early observation reachable (Fig. 3's TSO arrows)" o

(* -- E4: Fig. 4, handshake anatomy ----------------------------------------- *)

let e4 () =
  section "E4" "Fig. 4: handshake anatomy (bits, ghost counters, fences)";
  let sc = Core.Scenario.two_mutators in
  let cfg = sc.Core.Scenario.cfg in
  let model = Core.Scenario.model sc in
  (* Structural handshake invariants: a pending bit implies an active round;
     a mutator that completed the round is recorded with the round's type. *)
  let bits_inv sys =
    let sd = Core.Model.sys_data sys cfg in
    List.for_all2
      (fun pending done_ -> not (pending && done_))
      sd.Core.State.s_hs_pending sd.Core.State.s_hs_done
  in
  let o =
    Check.Par_explore.run ~max_states:(if !quick then 3_000_000 else 40_000_000)
      ~invariants:
        (("hs-pending-xor-done", bits_inv) :: Core.Scenario.invariants sc)
      model.Core.Model.system
  in
  result_line "handshake ghost structure (2 mutators)" o;
  check_expectation ~expect_violation:false "bits and ghost counters consistent" o

(* -- E5: Fig. 5, the mark operation and the CAS race ----------------------- *)

let e5 () =
  section "E5" "Fig. 5: racy marking, CAS exclusivity, valid_W_inv";
  let sc = Core.Scenario.two_mutators in
  let o = explore sc in
  result_line "2 mutators race their barriers and root marking" o;
  check_expectation ~expect_violation:false "valid_W_inv + disjoint work-lists hold" o;
  let v = Option.get (Core.Variants.by_name "no-cas") in
  let sc' = Core.Scenario.witness_for v in
  let o' = explore sc' in
  result_line ("ablation " ^ sc'.Core.Scenario.label) o';
  (match o'.Check.Explore.violation with
  | Some tr when List.mem tr.Check.Trace.broken [ "worklists_disjoint"; "valid_W_inv" ] ->
    Fmt.pr "  -> grey exclusivity broken (%s)             as expected@." tr.Check.Trace.broken
  | Some tr -> Fmt.pr "  -> unexpected first violation: %s@." tr.Check.Trace.broken
  | None -> Fmt.pr "  -> UNEXPECTED: no violation@.");
  let o'' = explore ~safety_only:true sc' in
  result_line "ablation, safety only" o'';
  check_expectation ~expect_violation:false
    "marking stays idempotent: safety survives the lost CAS" o''

(* -- E6: Fig. 6, mutator operations and barrier phases ---------------------- *)

let e6 () =
  section "E6" "Fig. 6: mutator ops, marked_insertions/deletions per phase";
  let sc = Core.Scenario.fig1 in
  let o = explore sc in
  result_line sc.Core.Scenario.label o;
  check_expectation ~expect_violation:false "barrier phase invariants hold" o;
  let v = Option.get (Core.Variants.by_name "no-insertion-barrier") in
  let sc' = Core.Scenario.witness_for v in
  let o' = explore ~safety_only:true sc' in
  result_line ("ablation " ^ sc'.Core.Scenario.label) o';
  check_expectation ~expect_violation:true "unmarked insertion escapes the snapshot" o';
  let v = Option.get (Core.Variants.by_name "alloc-white") in
  let sc'' = Core.Scenario.witness_for v in
  let o'' = explore ~safety_only:true sc'' in
  result_line ("ablation " ^ sc''.Core.Scenario.label) o'';
  check_expectation ~expect_violation:true "white allocation during marking is swept" o''

(* -- E7: Fig. 7, CIMP process semantics ------------------------------------ *)

let e7 () =
  section "E7" "Fig. 7: CIMP semantics via the concrete-language programs";
  List.iter
    (fun (name, src, note) ->
      let sys = Cimp_lang.Compile.of_source src in
      let o =
        Check.Par_explore.run ~max_states:200_000
          ~invariants:[ ("assertions", Cimp_lang.Compile.assertions_hold) ]
          sys
      in
      Fmt.pr "  %-18s %a@.     (%s)@." name Check.Explore.pp_outcome o note)
    Cimp_lang.Examples.all;
  Fmt.pr "  -> assert-fail must violate; the rest must hold@."

(* -- E8: Fig. 8, rendezvous ------------------------------------------------- *)

let e8 () =
  section "E8" "Fig. 8: system semantics, rendezvous outcome counts";
  (* The lost-update race: enumerate final cell values. *)
  let _, src, _ = Cimp_lang.Examples.counter_race in
  let sys = Cimp_lang.Compile.of_source src in
  let finals = ref [] in
  let o =
    Check.Par_explore.run ~max_states:100_000
      ~invariants:
        [
          ( "collect-finals",
            fun s ->
              (* piggyback: record quiescent cell values *)
              (if Cimp.System.steps s = [] then
                 match List.assoc_opt "v" (Cimp.System.proc s 2).Cimp.Com.data with
                 | Some (Cimp_lang.Ast.V_int v) when not (List.mem v !finals) ->
                   finals := v :: !finals
                 | _ -> ());
              true );
        ]
      sys
  in
  result_line "counter-race exploration" o;
  Fmt.pr "  final cell values observed: {%s} (expect {1, 2}: the lost update is real)@."
    (String.concat ", " (List.map string_of_int (List.sort compare !finals)))

(* -- E9: Fig. 9, x86-TSO --------------------------------------------------- *)

let e9 () =
  section "E9" "Fig. 9: x86-TSO litmus catalogue vs the SC baseline";
  let verdicts = Tso.Catalog.run_all () in
  List.iter (fun v -> Fmt.pr "  %a@." Tso.Litmus.pp_verdict v) verdicts;
  let ok = List.for_all (fun v -> v.Tso.Litmus.ok) verdicts in
  Fmt.pr "  -> %d/%d match the published x86-TSO classification%s@."
    (List.length (List.filter (fun v -> v.Tso.Litmus.ok) verdicts))
    (List.length verdicts)
    (if ok then "" else "  MISMATCH");
  (* TSO reaches strictly more states than SC on racy programs. *)
  let sb = List.find (fun v -> v.Tso.Litmus.test == Tso.Catalog.sb) verdicts in
  Fmt.pr "  state spaces on SB: TSO=%d > SC=%d@." sb.Tso.Litmus.tso_states sb.Tso.Litmus.sc_states

(* -- E10: the headline theorem ---------------------------------------------- *)

let e10 () =
  section "E10" "Headline: GC || muts || Sys |= [](reachable -> valid_ref)";
  Fmt.pr "  exhaustive grid (paper collector, full invariant catalogue):@.";
  List.iter
    (fun sc ->
      let o = explore sc in
      result_line (sc.Core.Scenario.label ^ " — " ^ sc.Core.Scenario.note) o;
      check_expectation ~expect_violation:false "holds" o)
    Core.Scenario.exhaustive_grid;
  Fmt.pr "  ablation grid (safety invariants only; each must fail):@.";
  List.iter
    (fun v ->
      let sc = Core.Scenario.witness_for v in
      let o = explore ~safety_only:true sc in
      result_line sc.Core.Scenario.label o;
      check_expectation ~expect_violation:true v.Core.Variants.name o)
    Core.Variants.ablations;
  Fmt.pr "  Section 4 observations (conjectured safe; checked, not proved):@.";
  List.iter
    (fun v ->
      let sc = Core.Scenario.with_variant v Core.Scenario.baseline in
      let o = explore sc in
      result_line sc.Core.Scenario.label o;
      check_expectation ~expect_violation:false v.Core.Variants.name o)
    Core.Variants.observations;
  let v = Option.get (Core.Variants.by_name "sc-memory") in
  let sc = Core.Scenario.with_variant v Core.Scenario.baseline in
  let o = explore sc in
  result_line sc.Core.Scenario.label o;
  check_expectation ~expect_violation:false "SC baseline also safe (TSO adds behaviours, not bugs)" o

(* -- E11 (extension): promptness — "garbage is collected within two cycles
   of the collector's outer loop" (Section 4, Connection With Reality: the
   paper states this but owes it a proof; we check it). ------------------- *)

let e11 () =
  section "E11" "extension: garbage collected within two cycles (Section 4's unproved claim)";
  (* Part 1, exhaustive: initial garbage with no mutator interference is
     gone once the bounded collector halts. *)
  let sc =
    Core.Scenario.make ~label:"initial-garbage" ~shape:"chain3" ~max_cycles:1
      ~tweak:(fun c ->
        { c with Core.Config.mut_load = false; mut_store = false; mut_alloc = false; mut_discard = false })
      ()
  in
  let cfg = sc.Core.Scenario.cfg in
  (* detach object 2 from the chain: it is garbage from the start *)
  let shape = { sc.Core.Scenario.shape with Gcheap.Shapes.heap = Gcheap.Heap.set_field sc.Core.Scenario.shape.Gcheap.Shapes.heap 1 0 None } in
  let model = Core.Model.make cfg shape in
  let collected sys =
    (* once the bounded collector halts, the garbage must be gone *)
    if not (Cimp.Com.terminated (Cimp.System.proc sys Core.Config.pid_gc)) then true
    else not (Gcheap.Heap.valid_ref (Core.Model.sys_data sys cfg).Core.State.s_mem.Core.State.heap 2)
  in
  let o =
    Check.Par_explore.run ~max_states:2_000_000
      ~invariants:(("garbage-collected-by-halt", collected) :: Core.Scenario.invariants sc)
      model.Core.Model.system
  in
  result_line "pre-existing garbage, 1 cycle, exhaustive" o;
  check_expectation ~expect_violation:false "one cycle reclaims it on every schedule" o;
  (* Part 2, randomized with history: on the unbounded model, track when
     each object becomes (and stays) unreachable and assert it is freed
     within two full cycles. *)
  let sc =
    Core.Scenario.make ~label:"promptness-walk" ~n_refs:4 ~n_fields:1 ~shape:"chain3"
      ~max_cycles:0 ~max_mut_ops:0 ~buf_bound:2 ()
  in
  let cfg = sc.Core.Scenario.cfg in
  let model = Core.Scenario.model sc in
  let rng = Random.State.make [| 2026 |] in
  let steps = if !quick then 40_000 else 400_000 in
  let sys = ref (Cimp.System.normalize model.Core.Model.system) in
  let cycle = ref 0 in
  let last_phase = ref Core.Types.Ph_idle in
  (* unreachable_since.(r) = cycle index when r last became unreachable *)
  let unreachable_since = Array.make cfg.Core.Config.n_refs (-1) in
  let worst = ref 0 in
  let violations = ref 0 in
  for _ = 1 to steps do
    (match Cimp.System.steps !sys with
    | [] -> ()
    | succs -> sys := Cimp.System.normalize (snd (List.nth succs (Random.State.int rng (List.length succs)))));
    let sd = Core.Model.sys_data !sys cfg in
    let phase = sd.Core.State.s_mem.Core.State.phase in
    if !last_phase <> Core.Types.Ph_idle && phase = Core.Types.Ph_idle then incr cycle;
    last_phase := phase;
    let reach = Core.Invariants.reachable_from_roots cfg !sys in
    let heap = sd.Core.State.s_mem.Core.State.heap in
    for r = 0 to cfg.Core.Config.n_refs - 1 do
      if Gcheap.Heap.valid_ref heap r then begin
        if List.mem r reach then unreachable_since.(r) <- -1
        else if unreachable_since.(r) < 0 then unreachable_since.(r) <- !cycle
        else begin
          let age = !cycle - unreachable_since.(r) in
          if age > !worst then worst := age;
          if age > 2 then incr violations
        end
      end
      else unreachable_since.(r) <- -1
    done
  done;
  Fmt.pr "  random walk: %d steps, %d collection cycles, worst garbage age = %d cycle(s)@." steps
    !cycle !worst;
  if !violations = 0 && !worst <= 2 then
    Fmt.pr "  -> %-41s as expected@." "all garbage reclaimed within two cycles"
  else Fmt.pr "  -> UNEXPECTED: %d promptness violations (worst age %d)@." !violations !worst

(* -- E12 (extension): mutation-testing the checker — the campaign of
   lib/mutate as a figure-level experiment: every armed mutant must be
   killed, with the killing invariant named. ------------------------------ *)

let e12 () =
  section "E12" "extension: mutation campaign — checker adequacy on the armed catalogue";
  let mutants =
    let all = Mutate.Campaign.default_mutants () in
    if !quick then
      List.filter (fun (m : Mutate.Campaign.mutant) -> not m.Mutate.Campaign.expected_equivalent) all
    else all
  in
  let budget = if !quick then 400_000 else 1_000_000 in
  let o = Mutate.Campaign.run ~obs:!obs ~budget ~jobs:1 ~mutants () in
  let s = Mutate.Kill_matrix.stats o in
  Fmt.pr "  %d mutants (%s), budget %d: %d killed, %d survived, %d errored@."
    s.Mutate.Kill_matrix.total
    (if !quick then "armed only" else "full catalogue incl. expected-equivalent")
    budget s.Mutate.Kill_matrix.killed s.Mutate.Kill_matrix.survived
    s.Mutate.Kill_matrix.errored;
  List.iter
    (fun (r : Mutate.Kill_matrix.family_row) ->
      Fmt.pr "    %-16s %d armed / %d killed@." r.Mutate.Kill_matrix.family
        r.Mutate.Kill_matrix.armed r.Mutate.Kill_matrix.armed_killed)
    s.Mutate.Kill_matrix.families;
  if s.Mutate.Kill_matrix.armed_killed = s.Mutate.Kill_matrix.armed
     && s.Mutate.Kill_matrix.unexpected_kills = []
  then Fmt.pr "  -> %-41s as expected@." "every armed mutant killed, no equivalent broken"
  else
    Fmt.pr "  -> UNEXPECTED: %d/%d armed killed, unexpected kills: %s@."
      s.Mutate.Kill_matrix.armed_killed s.Mutate.Kill_matrix.armed
      (String.concat ", " s.Mutate.Kill_matrix.unexpected_kills)

(* -- E13 (extension): partial store order — the first weakening toward the
   ARM/POWER models the paper's Section 4 contemplates. ------------------- *)

let e13 () =
  section "E13" "extension: the collector under PSO (per-location-FIFO-only buffers)";
  Fmt.pr "  PSO litmus probes on the Sys process:@.";
  List.iter
    (fun (name, expect, got) ->
      Fmt.pr "    %-10s expected %-9s observed %-9s %s@." name
        (if expect then "allowed" else "forbidden")
        (if got then "allowed" else "forbidden")
        (if expect = got then "OK" else "MISMATCH"))
    (Tso.Catalog.run_pso ());
  let v = Option.get (Core.Variants.by_name "pso-memory") in
  let probe label sc =
    let tso = explore sc in
    let pso = explore (Core.Scenario.with_variant v sc) in
    Fmt.pr "  %-22s TSO: %a@." label Check.Explore.pp_outcome tso;
    Fmt.pr "  %-22s PSO: %a@." "" Check.Explore.pp_outcome pso;
    check_expectation ~expect_violation:false (label ^ " stays safe under PSO") pso;
    if pso.Check.Explore.states > tso.Check.Explore.states then
      Fmt.pr "  -> %-41s as expected@." "PSO adds reorderings (more states)"
  in
  probe "deep-buffers"
    (Core.Scenario.make ~label:"pso-deep" ~n_refs:2 ~shape:"single" ~buf_bound:3 ~max_mut_ops:2 ());
  probe "chain, buf=3"
    (Core.Scenario.make ~label:"pso-chain" ~shape:"chain3" ~buf_bound:3 ~max_mut_ops:2
       ~tweak:(fun c -> { c with Core.Config.mut_alloc = false; mut_discard = false })
       ())

let all =
  [ ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6); ("E7", e7);
    ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11); ("E12", e12); ("E13", e13) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let spec, args =
    List.partition_map
      (fun a ->
        match String.length a > 6 && String.sub a 0 6 = "--obs=" with
        | true -> Left (String.sub a 6 (String.length a - 6))
        | false -> Right a)
      args
  in
  (try obs := Obs.Reporter.resolve ?spec:(match List.rev spec with s :: _ -> Some s | [] -> None) ()
   with Invalid_argument msg ->
     Fmt.epr "experiments: %s@." msg;
     exit 124);
  let args =
    match args with
    | "full" :: rest ->
      quick := false;
      rest
    | "quick" :: rest -> rest
    | rest -> rest
  in
  let selected = if args = [] then all else List.filter (fun (n, _) -> List.mem n args) all in
  Fmt.pr "Relaxing Safely — figure-by-figure experiments (%s mode)@."
    (if !quick then "quick" else "full");
  List.iter (fun (_, f) -> f ()) selected;
  Obs.Reporter.close !obs;
  Fmt.pr "@.done.@."

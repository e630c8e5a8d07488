(* Integration tests: the headline safety result and its sensitivity.

   Each exhaustive case runs the checker to closure on a bounded instance
   (Config.max_cycles / max_mut_ops) and asserts the expected verdict:
   the paper's collector and the conjectured-safe variants pass the whole
   invariant catalogue; every ablation breaks a safety invariant on its
   minimal witness.  These are the same runs as experiment E10, sized for
   the test suite. *)

let explore ?safety_only ?(max_states = 5_000_000) sc =
  Core.Scenario.explore ~max_states ?safety_only sc

let check_holds name sc =
  let o = explore sc in
  Alcotest.(check bool) (name ^ ": closed") false o.Check.Explore.truncated;
  match o.Check.Explore.violation with
  | None -> ()
  | Some tr -> Alcotest.fail (name ^ ": unexpected violation of " ^ tr.Check.Trace.broken)

let check_breaks ?(invariant = "") name sc =
  let o = explore ~safety_only:(invariant = "") sc in
  match o.Check.Explore.violation with
  | None -> Alcotest.fail (name ^ ": expected a violation")
  | Some tr ->
    if invariant <> "" then
      Alcotest.(check string) (name ^ ": broken invariant") invariant tr.Check.Trace.broken

(* -- The paper's collector, exhaustively ------------------------------------ *)

let test_baseline_small () =
  check_holds "baseline (1 op)"
    (Core.Scenario.make ~label:"t" ~n_refs:2 ~shape:"single" ~max_mut_ops:1 ())

let test_baseline () = check_holds "baseline" Core.Scenario.baseline

let test_two_cycles () =
  check_holds "two cycles"
    (Core.Scenario.make ~label:"t" ~n_refs:2 ~shape:"single" ~max_cycles:2 ~max_mut_ops:1 ())

let test_two_mutators () = check_holds "two mutators" Core.Scenario.two_mutators

let test_chain () =
  check_holds "chain3"
    (Core.Scenario.make ~label:"t" ~shape:"chain3" ~max_mut_ops:2
       ~tweak:(fun c -> { c with Core.Config.mut_alloc = false; mut_discard = false })
       ())

let test_deep_buffers () =
  check_holds "buf=3"
    (Core.Scenario.make ~label:"t" ~n_refs:2 ~shape:"single" ~buf_bound:3 ~max_mut_ops:1 ())

let test_two_fields () =
  check_holds "2 fields"
    (Core.Scenario.make ~label:"t" ~n_refs:2 ~n_fields:2 ~shape:"single" ~max_mut_ops:1 ())

(* -- Ablations ---------------------------------------------------------------- *)

let witness name = Core.Scenario.witness_for (Option.get (Core.Variants.by_name name))

let test_no_deletion_barrier () = check_breaks "no-deletion-barrier" (witness "no-deletion-barrier")
let test_no_insertion_barrier () = check_breaks "no-insertion-barrier" (witness "no-insertion-barrier")
let test_no_barriers () = check_breaks "no-barriers" (witness "no-barriers")
let test_alloc_white () = check_breaks "alloc-white" (witness "alloc-white")

let test_no_cas_breaks_grey_exclusivity () =
  (* without the LOCK'd CAS, either the pending mark escapes the lock
     exemption of valid_W_inv (shortest) or two markers double-grey *)
  let o = explore (witness "no-cas") in
  match o.Check.Explore.violation with
  | None -> Alcotest.fail "no-cas: expected a violation"
  | Some tr ->
    Alcotest.(check bool)
      ("no-cas broke " ^ tr.Check.Trace.broken)
      true
      (List.mem tr.Check.Trace.broken [ "valid_W_inv"; "worklists_disjoint" ])

let test_no_cas_is_still_safe () =
  (* marking is idempotent: losing the CAS only breaks grey exclusivity *)
  let o = explore ~safety_only:true (witness "no-cas") in
  Alcotest.(check bool) "safety survives" true (o.Check.Explore.violation = None)

(* The fences ablation needs a deep, rare schedule; its BFS run lives in
   the slow tier. *)
let test_no_fences () = check_breaks "no-fences" (witness "no-fences")

(* -- Section 4 observations and the SC baseline ------------------------------- *)

let with_variant name sc = Core.Scenario.with_variant (Option.get (Core.Variants.by_name name)) sc

let small = Core.Scenario.make ~label:"small" ~n_refs:2 ~shape:"single" ~max_mut_ops:2 ()

let test_o1 () = check_holds "O1 skip init handshakes" (with_variant "o1-skip-init-handshakes" small)
let test_o2 () = check_holds "O2 conditional insertion barrier" (with_variant "o2-ins-barrier-off-after-roots" small)
let test_sc () = check_holds "SC memory" (with_variant "sc-memory" small)

let test_pso () =
  (* PSO genuinely relaxes (more states than TSO at the same bounds) and the
     collector's fence/CAS discipline still suffices *)
  let deep = Core.Scenario.make ~label:"psot" ~n_refs:2 ~shape:"single" ~buf_bound:3 ~max_mut_ops:2 () in
  let tso = explore deep in
  let pso = explore (with_variant "pso-memory" deep) in
  Alcotest.(check bool) "PSO adds behaviours" true
    (pso.Check.Explore.states > tso.Check.Explore.states);
  Alcotest.(check bool) "PSO closed" false pso.Check.Explore.truncated;
  Alcotest.(check bool) "PSO safe" true (pso.Check.Explore.violation = None)

(* -- Model coverage -------------------------------------------------------------- *)

let test_label_coverage () =
  (* every program location of the collector, the mutator and Sys must fire
     somewhere in the baseline exploration — unexercised labels indicate
     dead model code.  Definite taus execute inside normalization and never
     appear as events, so only communication/nondeterministic locations are
     expected. *)
  let sc = Core.Scenario.baseline in
  let model = Core.Scenario.model sc in
  let o =
    Check.Explore.run ~max_states:3_000_000 ~track_coverage:true
      ~invariants:(Core.Scenario.invariants sc) model.Core.Model.system
  in
  Alcotest.(check bool) "clean" true (o.Check.Explore.violation = None);
  let fired p = List.filter_map (fun (q, l) -> if p = q then Some l else None) o.Check.Explore.covered in
  let expected_labels com =
    (* communication points and non-definite local ops: the labels that can
       appear as events under normalization *)
    let rec go acc c =
      match c with
      | Cimp.Com.Request (l, _, _) | Cimp.Com.Response (l, _) -> l :: acc
      | Cimp.Com.Choose cs -> List.fold_left go acc cs
      | Cimp.Com.Seq (a, b) -> go (go acc a) b
      | Cimp.Com.If (_, _, a, b) -> go (go acc a) b
      | Cimp.Com.While (_, _, b) | Cimp.Com.Loop b -> go acc b
      | Cimp.Com.Skip _ | Cimp.Com.Local_op _ -> acc
    in
    go [] com
  in
  let cfg = sc.Core.Scenario.cfg in
  List.iteri
    (fun p com ->
      let missing =
        List.map Cimp.Label.name
          (List.filter (fun l -> not (List.mem l (fired p))) (expected_labels com))
      in
      (* the gc's cycle budget means hs-work rounds may not always occur; no
         other location may be dead *)
      let tolerated l =
        String.length l >= 10 && String.sub l 0 10 = "gc:hs-work"
      in
      Alcotest.(check (list string))
        (Core.Config.proc_name cfg p ^ " has no dead locations")
        []
        (List.filter (fun l -> not (tolerated l)) missing))
    (Core.Model.programs cfg)

(* -- Validation of the definite-tau reduction ---------------------------------- *)

let test_normal_form_preserves_verdict () =
  (* the reduced and unreduced explorations must agree on the verdict,
     both for a holding instance and for an ablation *)
  let sc = Core.Scenario.make ~label:"nf" ~n_refs:2 ~shape:"single" ~max_mut_ops:1 () in
  let invs = Core.Scenario.invariants sc in
  let with_nf b =
    Check.Explore.run ~normal_form:b ~max_states:5_000_000 ~invariants:invs
      (Core.Scenario.model sc).Core.Model.system
  in
  let reduced = with_nf true and full = with_nf false in
  Alcotest.(check bool) "reduced holds" true (reduced.Check.Explore.violation = None);
  Alcotest.(check bool) "unreduced holds" true (full.Check.Explore.violation = None);
  Alcotest.(check bool) "unreduced closes too" false full.Check.Explore.truncated;
  Alcotest.(check bool) "reduction shrinks the space" true
    (reduced.Check.Explore.states < full.Check.Explore.states);
  let sc' = witness "alloc-white" in
  let invs' = Core.Scenario.invariants ~safety_only:true sc' in
  let with_nf' b =
    Check.Explore.run ~normal_form:b ~max_states:5_000_000 ~invariants:invs'
      (Core.Scenario.model sc').Core.Model.system
  in
  Alcotest.(check bool) "reduced finds the violation" true
    ((with_nf' true).Check.Explore.violation <> None);
  Alcotest.(check bool) "unreduced finds it too" true
    ((with_nf' false).Check.Explore.violation <> None)

(* -- Randomized regression ----------------------------------------------------- *)

let test_random_walks_unbounded () =
  (* the paper's unbounded collector, bigger heap, thousands of steps *)
  let sc =
    Core.Scenario.make ~label:"walk" ~n_refs:4 ~n_fields:2 ~shape:"chain3" ~max_cycles:0
      ~max_mut_ops:0 ~buf_bound:2 ~mut_mfence:true ()
  in
  List.iter
    (fun seed ->
      let o = Core.Scenario.random_walk ~seed ~steps:20_000 sc in
      match o.Check.Random_walk.violation with
      | None -> ()
      | Some tr -> Alcotest.fail ("walk violated " ^ tr.Check.Trace.broken))
    [ 1; 2; 3 ]

let test_walks_two_mutators () =
  let sc =
    Core.Scenario.make ~label:"walk2" ~n_muts:2 ~n_refs:3 ~shape:"shared" ~max_cycles:0
      ~max_mut_ops:0 ~buf_bound:2 ~mut_mfence:true ()
  in
  let o = Core.Scenario.random_walk ~seed:11 ~steps:20_000 sc in
  Alcotest.(check bool) "no violation" true (o.Check.Random_walk.violation = None)

let suite =
  [
    Alcotest.test_case "paper: tiny baseline closes clean" `Quick test_baseline_small;
    Alcotest.test_case "paper: baseline grid point" `Quick test_baseline;
    Alcotest.test_case "paper: two full cycles" `Quick test_two_cycles;
    Alcotest.test_case "paper: two racing mutators" `Quick test_two_mutators;
    Alcotest.test_case "paper: chain heap" `Quick test_chain;
    Alcotest.test_case "paper: deeper store buffers" `Quick test_deep_buffers;
    Alcotest.test_case "paper: two fields per object" `Quick test_two_fields;
    Alcotest.test_case "ablation: deletion barrier is load-bearing" `Quick test_no_deletion_barrier;
    Alcotest.test_case "ablation: insertion barrier is load-bearing" `Quick test_no_insertion_barrier;
    Alcotest.test_case "ablation: both barriers off" `Quick test_no_barriers;
    Alcotest.test_case "ablation: allocate-black is load-bearing" `Quick test_alloc_white;
    Alcotest.test_case "ablation: no CAS breaks grey exclusivity" `Quick test_no_cas_breaks_grey_exclusivity;
    Alcotest.test_case "ablation: no CAS keeps safety (idempotent marks)" `Quick test_no_cas_is_still_safe;
    Alcotest.test_case "ablation: handshake fences are load-bearing" `Slow test_no_fences;
    Alcotest.test_case "O1: fewer init handshakes, still safe" `Quick test_o1;
    Alcotest.test_case "O2: conditional insertion barrier, still safe" `Quick test_o2;
    Alcotest.test_case "SC baseline is safe" `Quick test_sc;
    Alcotest.test_case "PSO extension: relaxes yet stays safe" `Quick test_pso;
    Alcotest.test_case "exploration exercises every model location" `Quick test_label_coverage;
    Alcotest.test_case "definite-tau reduction preserves verdicts" `Quick test_normal_form_preserves_verdict;
    Alcotest.test_case "random walks on the unbounded model" `Quick test_random_walks_unbounded;
    Alcotest.test_case "random walks with two mutators" `Quick test_walks_two_mutators;
  ]

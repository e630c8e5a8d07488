(* Counterexample forensics: witness-carrying invariants, trace import
   validation, replay determinism, and the acceptance scenario — on the
   seeded write-barrier-elision bug the explainer must name the violated
   conjunct, the witness ref, and the store-buffer flush that lost the
   marking. *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let has_prefix ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let nd_barrier () =
  Core.Scenario.witness_for (Option.get (Core.Variants.by_name "no-deletion-barrier"))

(* the same search `gcmodel explain` runs: reduced exhaustive BFS *)
let nd_violation =
  lazy
    (let sc = nd_barrier () in
     let o = Core.Scenario.explore ~safety_only:true ~reduce:Reduce.Mode.All sc in
     match o.Check.Explore.violation with
     | Some tr -> (sc, tr)
     | None -> Alcotest.fail "no-deletion-barrier witness scenario found no violation")

(* -- witness-carrying invariants --------------------------------------------- *)

let test_witness_iff_check () =
  let sc, tr = Lazy.force nd_violation in
  let final = Check.Trace.final tr in
  List.iter
    (fun inv ->
      let holds = inv.Core.Invariants.check final in
      let ws = inv.Core.Invariants.witness final in
      Alcotest.(check bool)
        (inv.Core.Invariants.name ^ ": witness empty iff check holds")
        holds (ws = []))
    (Core.Invariants.all sc.Core.Scenario.cfg);
  (* and on a healthy state every invariant is witness-free *)
  let initial = (Core.Scenario.model sc).Core.Model.system in
  List.iter
    (fun inv ->
      Alcotest.(check bool)
        (inv.Core.Invariants.name ^ ": no witness initially")
        true
        (inv.Core.Invariants.witness initial = []))
    (Core.Invariants.all sc.Core.Scenario.cfg)

(* -- Check.Trace import validation -------------------------------------------- *)

let test_import_validates_labels () =
  let sc, tr = Lazy.force nd_violation in
  let json = Check.Trace.to_json tr in
  let right = (Core.Scenario.model sc).Core.Model.system in
  (match Check.Trace.import right json with
  | Ok tr' ->
    Alcotest.(check string) "broken survives roundtrip" tr.Check.Trace.broken tr'.Check.Trace.broken;
    Alcotest.(check int) "schedule length" (Check.Trace.length tr) (Check.Trace.length tr')
  | Error msg -> Alcotest.fail ("import against the recording system failed: " ^ msg));
  (* a different instance must be rejected with a diagnosis, not replayed
     into a confusing failure deep in the model *)
  let other =
    Core.Scenario.make ~label:"other" ~n_muts:2 ~n_refs:2 ~shape:"single" ~max_mut_ops:1 ()
  in
  let wrong = (Core.Scenario.model other).Core.Model.system in
  (match Check.Trace.import wrong json with
  | Ok _ -> Alcotest.fail "import accepted a trace from a different system"
  | Error msg ->
    Alcotest.(check bool)
      ("diagnosis mentions the mismatch: " ^ msg)
      true
      (contains ~sub:"different system" msg
       || contains ~sub:"different instance" msg));
  (* a schedule of valid events that does not replay is refused, never
     cut short: here the recorded one, backwards *)
  let reversed =
    match json with
    | Obs.Json.Obj kvs ->
      Obs.Json.Obj
        (List.map
           (function
             | "schedule", Obs.Json.List evs -> ("schedule", Obs.Json.List (List.rev evs))
             | kv -> kv)
           kvs)
    | j -> j
  in
  match Check.Trace.import right reversed with
  | Ok _ -> Alcotest.fail "a reversed schedule replayed"
  | Error msg ->
    Alcotest.(check bool) ("refused as a divergence: " ^ msg) true
      (has_prefix ~prefix:"replay diverged: event " msg)

(* -- replay determinism -------------------------------------------------------- *)

let test_explain_deterministic () =
  let sc, tr = Lazy.force nd_violation in
  let cfg = sc.Core.Scenario.cfg in
  let json = Check.Trace.to_json tr in
  let replayed () =
    let initial = (Core.Scenario.model sc).Core.Model.system in
    match Check.Trace.import initial json with
    | Ok tr' -> tr'
    | Error msg -> Alcotest.fail ("replay failed: " ^ msg)
  in
  let tr1 = replayed () and tr2 = replayed () in
  let rep1 = Explain.Report.analyze cfg tr1 and rep2 = Explain.Report.analyze cfg tr2 in
  Alcotest.(check string)
    "export -> import -> explain twice is byte-identical (text)"
    (Explain.Report.render rep1) (Explain.Report.render rep2);
  Alcotest.(check string)
    "export -> import -> explain twice is byte-identical (html)"
    (Explain.Report.html rep1) (Explain.Report.html rep2);
  (* the reduce=all counterexample, replay-rebuilt, explains identically
     to the checker's own trace: replay reconstructed the same states *)
  let rep0 = Explain.Report.analyze cfg tr in
  Alcotest.(check string)
    "replay-rebuilt trace explains identically to the original"
    (Explain.Report.render rep0) (Explain.Report.render rep1)

(* -- the acceptance scenario --------------------------------------------------- *)

let test_seeded_bug_explanation () =
  let sc, tr = Lazy.force nd_violation in
  let rep = Explain.Report.analyze sc.Core.Scenario.cfg tr in
  Alcotest.(check string) "violated invariant" "free_only_garbage" rep.Explain.Report.broken;
  let conjuncts =
    List.map (fun w -> w.Core.Invariants.conjunct) rep.Explain.Report.witnesses
  in
  Alcotest.(check bool)
    "names the failing conjunct" true
    (List.mem "victim-unreachable" conjuncts);
  let refs =
    List.concat_map (fun w -> w.Core.Invariants.refs) rep.Explain.Report.witnesses
  in
  Alcotest.(check bool) "carries a witness ref" true (refs <> []);
  let explanation = Explain.Report.explanation rep in
  Alcotest.(check bool)
    "explanation names the conjunct" true
    (contains ~sub:"victim-unreachable" explanation);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Fmt.str "explanation mentions witness ref %d" r)
        true
        (contains ~sub:(string_of_int r) explanation))
    refs;
  (* the lost marking: a mutator field write sat in the store buffer and
     was committed by Sys without any deletion barrier shading the old
     target — both halves must be visible in the narrative *)
  let narrative = Explain.Report.narrative rep in
  Alcotest.(check bool)
    "narrative shows the buffered field write" true
    (contains ~sub:"TSO store-buffer push" narrative);
  Alcotest.(check bool)
    "narrative shows the store-buffer flush that committed it" true
    (contains ~sub:"store-buffer flush" narrative);
  let timeline = Explain.Report.timeline rep in
  Alcotest.(check bool)
    "timeline tags the flush" true
    (contains ~sub:"#flush" timeline);
  Alcotest.(check bool)
    "timeline tags fences" true
    (contains ~sub:"#fence" timeline)

let test_html_smoke () =
  let sc, tr = Lazy.force nd_violation in
  let rep = Explain.Report.analyze sc.Core.Scenario.cfg tr in
  let html = Explain.Report.html rep in
  Alcotest.(check bool) "doctype" true (has_prefix ~prefix:"<!DOCTYPE html>" html);
  Alcotest.(check bool)
    "names the invariant" true
    (contains ~sub:"free_only_garbage" html);
  Alcotest.(check bool)
    "escapes are applied (no raw <-> from pp_event)" true
    (not (contains ~sub:"<->" html));
  let path = Filename.temp_file "explain" ".html" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Explain.Report.write_html path rep;
      let written = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check string) "write_html writes html" html written)

(* -- checker profiling --------------------------------------------------------- *)

(* the one profile record of an explore run, with all its fields *)
let profile_of ?jobs ?safety_only ?reduce sc =
  let obs, dump = Obs.Reporter.memory () in
  let o = Core.Scenario.explore ?jobs ?safety_only ?reduce ~obs sc in
  Obs.Reporter.close obs;
  let field name = function
    | Obs.Json.Obj fields -> List.assoc_opt name fields
    | _ -> None
  in
  let records = dump () in
  let profiles =
    List.filter (fun r -> field "event" r = Some (Obs.Json.String "profile")) records
  in
  Alcotest.(check int) "exactly one profile record" 1 (List.length profiles);
  let p = List.hd profiles in
  List.iter
    (fun key ->
      Alcotest.(check bool) ("profile has " ^ key) true (field key p <> None))
    [
      "checker"; "states"; "transitions"; "elapsed_s"; "succ_gen_s"; "succ_gen_calls";
      "normalize_s"; "fingerprint_s"; "fingerprint_calls"; "invariant_s"; "invariant_evals";
      "other_s"; "minor_words"; "promoted_words"; "major_words"; "minor_collections";
      "major_collections"; "heap_words";
    ];
  let int_field key =
    match field key p with
    | Some (Obs.Json.Int n) -> n
    | _ -> Alcotest.failf "%s is not an int" key
  in
  if reduce = Some Reduce.Mode.All then
    Alcotest.(check bool) "the reduction record has reduce = all" true
      (List.exists
         (fun r ->
           field "event" r = Some (Obs.Json.String "reduction")
           && field "reduce" r = Some (Obs.Json.String "all"))
         records);
  (o, int_field)

let test_profile_record () =
  let _, field = profile_of ~safety_only:true ~reduce:Reduce.Mode.All (nd_barrier ()) in
  (* attribution is real work, not zeroes *)
  Alcotest.(check bool) "invariants were evaluated" true (field "invariant_evals" > 0);
  (* on a clean instance every state evaluates every invariant exactly
     once, whichever worker inserts it: the summed count does not depend
     on the schedule *)
  let sc = Core.Scenario.make ~label:"profile" ~n_refs:2 ~shape:"single" ~max_mut_ops:1 () in
  let n_invariants = List.length (Core.Scenario.invariants sc) in
  List.iter
    (fun jobs ->
      let o, field = profile_of ~jobs sc in
      Alcotest.(check bool) "clean and closed" true
        (o.Check.Explore.violation = None && not o.Check.Explore.truncated);
      Alcotest.(check int) (Fmt.str "states in the profile at jobs=%d" jobs)
        o.Check.Explore.states (field "states");
      Alcotest.(check int)
        (Fmt.str "invariant_evals = states x invariants at jobs=%d" jobs)
        (o.Check.Explore.states * n_invariants)
        (field "invariant_evals"))
    [ 1; 2 ]

let suite =
  [
    Alcotest.test_case "witness iff check" `Quick test_witness_iff_check;
    Alcotest.test_case "import validates labels" `Quick test_import_validates_labels;
    Alcotest.test_case "explain is deterministic" `Slow test_explain_deterministic;
    Alcotest.test_case "seeded bug is explained" `Quick test_seeded_bug_explanation;
    Alcotest.test_case "html report" `Quick test_html_smoke;
    Alcotest.test_case "profile record" `Slow test_profile_record;
  ]

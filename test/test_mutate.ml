(* The mutation-testing campaign: catalogue stability, the known-answer
   ablation kills, record schema, kill-matrix rendering, budget-exhausted
   survivors, and the generated manuals staying in sync with their
   generators. *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* The campaign's enumeration configuration: every site present, two
   cycles so the hs1 store fence is armed. *)
let fat_cfg =
  { Core.Config.default with Core.Config.max_cycles = 2; max_mut_ops = 3; buf_bound = 2 }

(* -- catalogue stability ------------------------------------------------------ *)

let count_family cfg fam = List.length (Mutate.Operators.of_family cfg fam)

let test_catalogue_counts () =
  Alcotest.(check int) "drop-fence sites" 14 (count_family fat_cfg "drop-fence");
  Alcotest.(check int) "weaken-cas sites" 4 (count_family fat_cfg "weaken-cas");
  Alcotest.(check int) "elide-barrier sites" 2 (count_family fat_cfg "elide-barrier");
  Alcotest.(check int) "skip-hs-wait sites" 6 (count_family fat_cfg "skip-hs-wait");
  Alcotest.(check int) "swap-mark-loads sites" 4 (count_family fat_cfg "swap-mark-loads");
  Alcotest.(check int) "alloc-color-off sites" 1 (count_family fat_cfg "alloc-color-off");
  Alcotest.(check int) "whole catalogue" 31 (List.length (Mutate.Operators.all fat_cfg));
  (* sites follow the configuration: no store op, no barrier expansions *)
  let no_store = { fat_cfg with Core.Config.mut_store = false } in
  Alcotest.(check int) "no store: no barrier marks" 2 (count_family no_store "weaken-cas");
  Alcotest.(check int) "no store: no barriers to elide" 0 (count_family no_store "elide-barrier");
  (* O1 removes the two middle handshakes *)
  let o1 = { fat_cfg with Core.Config.skip_init_handshakes = true } in
  Alcotest.(check int) "O1: four rounds to rush" 4 (count_family o1 "skip-hs-wait");
  Alcotest.(check int) "O1: four fence pairs + mutator pair" 10 (count_family o1 "drop-fence")

(* The static buffer-emptiness analysis: the armed drop-fence sites are
   exactly the four store fences in front of the initialization
   handshakes — the paper's Section 2.4 MFENCEs. *)
let test_armed_fences_are_the_section_24_mfences () =
  let armed =
    List.filter
      (fun (m : Mutate.Operators.t) -> not m.Mutate.Operators.expected_equivalent)
      (Mutate.Operators.of_family fat_cfg "drop-fence")
  in
  Alcotest.(check (list string))
    "armed fence sites"
    [
      "drop-fence:gc:hs1:store-fence"; "drop-fence:gc:hs2:store-fence";
      "drop-fence:gc:hs3:store-fence"; "drop-fence:gc:hs4:store-fence";
    ]
    (List.map (fun (m : Mutate.Operators.t) -> m.Mutate.Operators.name) armed);
  (* with a single bounded cycle the hs1 store fence has nothing to flush *)
  let single = { fat_cfg with Core.Config.max_cycles = 1 } in
  match Mutate.Operators.by_name single "drop-fence:gc:hs1:store-fence" with
  | None -> Alcotest.fail "hs1 store fence missing from the single-cycle catalogue"
  | Some m ->
    Alcotest.(check bool) "hs1 store fence equivalent at one cycle" true
      m.Mutate.Operators.expected_equivalent

let test_mutant_tweak_composes () =
  let m = Option.get (Mutate.Operators.by_name fat_cfg "elide-barrier:del") in
  let cfg = Mutate.Operators.tweak m fat_cfg in
  Alcotest.(check bool) "mutation armed" true
    (Core.Config.barrier_elided cfg "del");
  (* the cfg-level flag (and with it the invariant guards) stays on: the
     elision is a program-text mutation, not an ablation *)
  Alcotest.(check bool) "deletion_barrier flag untouched" true cfg.Core.Config.deletion_barrier

(* -- the known-answer campaign: every ablation dies --------------------------- *)

let ablation_campaign =
  lazy
    (let mutants = List.map Mutate.Campaign.of_variant Core.Variants.ablations in
     Mutate.Campaign.run ~budget:400_000 ~mutants ())

let test_ablations_all_killed () =
  let o = Lazy.force ablation_campaign in
  List.iter
    (fun (e : Mutate.Campaign.entry) ->
      match e.Mutate.Campaign.classification with
      | Mutate.Campaign.Killed _ -> ()
      | Mutate.Campaign.Survived _ ->
        Alcotest.fail (e.Mutate.Campaign.mutant.Mutate.Campaign.name ^ " survived")
      | Mutate.Campaign.Errored msg ->
        Alcotest.fail (e.Mutate.Campaign.mutant.Mutate.Campaign.name ^ " errored: " ^ msg))
    o.Mutate.Campaign.entries;
  let s = Mutate.Kill_matrix.stats o in
  Alcotest.(check int) "five ablations" 5 s.Mutate.Kill_matrix.ablations_total;
  Alcotest.(check int) "all killed" 5 s.Mutate.Kill_matrix.ablations_killed

(* Each kill names a conjunct the violated invariant actually declares:
   the kill-matrix columns stay a closed vocabulary. *)
let test_kill_conjuncts_declared () =
  let o = Lazy.force ablation_campaign in
  List.iter
    (fun (e : Mutate.Campaign.entry) ->
      match e.Mutate.Campaign.classification with
      | Mutate.Campaign.Killed k -> (
        match
          List.find_opt
            (fun (i : Core.Invariants.t) -> i.Core.Invariants.name = k.Mutate.Campaign.invariant)
            o.Mutate.Campaign.invariants
        with
        | None -> Alcotest.fail ("kill names unknown invariant " ^ k.Mutate.Campaign.invariant)
        | Some inv ->
          Alcotest.(check bool)
            (k.Mutate.Campaign.invariant ^ " declares conjunct " ^ k.Mutate.Campaign.conjunct)
            true
            (List.mem_assoc k.Mutate.Campaign.conjunct inv.Core.Invariants.conjuncts))
      | _ -> ())
    o.Mutate.Campaign.entries

(* Every invariant carries the manual metadata the generator renders. *)
let test_invariant_metadata_complete () =
  let invs = Core.Invariants.all Core.Config.default in
  Alcotest.(check int) "catalogue size" 18 (List.length invs);
  List.iter
    (fun (i : Core.Invariants.t) ->
      Alcotest.(check bool) (i.Core.Invariants.name ^ " has a paper locus") true
        (i.Core.Invariants.paper <> "");
      Alcotest.(check bool) (i.Core.Invariants.name ^ " declares conjuncts") true
        (i.Core.Invariants.conjuncts <> []))
    invs

(* -- record schema ------------------------------------------------------------ *)

let test_campaign_record_schema () =
  let obs, recorded = Obs.Reporter.memory () in
  let mutants = [ Mutate.Campaign.of_variant (List.nth Core.Variants.ablations 3) ] in
  let _o = Mutate.Campaign.run ~obs ~budget:400_000 ~mutants () in
  Obs.Reporter.close obs;
  let records =
    List.filter
      (fun j ->
        match Obs.Json.member "event" j with
        | Some (Obs.Json.String "campaign") -> true
        | _ -> false)
      (recorded ())
  in
  Alcotest.(check int) "one campaign record per mutant" 1 (List.length records);
  let r = List.hd records in
  let str k =
    match Obs.Json.member k r with
    | Some (Obs.Json.String s) -> s
    | _ -> Alcotest.fail ("campaign record lacks string field " ^ k)
  in
  Alcotest.(check string) "mutant" "variant:alloc-white" (str "mutant");
  Alcotest.(check string) "operator" "variant" (str "operator");
  Alcotest.(check string) "status" "killed" (str "status");
  Alcotest.(check bool) "names the invariant" true (str "invariant" <> "");
  Alcotest.(check bool) "names the conjunct" true (str "conjunct" <> "");
  List.iter
    (fun k ->
      match Obs.Json.member k r with
      | Some (Obs.Json.Int n) -> Alcotest.(check bool) (k ^ " positive") true (n > 0)
      | _ -> Alcotest.fail ("campaign record lacks int field " ^ k))
    [ "states_to_kill"; "ce_length"; "states_total"; "scenarios_run" ]

(* -- kill-matrix artifacts ---------------------------------------------------- *)

let test_kill_matrix_json_and_html () =
  let o = Lazy.force ablation_campaign in
  let j = Mutate.Kill_matrix.to_json o in
  (match Obs.Json.member "schema" j with
  | Some (Obs.Json.String s) ->
    Alcotest.(check string) "schema tag" "relaxing-safely-campaign-v1" s
  | _ -> Alcotest.fail "campaign JSON lacks a schema tag");
  (match Obs.Json.member "matrix" j with
  | Some (Obs.Json.List rows) ->
    Alcotest.(check int) "one matrix row per mutant" 5 (List.length rows)
  | _ -> Alcotest.fail "campaign JSON lacks the matrix");
  (* the pretty-printed report parses back *)
  (match Obs.Json.of_string (Obs.Json.to_string_pretty j) with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("campaign JSON does not round-trip: " ^ msg));
  let html = Mutate.Kill_matrix.to_html o in
  Alcotest.(check bool) "self-contained page" true
    (contains ~sub:"<!DOCTYPE html>" html && contains ~sub:"</html>" html);
  Alcotest.(check bool) "names a mutant" true (contains ~sub:"variant:alloc-white" html);
  Alcotest.(check bool) "renders kills" true (contains ~sub:"class=\"kill\"" html);
  Alcotest.(check bool) "no external assets" true
    (not (contains ~sub:"http://" html || contains ~sub:"https://" html))

(* -- survivors ---------------------------------------------------------------- *)

let test_survived_on_tiny_budget () =
  (* an armed mutant with a 50-state budget: every run truncates, so the
     verdict must be survived-with-open-bounds, never closed *)
  let m =
    Mutate.Campaign.of_operator
      (Option.get (Mutate.Operators.by_name fat_cfg "elide-barrier:del"))
  in
  let o = Mutate.Campaign.run ~budget:50 ~mutants:[ m ] () in
  let e = List.hd o.Mutate.Campaign.entries in
  (match e.Mutate.Campaign.classification with
  | Mutate.Campaign.Survived { closed } ->
    Alcotest.(check bool) "budget exhausted, not closed" false closed
  | Mutate.Campaign.Killed _ -> Alcotest.fail "killed within 50 states?"
  | Mutate.Campaign.Errored msg -> Alcotest.fail ("errored: " ^ msg));
  Alcotest.(check bool) "ran at least one scenario" true (e.Mutate.Campaign.runs <> []);
  List.iter
    (fun (r : Mutate.Campaign.run) ->
      Alcotest.(check bool) (r.Mutate.Campaign.run_scenario ^ " truncated") true
        r.Mutate.Campaign.run_truncated)
    e.Mutate.Campaign.runs;
  let stub = Mutate.Campaign.triage_stub e in
  Alcotest.(check bool) "stub names the mutant" true (contains ~sub:"elide-barrier:del" stub);
  Alcotest.(check bool) "stub proposes next steps" true (contains ~sub:"gcmodel walk" stub);
  let s = Mutate.Kill_matrix.stats o in
  Alcotest.(check (list string))
    "an armed survivor is an unexpected outcome" [ "elide-barrier:del" ]
    s.Mutate.Kill_matrix.unexpected_survivors

(* -- the generated manuals stay in sync --------------------------------------- *)

(* A file of the repository by its path from the root.  `dune runtest`
   runs in _build/default/test; `dune exec test/test_main.exe` runs
   wherever it was invoked — walk up until the file appears. *)
let read_repo_file path =
  let candidates =
    List.map (fun up -> Filename.concat up path)
      [ "."; ".."; Filename.concat ".." ".."; List.fold_left Filename.concat ".." [ ".."; ".." ] ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> In_channel.with_open_bin path In_channel.input_all
  | None -> Alcotest.fail ("cannot locate " ^ path)

let read_doc name = read_repo_file (Filename.concat "docs" name)

let test_docs_match_generators () =
  Alcotest.(check (list string)) "gcmodel doc writes the four manuals"
    [ "INVARIANTS.md"; "VARIANTS.md"; "CERTIFICATES.md"; "RECORDS.md" ]
    (List.map fst Mutate.Doc_gen.manuals);
  List.iter
    (fun (name, md) ->
      Alcotest.(check bool)
        (Fmt.str "docs/%s matches `gcmodel doc` (regenerate with `gcmodel doc docs`)" name)
        true
        (read_doc name = md ()))
    Mutate.Doc_gen.manuals

let test_manuals_cover_the_catalogues () =
  let inv_md = Mutate.Doc_gen.invariants_md () in
  List.iter
    (fun (i : Core.Invariants.t) ->
      Alcotest.(check bool) ("manual covers " ^ i.Core.Invariants.name) true
        (contains ~sub:("## " ^ i.Core.Invariants.name) inv_md))
    (Core.Invariants.all Core.Config.default);
  let var_md = Mutate.Doc_gen.variants_md () in
  List.iter
    (fun (v : Core.Variants.t) ->
      Alcotest.(check bool) ("manual covers " ^ v.Core.Variants.name) true
        (contains ~sub:("### " ^ v.Core.Variants.name) var_md))
    Core.Variants.all;
  List.iter
    (fun (m : Mutate.Operators.t) ->
      Alcotest.(check bool) ("manual covers " ^ m.Mutate.Operators.name) true
        (contains ~sub:("`" ^ m.Mutate.Operators.name ^ "`") var_md))
    (Mutate.Operators.all fat_cfg);
  let rec_md = Mutate.Doc_gen.records_md () in
  List.iter
    (fun (r : Obs.Record.t) ->
      Alcotest.(check bool) (Fmt.str "manual covers %s (%s)" r.name r.emitter) true
        (contains ~sub:(Fmt.str "## `%s` — %s" r.name r.emitter) rec_md))
    Obs.Record.all

let suite =
  [
    Alcotest.test_case "catalogue counts are stable" `Quick test_catalogue_counts;
    Alcotest.test_case "armed fences = the Section 2.4 MFENCEs" `Quick
      test_armed_fences_are_the_section_24_mfences;
    Alcotest.test_case "tweak arms the mutation, not the ablation" `Quick
      test_mutant_tweak_composes;
    Alcotest.test_case "every ablation is killed" `Slow test_ablations_all_killed;
    Alcotest.test_case "kills name declared conjuncts" `Slow test_kill_conjuncts_declared;
    Alcotest.test_case "invariant metadata complete" `Quick test_invariant_metadata_complete;
    Alcotest.test_case "campaign record schema" `Slow test_campaign_record_schema;
    Alcotest.test_case "kill-matrix JSON and HTML" `Slow test_kill_matrix_json_and_html;
    Alcotest.test_case "tiny budget yields an open survivor" `Quick test_survived_on_tiny_budget;
    Alcotest.test_case "committed manuals match the generators" `Quick test_docs_match_generators;
    Alcotest.test_case "manuals cover the catalogues" `Quick test_manuals_cover_the_catalogues;
  ]

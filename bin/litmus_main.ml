(* litmus — run the x86-TSO litmus catalogue (experiment E9).

   Every test runs as CIMP clients of the collector's own Sys process
   (Fig. 9), in its TSO mode and in the SC baseline, and is checked against
   its published classification.  With no arguments, runs the whole
   catalogue; with test names, just those.  -v prints full outcome sets. *)

open Cmdliner

let names = Arg.(value & pos_all string [] & info [] ~docv:"TEST")
let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print full outcome sets.")

let obs_term =
  let doc = Fmt.str "Observability sink: %s." Obs.Reporter.spec_doc in
  let env = Cmd.Env.info "RELAXING_OBS" ~doc:"Default observability sink." in
  let spec = Arg.(value & opt (some string) None & info [ "obs" ] ~env ~docv:"SPEC" ~doc) in
  let resolve spec =
    try Ok (Obs.Reporter.resolve ?spec ()) with Invalid_argument msg -> Error msg
  in
  Term.(term_result' (const resolve $ spec))

let pp_outcomes ppf os =
  Fmt.pf ppf "{%a}" (Fmt.list ~sep:Fmt.sp Tso.Litmus.pp_outcome) os

let verdict_record (v : Tso.Litmus.verdict) =
  let t = v.Tso.Litmus.test in
  [
    ("name", Obs.Json.String t.Tso.Litmus.name);
    ("ok", Obs.Json.Bool v.Tso.Litmus.ok);
    ("allowed_tso", Obs.Json.Bool t.Tso.Litmus.allowed_tso);
    ("allowed_sc", Obs.Json.Bool t.Tso.Litmus.allowed_sc);
    ("observed_tso", Obs.Json.Bool v.Tso.Litmus.tso_observed);
    ("observed_sc", Obs.Json.Bool v.Tso.Litmus.sc_observed);
    ("tso_states", Obs.Json.Int v.Tso.Litmus.tso_states);
    ("sc_states", Obs.Json.Int v.Tso.Litmus.sc_states);
  ]

let run names verbose obs =
  let tests =
    if names = [] then Tso.Catalog.all
    else
      List.map
        (fun n ->
          match List.find_opt (fun (t : Tso.Litmus.test) -> t.Tso.Litmus.name = n) Tso.Catalog.all with
          | Some t -> t
          | None ->
            let known = List.map (fun (t : Tso.Litmus.test) -> t.Tso.Litmus.name) Tso.Catalog.all in
            Fmt.epr "litmus: unknown test %s (the catalogue: %s)@." n (String.concat ", " known);
            exit 1)
        names
  in
  let verdicts = List.map Tso.Litmus.run tests in
  List.iter
    (fun (v : Tso.Litmus.verdict) ->
      Fmt.pr "%a@." Tso.Litmus.pp_verdict v;
      Fmt.pr "    %s@." v.Tso.Litmus.test.Tso.Litmus.description;
      Obs.Reporter.emit obs Obs.Record.litmus (verdict_record v);
      if verbose then begin
        Fmt.pr "    TSO outcomes: %a@." pp_outcomes v.Tso.Litmus.tso_outcomes;
        Fmt.pr "    SC outcomes:  %a@." pp_outcomes v.Tso.Litmus.sc_outcomes
      end)
    verdicts;
  let bad = List.filter (fun v -> not v.Tso.Litmus.ok) verdicts in
  let mismatches = List.length bad in
  Obs.Reporter.emit obs Obs.Record.outcome_litmus
    [
      ("checker", Obs.Json.String "litmus");
      ("tests", Obs.Json.Int (List.length verdicts));
      ("mismatches", Obs.Json.Int mismatches);
    ];
  Obs.Reporter.close obs;
  if bad = [] then begin
    Fmt.pr "all %d classifications match x86-TSO@." (List.length verdicts);
    0
  end
  else begin
    Fmt.pr "%d MISMATCHES@." mismatches;
    1
  end

let () =
  let info = Cmd.info "litmus" ~doc:"x86-TSO litmus tests on the collector's Sys process." in
  exit (Cmd.eval' (Cmd.v info Term.(const run $ names $ verbose $ obs_term)))

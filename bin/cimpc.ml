(* cimpc — the CIMP concrete-language tool: parse, typecheck,
   pretty-print, and explore programs written in the surface syntax.

     cimpc check FILE      parse + typecheck
     cimpc pp FILE         parse and pretty-print (round-trip aid)
     cimpc run FILE        explore the compiled system, checking asserts
     cimpc examples        list the bundled example programs
     cimpc run -e NAME     run a bundled example
*)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* a source the tool cannot find (an unknown example, a missing file) is
   one line on stderr and exit 1, not an uncaught exception *)
let refuse msg =
  Fmt.epr "cimpc: %s@." msg;
  exit 1

let source_term =
  let file = Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE") in
  let example =
    Arg.(value & opt (some string) None & info [ "e"; "example" ] ~doc:"Use a bundled example.")
  in
  let get file example =
    match (file, example) with
    | Some f, None -> ( try (f, read_file f) with Sys_error msg -> refuse msg)
    | None, Some e -> (
      match Cimp_lang.Examples.by_name e with
      | Some (_, src, _) -> (e, src)
      | None -> refuse (Fmt.str "unknown example %s (see cimpc examples)" e))
    | _ -> refuse "give exactly one of FILE or --example"
  in
  Term.(const get $ file $ example)

(* a malformed source is refused the same way, naming it and, for lexer
   and parser errors, the position *)
let parse (name, src) =
  try Cimp_lang.Parser.program src
  with Cimp_lang.Lexer.Error (msg, { line; col }) | Cimp_lang.Parser.Error (msg, { line; col }) ->
    refuse (Fmt.str "%s:%d:%d: %s" name line col msg)

(* run [f], which typechecks [prog] first, refusing a type error *)
let typed (name, _) f prog =
  try f prog with Cimp_lang.Typecheck.Error msg -> refuse (Fmt.str "%s: %s" name msg)

let check_cmd =
  let run source =
    let prog = parse source in
    let chans = typed source Cimp_lang.Typecheck.program prog in
    Fmt.pr "ok: %d processes, %d channels@." (List.length prog) (List.length chans)
  in
  Cmd.v (Cmd.info "check" ~doc:"Parse and typecheck.") Term.(const run $ source_term)

let pp_cmd =
  let run source = Fmt.pr "%a@." Cimp_lang.Ast.pp_program (parse source) in
  Cmd.v (Cmd.info "pp" ~doc:"Parse and pretty-print.") Term.(const run $ source_term)

let obs_term =
  let doc = Fmt.str "Observability sink: %s." Obs.Reporter.spec_doc in
  let env = Cmd.Env.info "RELAXING_OBS" ~doc:"Default observability sink." in
  let spec = Arg.(value & opt (some string) None & info [ "obs" ] ~env ~docv:"SPEC" ~doc) in
  let resolve spec =
    try Ok (Obs.Reporter.resolve ?spec ()) with Invalid_argument msg -> Error msg
  in
  Term.(term_result' (const resolve $ spec))

let run_cmd =
  let max_states =
    Arg.(value & opt int 1_000_000 & info [ "max-states" ] ~doc:"State cap.")
  in
  let jobs =
    let check jobs =
      if jobs < 1 || jobs > Check.Par_explore.max_jobs then
        refuse (Fmt.str "--jobs %d is outside 1..%d" jobs Check.Par_explore.max_jobs);
      jobs
    in
    Term.(
      const check
      $ Arg.(
          value
          & opt int 1
          & info [ "jobs"; "j" ]
              ~doc:
                "Worker domains for the work-stealing BFS, 1 to 64 (1 = one worker, exact BFS \
                 order)."))
  in
  (* Surface-language systems carry no reduction spec (no symmetry
     classes, and user-chosen labels could collide with the POR policy's
     "...fence" convention), so they are always checked unreduced. *)
  let run source max_states jobs obs =
    let sys = typed source Cimp_lang.Compile.system (parse source) in
    let o =
      Check.Par_explore.run ~jobs ~max_states ~obs
        ~invariants:[ ("assertions", Cimp_lang.Compile.assertions_hold) ]
        sys
    in
    Fmt.pr "%a@." Check.Explore.pp_outcome o;
    match o.Check.Explore.violation with
    | Some tr ->
      Fmt.pr "%a@." Check.Trace.pp tr;
      Obs.Reporter.emit obs Obs.Record.violation [ ("trace", Check.Trace.to_json tr) ];
      Obs.Reporter.close obs;
      exit 1
    | None -> Obs.Reporter.close obs
  in
  Cmd.v (Cmd.info "run" ~doc:"Explore the compiled system, checking asserts.")
    Term.(const run $ source_term $ max_states $ jobs $ obs_term)

let examples_cmd =
  let run () =
    List.iter (fun (n, _, note) -> Fmt.pr "%-18s %s@." n note) Cimp_lang.Examples.all
  in
  Cmd.v (Cmd.info "examples" ~doc:"List bundled examples.") Term.(const run $ const ())

let () =
  let info = Cmd.info "cimpc" ~doc:"CIMP concrete-language front-end." in
  exit (Cmd.eval (Cmd.group info [ check_cmd; pp_cmd; run_cmd; examples_cmd ]))

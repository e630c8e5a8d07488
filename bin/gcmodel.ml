(* gcmodel — command-line driver for the collector model.

   Subcommands:
     explore   exhaustive BFS over a configured instance
     walk      randomized deep run
     variants  list the named variants and their expectations
     shapes    list the initial heap shapes
     dump      print the initial state of a configured instance
*)

open Cmdliner

(* raw model flags, kept separate from the resolved Config.t so explore
   can echo them verbatim into checkpoint manifests and resume can
   rebuild the identical instance *)
type raw_cfg = {
  muts : int;
  refs : int;
  fields : int;
  buf : int;
  cycles : int;
  ops : int;
  variant : string;
  no_ops : string list;
  mutant : string option;
}

let raw_cfg_term =
  let open Term in
  let muts = Arg.(value & opt int 1 & info [ "muts" ] ~doc:"Number of mutators.") in
  let refs =
    Arg.(
      value & opt int 3
      & info [ "refs" ] ~doc:"Heap size (references), at most 62; $(b,--shape) must fit in it.")
  in
  let fields = Arg.(value & opt int 1 & info [ "fields" ] ~doc:"Fields per object.") in
  let buf = Arg.(value & opt int 1 & info [ "buf" ] ~doc:"TSO store-buffer capacity.") in
  let cycles =
    Arg.(value & opt int 1 & info [ "cycles" ] ~doc:"Collector cycles (0 = unbounded).")
  in
  let ops =
    Arg.(value & opt int 2 & info [ "ops" ] ~doc:"Heap-operation budget per mutator (0 = unbounded).")
  in
  let variant =
    Arg.(value & opt string "paper" & info [ "variant" ] ~doc:"Collector variant (see $(b,variants)).")
  in
  let no_ops =
    Arg.(value & opt_all string [] & info [ "disable" ] ~doc:"Disable a mutator op: load, store, alloc, discard, mfence.")
  in
  let mutant =
    Arg.(
      value
      & opt (some string) None
      & info [ "mutant" ] ~docv:"NAME"
          ~doc:
            "Arm one campaign mutant (an operator mutant like \
             $(b,drop-fence:gc:hs2:store-fence), or $(b,variant:NAME) for an ablation) on \
             top of the configured instance.  Survivor triage stubs reference this flag.")
  in
  let mk muts refs fields buf cycles ops variant no_ops mutant =
    { muts; refs; fields; buf; cycles; ops; variant; no_ops; mutant }
  in
  const mk $ muts $ refs $ fields $ buf $ cycles $ ops $ variant $ no_ops $ mutant

(* A flag value the model cannot take (an unknown variant, --disable op,
   --mutant, shape, process or operator family, or a shape that does not
   fit --refs) is one line on stderr and exit 1, not an uncaught
   exception. *)
let refuse msg =
  Fmt.epr "gcmodel: %s@." msg;
  exit 1

let resolve_cfg { muts; refs; fields; buf; cycles; ops; variant; no_ops; mutant } =
  let build muts refs fields buf cycles ops variant no_ops mutant =
    let v =
      match Core.Variants.by_name variant with
      | Some v -> v
      | None -> refuse (Fmt.str "unknown variant %s (see gcmodel variants)" variant)
    in
    let cfg =
      v.Core.Variants.tweak
        {
          Core.Config.default with
          n_muts = muts;
          n_refs = refs;
          n_fields = fields;
          buf_bound = buf;
          max_cycles = cycles;
          max_mut_ops = ops;
        }
    in
    (* out-of-range bounds are refused before a mutant or shape is built *)
    (try Core.Model.check_bounds cfg with Invalid_argument msg -> refuse msg);
    let dis name cfg =
      match name with
      | "load" -> { cfg with Core.Config.mut_load = false }
      | "store" -> { cfg with Core.Config.mut_store = false }
      | "alloc" -> { cfg with Core.Config.mut_alloc = false }
      | "discard" -> { cfg with Core.Config.mut_discard = false }
      | "mfence" -> { cfg with Core.Config.mut_mfence = false }
      | s -> refuse (Fmt.str "unknown --disable op %s (expected load, store, alloc, discard, mfence)" s)
    in
    let cfg = List.fold_left (fun c n -> dis n c) cfg no_ops in
    let cfg =
      match mutant with
      | None -> cfg
      | Some name -> (
        match String.length name >= 8 && String.sub name 0 8 = "variant:" with
        | true -> (
          let vname = String.sub name 8 (String.length name - 8) in
          match Core.Variants.by_name vname with
          | Some v -> v.Core.Variants.tweak cfg
          | None -> refuse (Fmt.str "unknown variant mutant %s" name))
        | false -> (
          (* resolve against the instance, falling back to a site-rich
             configuration: arming a mutation whose site is absent is a
             harmless no-op, and triage stubs quote mutant names from the
             campaign's enumeration configuration *)
          let fat =
            {
              cfg with
              Core.Config.max_cycles = max 2 cfg.Core.Config.max_cycles;
              max_mut_ops = 3;
              mut_load = true;
              mut_store = true;
              mut_alloc = true;
              mut_discard = true;
            }
          in
          match
            match Mutate.Operators.by_name cfg name with
            | Some m -> Some m
            | None -> Mutate.Operators.by_name fat name
          with
          | Some m -> Mutate.Operators.tweak m cfg
          | None -> refuse (Fmt.str "unknown mutant %s (see gcmodel campaign --list)" name)))
    in
    (cfg, v)
  in
  build muts refs fields buf cycles ops variant no_ops mutant

let cfg_term = Term.(const resolve_cfg $ raw_cfg_term)

let shape_term =
  Arg.(value & opt string "single" & info [ "shape" ] ~doc:"Initial heap shape (see $(b,shapes)).")

let obs_term =
  let doc = Fmt.str "Observability sink: %s." Obs.Reporter.spec_doc in
  let env = Cmd.Env.info "RELAXING_OBS" ~doc:"Default observability sink." in
  let spec = Arg.(value & opt (some string) None & info [ "obs" ] ~env ~docv:"SPEC" ~doc) in
  let resolve spec =
    try Ok (Obs.Reporter.resolve ?spec ()) with Invalid_argument msg -> Error msg
  in
  Term.(term_result' (const resolve $ spec))

let trace_out_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON timeline to $(docv) (load it in Perfetto or \
           chrome://tracing): one lane per worker domain, with expand/phase, steal, \
           steal-fail and termination-probe spans (explore) or per-walker spans (walk).")

(* finish the tracer and tell the user where the timeline went *)
let close_trace tracer trace_out =
  match Obs.Tracing.finish tracer ?out:trace_out () with
  | None -> ()
  | Some (events, drops) ->
    Fmt.pr "trace: %d events written to %s%s@." events
      (Option.value trace_out ~default:"?")
      (if drops > 0 then Fmt.str " (%d dropped: ring full)" drops else "")

(* --reduce / RELAXING_REDUCE.  The default differs per subcommand
   (explore: all — the reductions are proven-sound and the point of
   exhaustive closure is reach; walk: none — reduced walks sample a
   different schedule distribution per seed), so the parsed default
   string is a parameter. *)
let reduce_term ~default =
  let doc = Fmt.str "State-space reduction: none, sym, por or all (default %s)." default in
  let env = Cmd.Env.info "RELAXING_REDUCE" ~doc:"Default reduction mode." in
  let spec = Arg.(value & opt string default & info [ "reduce" ] ~env ~docv:"MODE" ~doc) in
  Term.(term_result' (const Reduce.Mode.of_string $ spec))

let safety_only =
  Arg.(value & flag & info [ "safety-only" ] ~doc:"Check only the safety invariants.")

let max_states =
  Arg.(value & opt int 10_000_000 & info [ "max-states" ] ~doc:"State cap for exploration.")

(* A count flag below its least value is refused like any flag value the
   model cannot take: one line naming the flag, exit 1. *)
let at_least least flag n =
  if n < least then refuse (Fmt.str "%s %d is below %d" flag n least);
  n

(* So is a --jobs outside 1..64. *)
let check_jobs jobs =
  if jobs < 1 || jobs > Check.Par_explore.max_jobs then
    refuse (Fmt.str "--jobs %d is outside 1..%d" jobs Check.Par_explore.max_jobs);
  jobs

let jobs =
  Term.(
    const check_jobs
    $ Arg.(
        value
        & opt int 1
        & info [ "jobs"; "j" ]
            ~doc:
              "Worker domains for the work-stealing BFS (explore, crosscheck) or the random-walk \
               swarm (walk), 1 to 64.  1 (the default) runs one worker on the calling domain."))

(* -- tiered store / checkpoint flags (lib/store) ----------------------------- *)

let byte_size_conv =
  let parse s =
    let n = String.length s in
    if n = 0 then Error (`Msg "empty size")
    else
      let mult, digits =
        match s.[n - 1] with
        | 'k' | 'K' -> (1 lsl 10, String.sub s 0 (n - 1))
        | 'm' | 'M' -> (1 lsl 20, String.sub s 0 (n - 1))
        | 'g' | 'G' -> (1 lsl 30, String.sub s 0 (n - 1))
        | _ -> (1, s)
      in
      match int_of_string_opt digits with
      | Some v when v > 0 -> Ok (v * mult)
      | _ -> Error (`Msg (Fmt.str "invalid size %S (expected e.g. 512M, 2G, 65536)" s))
  in
  Arg.conv (parse, fun ppf v -> Fmt.pf ppf "%d" v)

let mem_budget_term =
  Arg.(
    value
    & opt (some byte_size_conv) None
    & info [ "mem-budget" ] ~docv:"BYTES"
        ~doc:
          "Resident-byte budget for the seen-set (suffixes k, M, G).  Shards that cross \
           their slice of the budget freeze into Bloom-fronted sorted segments on disk \
           (see $(b,--spill-dir)); membership stays exact, so verdicts are unchanged.  \
           Absent, the seen-set stays entirely in RAM.")

let spill_dir_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "spill-dir" ] ~docv:"DIR"
        ~doc:"Directory for spilled segment files (default: a fresh temporary directory).")

let checkpoint_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"DIR"
        ~doc:
          "Snapshot the full exploration state into $(docv) periodically (atomic: a \
           half-written snapshot is never visible) and once more on completion.  Continue \
           an interrupted run with $(b,gcmodel resume) $(docv).")

let checkpoint_every_term =
  Term.(
    const (at_least 1 "--checkpoint-every")
    $ Arg.(
        value
        & opt int 50_000
        & info [ "checkpoint-every" ] ~docv:"N"
            ~doc:"States between checkpoints, at least 1 (with $(b,--checkpoint); default 50000)."))

(* everything needed to rebuild the instance and flags at resume *)
let run_config_json (raw : raw_cfg) ~shape ~safety_only ~max_states ~jobs ~reduce ~mem_budget
    ~checkpoint_every =
  Obs.Json.Obj
    [
      ("muts", Obs.Json.Int raw.muts);
      ("refs", Obs.Json.Int raw.refs);
      ("fields", Obs.Json.Int raw.fields);
      ("buf", Obs.Json.Int raw.buf);
      ("cycles", Obs.Json.Int raw.cycles);
      ("ops", Obs.Json.Int raw.ops);
      ("variant", Obs.Json.String raw.variant);
      ("disable", Obs.Json.List (List.map (fun s -> Obs.Json.String s) raw.no_ops));
      ( "mutant",
        match raw.mutant with None -> Obs.Json.Null | Some m -> Obs.Json.String m );
      ("shape", Obs.Json.String shape);
      ("safety_only", Obs.Json.Bool safety_only);
      ("max_states", Obs.Json.Int max_states);
      ("jobs", Obs.Json.Int jobs);
      ("reduce", Obs.Json.String (Reduce.Mode.to_string reduce));
      ( "mem_budget",
        match mem_budget with None -> Obs.Json.Null | Some b -> Obs.Json.Int b );
      ("checkpoint_every", Obs.Json.Int checkpoint_every);
    ]

(* an int field no less than [lo] and no more than [hi] *)
let within lo ?(hi = max_int) v =
  let n = Obs.Json.Decode.int v in
  if n < lo || n > hi then Obs.Json.Decode.malformed v else n

(* The run configuration is read fail-closed through Obs.Json.Decode:
   every field a command reads must be present and typed (only [mutant]
   and [mem_budget] may be null), and a refusal names the field.  The
   flags hold the only defaults.  First, the instance: model flags,
   shape and invariant selection. *)
let instance_of_config =
  Obs.Json.Decode.(
    run "run configuration" (fun c ->
        (* the bounds of [Core.Model.check_bounds] *)
        let muts = within 0 (field "muts" c) in
        let refs = within 0 (field "refs" c) in
        let fields = within 1 (field "fields" c) in
        let buf = within 1 (field "buf" c) in
        let cycles = within 0 (field "cycles" c) in
        let ops = within 0 (field "ops" c) in
        let variant =
          let v = field "variant" c in
          let name = string v in
          if Core.Variants.by_name name = None then malformed v else name
        in
        let no_ops = list string (field "disable" c) in
        let mutant = nullable string (field "mutant" c) in
        let shape = string (field "shape" c) in
        let safety_only = bool (field "safety_only" c) in
        ({ muts; refs; fields; buf; cycles; ops; variant; no_ops; mutant }, shape, safety_only)))

(* the remaining explore flags, which resume continues with *)
let run_flags_of_config =
  Obs.Json.Decode.(
    run "run configuration" (fun c ->
        let max_states = int (field "max_states" c) in
        let jobs = within 1 ~hi:Check.Par_explore.max_jobs (field "jobs" c) in
        let reduce =
          let r = field "reduce" c in
          match Reduce.Mode.of_string (string r) with Ok m -> m | Error _ -> malformed r
        in
        let mem_budget = nullable int (field "mem_budget" c) in
        let checkpoint_every = within 1 (field "checkpoint_every" c) in
        (max_states, jobs, reduce, mem_budget, checkpoint_every)))

let model_of (cfg, _v) shape =
  match
    Gcheap.Shapes.by_name ~n_refs:cfg.Core.Config.n_refs ~n_fields:cfg.Core.Config.n_fields shape
  with
  | None -> refuse (Fmt.str "unknown shape %s (see gcmodel shapes)" shape)
  | Some s -> ( try Core.Model.make cfg s with Invalid_argument msg -> refuse msg)
  | exception Invalid_argument msg -> refuse msg

let invariants_of cfg safety_only =
  let invs =
    if safety_only then Core.Invariants.safety_invariants cfg else Core.Invariants.all cfg
  in
  List.map (fun i -> (i.Core.Invariants.name, i.Core.Invariants.check)) invs

let report cfg obs (violation : _ Check.Trace.t option) =
  match violation with
  | None -> ()
  | Some tr ->
    Fmt.pr "%a@." (Core.Dump.pp_trace cfg) tr;
    (* the counterexample as a replayable artifact *)
    Obs.Reporter.emit obs Obs.Record.violation [ ("trace", Check.Trace.to_json tr) ]

(* -- counterexample forensics (lib/explain) ---------------------------------- *)

let explain_last =
  Arg.(
    value
    & opt int 8
    & info [ "last" ]
        ~doc:"How many steps touching the witness refs the explanation shows.")

let explain_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "explain" ] ~docv:"FILE"
        ~doc:"On a violation, write a counterexample forensics HTML report to $(docv).")

let write_explanation ?(last = 8) ~html ~obs cfg (tr : Explain.Report.trace) =
  let rep = Explain.Report.analyze cfg tr in
  Obs.Reporter.emit obs Obs.Record.explanation [ ("report", Explain.Report.to_json rep) ];
  (match html with
  | None -> ()
  | Some path ->
    Explain.Report.write_html ~last path rep;
    Fmt.pr "explain: HTML report written to %s@." path);
  rep

(* the --explain=FILE rider on explore / walk / crosscheck *)
let explain_violation ?last ~html ~obs cfg violation =
  match (html, violation) with
  | None, _ -> ()
  | Some _, None -> Fmt.pr "explain: no violation — no report written@."
  | Some _, Some tr -> ignore (write_explanation ?last ~html ~obs cfg tr)

let certificate_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "certificate" ] ~docv:"DIR"
        ~doc:
          "On a closed, violation-free run, write a proof-witness certificate into $(docv): \
           the reach table (canonical fingerprint, BFS depth, invariant verdict per state) \
           in the delta-compressed segment format, under a header binding the configuration \
           hash, reduction mode and closure obligations.  Validate it later — without \
           re-running the explorer — with $(b,gcmodel recheck) $(docv).  Refused (exit 1) \
           on truncated or violating runs.  See docs/CERTIFICATES.md.")

(* A disk failure (a spill, merge, snapshot or certificate write) is one
   line naming the path, and exit 1. *)
let io_failure_refused cmd f =
  try f ()
  with Sys_error msg ->
    Fmt.epr "gcmodel %s: %s@." cmd msg;
    exit 1

let explore_cmd =
  let run raw shape safety_only max_states jobs reduce mem_budget spill_dir checkpoint
      checkpoint_every certificate explain trace_out obs =
    io_failure_refused "explore" @@ fun () ->
    let cv = resolve_cfg raw in
    let cfg, v = cv in
    let model = model_of cv shape in
    Fmt.pr "exploring variant=%s shape=%s muts=%d refs=%d cycles=%d ops=%d jobs=%d reduce=%a%a@."
      v.Core.Variants.name shape cfg.Core.Config.n_muts cfg.Core.Config.n_refs
      cfg.Core.Config.max_cycles cfg.Core.Config.max_mut_ops jobs Reduce.Mode.pp reduce
      Fmt.(option (fmt " mem-budget=%d"))
      mem_budget;
    let reducer = Core.Reduction.reducer cfg reduce in
    let tracer = Obs.Tracing.resolve ?out:trace_out ~domains:jobs () in
    let run_config =
      run_config_json raw ~shape ~safety_only ~max_states ~jobs ~reduce ~mem_budget
        ~checkpoint_every
    in
    let invariants = invariants_of cfg safety_only in
    let checkpoint = Option.map (fun dir -> (dir, checkpoint_every)) checkpoint in
    (* at jobs = 1 the certifying run is the verdict run *)
    let o, table =
      if certificate <> None && jobs = 1 then
        let o, table =
          Certify.Writer.explore ~max_states ~obs ~tracer ?reducer ?mem_budget ?spill_dir
            ?checkpoint ~run_config ~invariants model.Core.Model.system
        in
        (o, Some table)
      else
        ( Check.Par_explore.run ~jobs ~max_states ~obs ~tracer ?reducer ?mem_budget ?spill_dir
            ?checkpoint ~run_config ~invariants model.Core.Model.system,
          None )
    in
    Fmt.pr "%a@." Check.Explore.pp_outcome o;
    report cfg obs o.Check.Explore.violation;
    explain_violation ~html:explain ~obs cfg o.Check.Explore.violation;
    let cert_failed =
      match certificate with
      | None -> None
      | Some dir -> (
        let refuse msg = Some (Fmt.str "certificate refused: %s" msg) in
        let table =
          match (table, Certify.Writer.refusal o) with
          | Some t, _ -> t
          | None, Some msg -> Error msg
          | None, None ->
            (* parallel schedules can drift at the symmetry reduction's
               local-automorphism boundary: the table comes from a
               one-worker run, so the certificate is byte-identical to a
               jobs=1 run's *)
            Fmt.pr "certificate: one-worker run (jobs=%d order is schedule-dependent)@." jobs;
            snd
              (Certify.Writer.explore ~max_states ?reducer ?mem_budget ?spill_dir ~invariants
                 model.Core.Model.system)
        in
        match table with
        | Error msg -> refuse msg
        | Ok (entries, max_depth) -> (
          match
            Certify.Writer.write ~dir ~config_hash:(Core.Config.hash cfg)
              ~reduce:(Reduce.Mode.to_string reduce) ~invariant_names:(List.map fst invariants)
              ~run_config ~max_depth entries
          with
          | Error msg -> refuse msg
          | Ok h ->
            Fmt.pr "certificate: %d states (max depth %d, config %s) written to %s@."
              h.Certify.Certificate.states h.Certify.Certificate.max_depth
              h.Certify.Certificate.config_hash dir;
            None))
    in
    close_trace tracer trace_out;
    Obs.Reporter.close obs;
    match cert_failed with
    | Some msg ->
      Fmt.epr "%s@." msg;
      exit 1
    | None -> ()
  in
  Cmd.v (Cmd.info "explore" ~doc:"Exhaustive BFS with invariant checking.")
    Term.(
      const run $ raw_cfg_term $ shape_term $ safety_only $ max_states $ jobs
      $ reduce_term ~default:"all" $ mem_budget_term $ spill_dir_term $ checkpoint_term
      $ checkpoint_every_term $ certificate_term $ explain_file $ trace_out_term $ obs_term)

let resume_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Checkpoint directory written by $(b,explore --checkpoint).")
  in
  let jobs_override =
    Term.(
      const (Option.map check_jobs)
      $ Arg.(
          value
          & opt (some int) None
          & info [ "jobs"; "j" ]
              ~doc:
                "Worker domains, 1 to 64 (default: the interrupted run's setting from the \
                 manifest)."))
  in
  let run dir jobs_override explain trace_out obs =
    io_failure_refused "resume" @@ fun () ->
    let fail msg =
      Fmt.epr "gcmodel resume: %s@." msg;
      exit 1
    in
    let ok = function Ok v -> v | Error msg -> fail msg in
    let config = snd (ok (Store.Checkpoint.manifest dir)) in
    let raw, shape, safety_only = ok (instance_of_config config) in
    let max_states, cfg_jobs, reduce, mem_budget, checkpoint_every =
      ok (run_flags_of_config config)
    in
    let jobs = Option.value jobs_override ~default:cfg_jobs in
    let cv = resolve_cfg raw in
    let cfg, v = cv in
    let model = model_of cv shape in
    let snap = ok (Store.Checkpoint.load ?mem_budget dir) in
    Fmt.pr
      "resuming variant=%s shape=%s muts=%d refs=%d jobs=%d reduce=%a: snapshot %d (%d states, \
       frontier %d)@."
      v.Core.Variants.name shape cfg.Core.Config.n_muts cfg.Core.Config.n_refs jobs
      Reduce.Mode.pp reduce snap.Store.Checkpoint.seq snap.Store.Checkpoint.states
      (Array.fold_left (fun acc l -> acc + List.length l) 0 snap.Store.Checkpoint.frontier);
    let reducer = Core.Reduction.reducer cfg reduce in
    let tracer = Obs.Tracing.resolve ?out:trace_out ~domains:jobs () in
    (* a snapshot of another model, or a frontier state the model cannot
       replay, is refused in one line *)
    let o =
      try
        Check.Par_explore.run ~jobs ~max_states ~obs ~tracer ?reducer ?mem_budget
          ~checkpoint:(dir, checkpoint_every) ~resume:snap ~run_config:config
          ~invariants:(invariants_of cfg safety_only) model.Core.Model.system
      with Invalid_argument msg -> fail msg
    in
    Fmt.pr "%a@." Check.Explore.pp_outcome o;
    report cfg obs o.Check.Explore.violation;
    explain_violation ~html:explain ~obs cfg o.Check.Explore.violation;
    close_trace tracer trace_out;
    Obs.Reporter.close obs
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Continue an interrupted $(b,explore --checkpoint) run from its latest snapshot.  \
          The model, flags and reduction mode are rebuilt from the checkpoint manifest; the \
          resumed run reaches the same verdict, violated invariant and counterexample length \
          as an uninterrupted one, and keeps checkpointing into the same directory.")
    Term.(const run $ dir $ jobs_override $ explain_file $ trace_out_term $ obs_term)

let recheck_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Certificate directory written by $(b,explore --certificate).")
  in
  let run dir obs =
    let fail msg =
      Fmt.epr "gcmodel recheck: FAILED — %s@." msg;
      exit 1
    in
    match Certify.Certificate.read_header dir with
    | Error msg -> fail msg
    | Ok h ->
      (* rebuild the instance from the embedded run configuration, as
         resume does from checkpoint manifests; the reduction mode comes
         from the header field the certificate binds *)
      let raw, shape, safety_only =
        match instance_of_config h.Certify.Certificate.run_config with
        | Ok instance -> instance
        | Error msg -> fail msg
      in
      let reduce =
        match Reduce.Mode.of_string h.Certify.Certificate.reduce with
        | Ok m -> m
        | Error e -> fail (Fmt.str "header field \"reduce\": %s" e)
      in
      let cv = resolve_cfg raw in
      let cfg, v = cv in
      let model = model_of cv shape in
      let reducer = Core.Reduction.reducer cfg reduce in
      let invariants = invariants_of cfg safety_only in
      Fmt.pr "rechecking %s: variant=%s shape=%s muts=%d refs=%d reduce=%a (%d states claimed)@."
        dir v.Core.Variants.name shape cfg.Core.Config.n_muts cfg.Core.Config.n_refs
        Reduce.Mode.pp reduce h.Certify.Certificate.states;
      (match
         Certify.Recheck.validate ~reducer ~invariants ~config_hash:(Core.Config.hash cfg)
           ~dir model.Core.Model.system
       with
      | Error msg -> fail msg
      | Ok (_, st) ->
        let rate =
          if st.Certify.Recheck.elapsed_s > 0. then
            float_of_int st.Certify.Recheck.states /. st.Certify.Recheck.elapsed_s
          else 0.
        in
        Fmt.pr
          "recheck: OK — %d states, %d transitions, max depth %d validated in %.3fs (%.0f \
           states/s, %.1f table bytes/state)@."
          st.Certify.Recheck.states st.Certify.Recheck.transitions
          st.Certify.Recheck.max_depth st.Certify.Recheck.elapsed_s rate
          (float_of_int st.Certify.Recheck.table_bytes /. float_of_int (max 1 st.Certify.Recheck.states));
        Obs.Reporter.emit obs Obs.Record.recheck
          [
            ("dir", Obs.Json.String dir);
            ("states", Obs.Json.Int st.Certify.Recheck.states);
            ("transitions", Obs.Json.Int st.Certify.Recheck.transitions);
            ("max_depth", Obs.Json.Int st.Certify.Recheck.max_depth);
            ("elapsed_s", Obs.Json.Float st.Certify.Recheck.elapsed_s);
            ("table_bytes", Obs.Json.Int st.Certify.Recheck.table_bytes);
          ]);
      Obs.Reporter.close obs
  in
  Cmd.v
    (Cmd.info "recheck"
       ~doc:
         "Validate a certificate written by $(b,explore --certificate) without running the \
          explorer: stream the table, re-evaluate the full invariant catalogue on every \
          state, re-derive every depth stamp, and discharge transition closure by \
          regenerating each state's successors and probing table membership.  Any miss, \
          tamper or configuration mismatch fails closed (exit 1) naming the offending \
          fingerprint or header field.")
    Term.(const run $ dir $ obs_term)

let certdiff_cmd =
  let dir_a =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"A" ~doc:"First certificate.")
  in
  let dir_b =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"B" ~doc:"Second certificate.")
  in
  let run a b =
    match Certify.Diff.run a b with
    | Error msg ->
      Fmt.epr "gcmodel certdiff: %s@." msg;
      exit 2
    | Ok d ->
      Fmt.pr "%a@." Certify.Diff.pp d;
      if not (Certify.Diff.identical d) then exit 1
  in
  Cmd.v
    (Cmd.info "certdiff"
       ~doc:
         "Compare two certificates structurally: header fields, then a linear merge of the \
          sorted tables (states only in one, depth or verdict changes).  Exits 0 iff \
          identical — the CI no-change gate between consecutive runs.")
    Term.(const run $ dir_a $ dir_b)

let walk_cmd =
  let steps =
    Term.(
      const (at_least 0 "--steps")
      $ Arg.(value & opt int 100_000 & info [ "steps" ] ~doc:"Scheduled steps, at least 0."))
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let run cv shape safety_only steps seed jobs reduce explain trace_out obs =
    let cfg, v = cv in
    let model = model_of cv shape in
    Fmt.pr "random walk variant=%s shape=%s steps=%d seed=%d jobs=%d reduce=%a@."
      v.Core.Variants.name shape steps seed jobs Reduce.Mode.pp reduce;
    let reducer = Core.Reduction.reducer cfg reduce in
    let tracer = Obs.Tracing.resolve ?out:trace_out ~domains:jobs () in
    let o =
      Check.Random_walk.swarm ~jobs ~seed ~steps ~obs ~tracer ?reducer
        ~invariants:(invariants_of cfg safety_only) model.Core.Model.system
    in
    Fmt.pr "%a@." Check.Random_walk.pp_outcome o;
    report cfg obs o.Check.Random_walk.violation;
    explain_violation ~html:explain ~obs cfg o.Check.Random_walk.violation;
    close_trace tracer trace_out;
    Obs.Reporter.close obs
  in
  Cmd.v (Cmd.info "walk" ~doc:"Randomized deep run with invariant checking.")
    Term.(
      const run $ cfg_term $ shape_term $ safety_only $ steps $ seed $ jobs
      $ reduce_term ~default:"none" $ explain_file $ trace_out_term $ obs_term)

let crosscheck_cmd =
  let run cv shape safety_only max_states jobs reduce mem_budget explain obs =
    let cfg, v = cv in
    if reduce = Reduce.Mode.None_ then refuse "crosscheck needs --reduce sym, por or all, not none";
    let model = model_of cv shape in
    Fmt.pr "cross-checking variant=%s shape=%s muts=%d refs=%d cycles=%d ops=%d reduce=%a@."
      v.Core.Variants.name shape cfg.Core.Config.n_muts cfg.Core.Config.n_refs
      cfg.Core.Config.max_cycles cfg.Core.Config.max_mut_ops Reduce.Mode.pp reduce;
    let r =
      Reduce.Crosscheck.run ~max_states ~obs ~jobs ?mem_budget
        ~reducer:(Option.get (Core.Reduction.reducer cfg reduce))
        ~invariants:(invariants_of cfg safety_only) model.Core.Model.system
    in
    Fmt.pr "%a@." Reduce.Crosscheck.pp r;
    explain_violation ~html:explain ~obs cfg r.Reduce.Crosscheck.counterexample;
    Obs.Reporter.close obs;
    match Reduce.Crosscheck.errors r with
    | [] -> Fmt.pr "cross-check OK@."
    | errs ->
      List.iter (Fmt.epr "cross-check FAILED: %s@.") errs;
      exit 1
  in
  Cmd.v
    (Cmd.info "crosscheck"
       ~doc:
         "Run reduced and unreduced exploration on the same instance and verify they agree \
          (verdict, violated invariant, counterexample length, reduced <= full states). \
          Then verify the work-stealing engine against those exact reference runs at 1 and \
          at --jobs N domains, unreduced and reduced: same verdict, invariant and \
          counterexample length, and on clean runs the same state and transition counts \
          (reduced counts at 1 domain only). \
          With --mem-budget B, also verify a forced-spill run (tiered store under budget B, \
          at 1 and 4 domains) and a resume from a mid-run checkpoint report the all-RAM \
          verdict and counts. Exits 1 on mismatch.")
    Term.(
      const run $ cfg_term $ shape_term $ safety_only $ max_states $ jobs
      $ reduce_term ~default:"all" $ mem_budget_term $ explain_file $ obs_term)

let explain_cmd =
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Explain an exported trace: $(docv) holds a trace object as written by the \
             $(b,violation) observability record (either the record itself or its \
             \"trace\" payload).  The schedule is validated against the configured \
             instance and replayed.  Without $(b,--trace), the instance is explored \
             until a violation is found.")
  in
  let html_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "html" ] ~docv:"FILE"
          ~doc:"Also write a self-contained HTML report to $(docv).")
  in
  let run cv shape safety_only max_states reduce trace_file html_file last obs =
    let cfg, v = cv in
    let model = model_of cv shape in
    let trace =
      match trace_file with
      | Some path ->
        let fail msg =
          Fmt.epr "gcmodel explain: %s@." msg;
          exit 1
        in
        let raw =
          try In_channel.with_open_bin path In_channel.input_all with Sys_error msg -> fail msg
        in
        let json =
          match Obs.Json.of_string raw with
          | Error msg -> fail (Fmt.str "%s: not JSON: %s" path msg)
          | Ok (Obs.Json.Obj fields as j) ->
            (* accept a whole "violation" record or the bare trace object *)
            (match List.assoc_opt "trace" fields with Some t -> t | None -> j)
          | Ok j -> j
        in
        (* the verdict is checked, not trusted: the broken invariant must be
           in the catalogue and fail on the replayed final state *)
        let checked (tr : _ Check.Trace.t) =
          match Core.Invariants.find cfg tr.broken with
          | None -> Error (Fmt.str "invariant %s is not in this configuration's catalogue" tr.broken)
          | Some i when i.Core.Invariants.check (Check.Trace.final tr) ->
            let n = Check.Trace.length tr in
            Error (Fmt.str "invariant %s holds after the %d replayed steps" tr.broken n)
          | Some _ -> Ok tr
        in
        (match Result.bind (Check.Trace.import model.Core.Model.system json) checked with
        | Ok tr -> tr
        | Error msg -> fail (Fmt.str "%s: %s" path msg))
      | None ->
        Fmt.pr "explaining variant=%s shape=%s muts=%d refs=%d (searching for a violation)@."
          v.Core.Variants.name shape cfg.Core.Config.n_muts cfg.Core.Config.n_refs;
        let reducer = Core.Reduction.reducer cfg reduce in
        let o =
          Check.Par_explore.run ~jobs:1 ~max_states ~obs ?reducer
            ~invariants:(invariants_of cfg safety_only) model.Core.Model.system
        in
        (match o.Check.Explore.violation with
        | Some tr -> tr
        | None ->
          Fmt.epr "gcmodel explain: no violation found (%d states explored) — nothing to explain@."
            o.Check.Explore.states;
          exit 1)
    in
    let rep = write_explanation ~last ~html:html_file ~obs cfg trace in
    Fmt.pr "%s@." (Explain.Report.render ~last rep);
    Obs.Reporter.close obs
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Counterexample forensics: replay a trace (or explore to a violation), then print \
          the violated conjunct and witness, a per-process lane timeline, and the per-step \
          state-diff narrative.")
    Term.(
      const run $ cfg_term $ shape_term $ safety_only $ max_states
      $ reduce_term ~default:"all" $ trace_file $ html_file $ explain_last $ obs_term)

let variants_cmd =
  let run () =
    List.iter
      (fun v ->
        Fmt.pr "%-32s %-16s %s@." v.Core.Variants.name
          (match v.Core.Variants.expectation with
          | Core.Variants.Safe -> "safe"
          | Core.Variants.Unsafe -> "unsafe"
          | Core.Variants.Conjectured_safe -> "conjectured-safe")
          v.Core.Variants.description)
      Core.Variants.all
  in
  Cmd.v (Cmd.info "variants" ~doc:"List collector variants.") Term.(const run $ const ())

let shapes_cmd =
  let run () =
    List.iter
      (fun (s : Gcheap.Shapes.t) ->
        Fmt.pr "%-10s roots=%a@." s.Gcheap.Shapes.name
          Fmt.(list ~sep:sp (brackets (list ~sep:comma int)))
          s.Gcheap.Shapes.roots)
      (Gcheap.Shapes.all ~n_refs:4 ~n_fields:1)
  in
  Cmd.v (Cmd.info "shapes" ~doc:"List initial heap shapes.") Term.(const run $ const ())

let dump_cmd =
  let run cv shape =
    let cfg, _ = cv in
    let model = model_of cv shape in
    Fmt.pr "%a@." (Core.Dump.pp_state cfg) model.Core.Model.system
  in
  Cmd.v (Cmd.info "dump" ~doc:"Print the initial state.") Term.(const run $ cfg_term $ shape_term)

let program_cmd =
  (* Print a process's CIMP control skeleton — the model-side counterpart
     of the paper's Figs. 2, 5 and 6, for eyeball correspondence. *)
  let which =
    Arg.(value & pos 0 string "gc" & info [] ~docv:"PROC" ~doc:"gc, mut, or sys.")
  in
  let run cv which =
    let cfg, _ = cv in
    let programs = Core.Model.programs cfg in
    let com =
      match which with
      | "gc" -> List.nth programs Core.Config.pid_gc
      | "sys" -> List.nth programs (Core.Config.pid_sys cfg)
      | "mut" | "mut0" -> List.nth programs (Core.Config.pid_mut cfg 0)
      | s -> refuse (Fmt.str "unknown process %s (expected gc, mut, sys)" s)
    in
    Fmt.pr "%a@." Cimp.Pretty.pp com
  in
  Cmd.v
    (Cmd.info "program" ~doc:"Pretty-print a process's CIMP program (cf. the paper's Figs. 2, 5, 6).")
    Term.(const run $ cfg_term $ which)

(* -- mutation-testing campaign (lib/mutate) ---------------------------------- *)

let campaign_cmd =
  let operators =
    Arg.(
      value
      & opt_all string []
      & info [ "operators" ] ~docv:"FAMILY"
          ~doc:
            "Restrict the campaign to these operator families (repeatable): drop-fence, \
             weaken-cas, elide-barrier, skip-hs-wait, swap-mark-loads, alloc-color-off, or \
             variant (the hand-written ablations).  Default: all of them.")
  in
  let budget =
    Term.(
      const (at_least 1 "--budget")
      $ Arg.(
          value & opt int 300_000
          & info [ "budget" ] ~doc:"State cap per mutant/scenario run, at least 1."))
  in
  let muts =
    Term.(
      const (at_least 1 "--muts")
      $ Arg.(
          value & opt int 1
          & info [ "muts" ] ~doc:"Mutators in the campaign scenarios, at least 1."))
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the JSON campaign report (kill-matrix) to $(docv).")
  in
  let html =
    Arg.(
      value
      & opt (some string) None
      & info [ "html" ] ~docv:"FILE"
          ~doc:"Write the self-contained HTML kill-matrix to $(docv).")
  in
  let stubs =
    Arg.(
      value
      & opt (some string) None
      & info [ "stubs" ] ~docv:"DIR"
          ~doc:"Write a markdown triage stub per surviving mutant into $(docv).")
  in
  let list_only =
    Arg.(value & flag & info [ "list" ] ~doc:"List the selected mutants and exit.")
  in
  let certificates =
    Arg.(
      value
      & opt (some string) None
      & info [ "certificates" ] ~docv:"DIR"
          ~doc:
            "Close surviving equivalent mutants by certificate: for each survivor whose \
             applicable scenarios all closed, write one proof-witness certificate per \
             scenario into $(docv)/(mutant)/(scenario), each validatable with \
             $(b,gcmodel recheck).")
  in
  let run operators budget muts jobs reduce out html stubs certificates list_only obs =
    let known = Mutate.Operators.families @ [ "variant" ] in
    List.iter
      (fun f ->
        if not (List.mem f known) then
          refuse (Fmt.str "unknown operator family %s (expected %s)" f (String.concat ", " known)))
      operators;
    let mutants =
      let all = Mutate.Campaign.default_mutants ~muts () in
      if operators = [] then all
      else List.filter (fun m -> List.mem m.Mutate.Campaign.operator operators) all
    in
    if list_only then
      List.iter
        (fun (m : Mutate.Campaign.mutant) ->
          Fmt.pr "%-44s %-16s %s%s@." m.Mutate.Campaign.name m.Mutate.Campaign.operator
            m.Mutate.Campaign.doc
            (if m.Mutate.Campaign.expected_equivalent then " [expected equivalent]" else ""))
        mutants
    else begin
      let scenarios = Mutate.Campaign.scenarios ~muts () in
      Fmt.pr "campaign: %d mutants x %d scenarios, budget %d, jobs %d, reduce %a@."
        (List.length mutants) (List.length scenarios) budget jobs Reduce.Mode.pp reduce;
      let o = Mutate.Campaign.run ~obs ~budget ~jobs ~reduce ~scenarios ?certificates ~mutants () in
      print_string (Mutate.Kill_matrix.summary o);
      (match certificates with
      | Some dir -> Fmt.pr "campaign: survivor certificates under %s@." dir
      | None -> ());
      (match out with
      | None -> ()
      | Some path ->
        Mutate.Kill_matrix.write_json path o;
        Fmt.pr "campaign: JSON report written to %s@." path);
      (match html with
      | None -> ()
      | Some path ->
        Mutate.Kill_matrix.write_html path o;
        Fmt.pr "campaign: HTML kill-matrix written to %s@." path);
      (match stubs with
      | None -> ()
      | Some dir ->
        Store.Fs.mkdirs dir;
        List.iter
          (fun (e : Mutate.Campaign.entry) ->
            match e.Mutate.Campaign.classification with
            | Mutate.Campaign.Survived _ ->
              let fname =
                String.map (fun c -> if c = ':' then '-' else c) e.Mutate.Campaign.mutant.Mutate.Campaign.name
                ^ ".md"
              in
              let path = Filename.concat dir fname in
              Out_channel.with_open_bin path (fun oc ->
                  Out_channel.output_string oc (Mutate.Campaign.triage_stub e));
              Fmt.pr "campaign: triage stub written to %s@." path
            | _ -> ())
          o.Mutate.Campaign.entries);
      Obs.Reporter.close obs;
      (* the ablation assertion: the five hand-written unsafe variants are
         the campaign's known-answer tests — a survivor among them means
         the harness, not the catalogue, is broken *)
      let s = Mutate.Kill_matrix.stats o in
      if s.Mutate.Kill_matrix.ablations_killed < s.Mutate.Kill_matrix.ablations_total then begin
        Fmt.epr "campaign FAILED: %d/%d ablations killed@."
          s.Mutate.Kill_matrix.ablations_killed s.Mutate.Kill_matrix.ablations_total;
        exit 1
      end
    end
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Mutation-testing campaign: check every catalogue mutant (plus the five ablations) \
          against the scenario suite and classify each as killed / survived / errored, with a \
          kill-matrix in JSON and HTML.  Exits 1 if any ablation survives.")
    Term.(
      const run $ operators $ budget $ muts $ jobs $ reduce_term ~default:"all" $ out $ html
      $ stubs $ certificates $ list_only $ obs_term)

(* -- generated reference manuals (lib/mutate/doc_gen) ------------------------ *)

let doc_cmd =
  let dir = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR") in
  let run dir =
    Store.Fs.mkdirs dir;
    List.iter
      (fun (name, md) ->
        let path = Filename.concat dir name in
        Out_channel.with_open_bin path (fun oc -> output_string oc (md ()));
        Fmt.pr "wrote %s@." path)
      Mutate.Doc_gen.manuals
  in
  Cmd.v
    (Cmd.info "doc"
       ~doc:
         "Write the four generated reference manuals into $(i,DIR): INVARIANTS.md, \
          VARIANTS.md, CERTIFICATES.md and RECORDS.md.  CI diffs docs/ against this \
          output.")
    Term.(const run $ dir)

(* -- concrete runtime stress harness (lib/runtime) --------------------------- *)

let harness_cmd =
  let muts =
    Term.(
      const (at_least 0 "--muts")
      $ Arg.(value & opt int 2 & info [ "muts" ] ~doc:"Mutator domains, at least 0."))
  in
  let slots = Arg.(value & opt int 256 & info [ "slots" ] ~doc:"Heap slots.") in
  let fields = Arg.(value & opt int 2 & info [ "fields" ] ~doc:"Fields per object.") in
  let duration =
    Arg.(value & opt float 1.0 & info [ "duration" ] ~doc:"Wall-clock seconds to run.")
  in
  let workload =
    Arg.(
      value
      & opt (enum [ ("uniform", Runtime.Rmutator.Uniform); ("lists", Runtime.Rmutator.Lists) ])
          Runtime.Rmutator.Uniform
      & info [ "workload" ] ~docv:"KIND" ~doc:"Mutator workload: $(b,uniform) or $(b,lists).")
  in
  let no_barriers =
    Arg.(
      value & flag
      & info [ "no-barriers" ]
          ~doc:"Ablate the write barriers (the lists workload then faults within cycles).")
  in
  let trace_pause =
    Arg.(
      value & opt float 0.
      & info [ "trace-pause" ]
          ~doc:"Seconds the collector sleeps between greys (widens the race window).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let no_latency =
    Arg.(
      value & flag
      & info [ "no-latency" ] ~doc:"Disable the HDR latency instrumentation (lib/obs/latency).")
  in
  let co_interval =
    Arg.(
      value & opt int 0
      & info [ "co-interval" ] ~docv:"NS"
          ~doc:
            "Expected handshake-round interval in nanoseconds; when positive, the round \
             history gets coordinated-omission back-fill (a stalled round also records the \
             rounds it swallowed).")
  in
  let run muts slots fields duration workload no_barriers trace_pause seed no_latency
      co_interval trace_out obs =
    let tracer = Obs.Tracing.resolve ?out:trace_out ~domains:(muts + 1) () in
    let s =
      (* sizes the harness cannot run are a one-line error, as in [model_of] *)
      try
        Runtime.Harness.run ~n_muts:muts ~n_slots:slots ~n_fields:fields ~duration
          ~barriers:(not no_barriers) ~seed ~workload ~trace_pause ~obs ~tracer
          ~latency:(not no_latency) ~co_interval_ns:co_interval ()
      with Invalid_argument msg ->
        Fmt.epr "gcmodel: %s@." msg;
        exit 1
    in
    Fmt.pr "%a@." Runtime.Harness.pp_stats s;
    close_trace tracer trace_out;
    Obs.Reporter.close obs;
    if s.Runtime.Harness.violation <> None then exit 1
  in
  Cmd.v
    (Cmd.info "harness"
       ~doc:
         "Stress the concrete concurrent collector: one collector domain cycling against \
          $(b,--muts) mutator domains for $(b,--duration) seconds, with on-line root \
          validation.  With $(b,--obs), emits per-cycle $(b,gc-cycle) records, periodic \
          $(b,runtime-heartbeat) records with live HDR latency percentiles (handshake \
          rounds and per-mutator acks, gc pauses, allocation, stalls), and a final \
          $(b,harness) record carrying the structured latency section; $(b,--obs=live) \
          renders the runtime dashboard panel.  With $(b,--trace-out), lane 0 carries the \
          collector's handshake/mark/sweep/gc-cycle spans and lanes 1..n the mutators'.  \
          Exits 1 on a safety violation.")
    Term.(
      const run $ muts $ slots $ fields $ duration $ workload $ no_barriers $ trace_pause
      $ seed $ no_latency $ co_interval $ trace_out_term $ obs_term)

let () =
  let info = Cmd.info "gcmodel" ~doc:"Executable model of the verified on-the-fly GC for x86-TSO." in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            explore_cmd; resume_cmd; recheck_cmd; certdiff_cmd; walk_cmd; crosscheck_cmd;
            explain_cmd; campaign_cmd; harness_cmd;
            variants_cmd; shapes_cmd; dump_cmd; program_cmd; doc_cmd;
          ]))

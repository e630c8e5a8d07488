(* Randomized deep runs: where exhaustive exploration is infeasible (larger
   heaps, more mutators), schedule transitions uniformly at random for many
   steps, evaluating the invariants at every state.  Probabilistic rather
   than exhaustive, but it drives the model through thousands of collection
   cycles on instances the BFS cannot close. *)

type ('a, 'v, 's) outcome = {
  steps_taken : int;
  runs : int;  (* walks performed (includes every restart) *)
  restarts : int;  (* restarts forced by dead ends, specifically *)
  violation : ('a, 'v, 's) Trace.t option;
  elapsed : float;
}

let pp_outcome ppf o =
  Fmt.pf ppf "steps=%d runs=%d dead-ends=%d %s (%.2fs)" o.steps_taken o.runs o.restarts
    (match o.violation with None -> "all invariants hold" | Some t -> "VIOLATION: " ^ t.Trace.broken)
    o.elapsed

(* a walk restarts from the root after this many steps *)
let max_run_length = 5_000

(* The run in which a walker broke an invariant: the index of the
   successor it chose at each step from the root.  That is all a walker
   keeps of a run, so no visited state outlives its successor. *)
type found = { picks : int array; broken : string }

(* An [outcome] record: a walker's ([tag] is its [domain], if any) or a
   swarm's ([tag] is [jobs]). *)
let report_outcome obs ~checker tag ~broken o =
  if Obs.Reporter.enabled obs then
    Obs.Reporter.emit obs Obs.Record.outcome_walk
      ((("checker", Obs.Json.String checker) :: tag)
      @ [
          ("steps", Obs.Json.Int o.steps_taken);
          ("runs", Obs.Json.Int o.runs);
          ("dead_end_restarts", Obs.Json.Int o.restarts);
          ( "violation",
            match broken with None -> Obs.Json.Null | Some name -> Obs.Json.String name );
          ("elapsed_s", Obs.Json.Float o.elapsed);
          ( "steps_per_sec",
            Obs.Json.Float
              (if o.elapsed > 0. then float_of_int o.steps_taken /. o.elapsed else 0.) );
        ])

(* One walker.  It writes its own heartbeat, profile and outcome records
   (tagged with [domain] in a swarm) and returns its counts (with no
   [violation]: the swarm rebuilds the trace from what it [found]) and
   its profile; the per-run records are the swarm's. *)
let walker ~normal_form ~obs ~tracer ~heartbeat_every ~reducer ~invariants initial
    ~seed ~steps ~should_stop ?domain () =
  let domain_field = match domain with None -> [] | Some d -> [ ("domain", Obs.Json.Int d) ] in
  (* one tracer lane per walker, indexed by the swarm domain (lane 0 for a
     solo walk): a span per heartbeat interval of stepping, plus one rich
     span over the whole walk *)
  let lane = match domain with None -> 0 | Some d -> d in
  let tr_on = Obs.Tracing.enabled tracer && lane < Obs.Tracing.lanes tracer in
  let n_steps_span = if tr_on then Obs.Tracing.intern tracer "walk-steps" else 0 in
  let n_walk = if tr_on then Obs.Tracing.intern tracer "walk" else 0 in
  if tr_on then
    Obs.Tracing.set_lane tracer ~dom:lane
      (match domain with None -> "walk" | Some d -> Fmt.str "walker %d" d);
  let tr_t0 = Obs.Tracing.now tracer in
  let tr_taken = ref 0 in
  let tr_start = ref tr_t0 in
  let t0 = Obs.Clock.monotonic_ns () in
  (* the layers, wrapped once; only the profile record reads them (the
     walk keeps no seen-set, so it has no fingerprint or insert layer) *)
  let prof = Profile.create ~live:(Obs.Reporter.enabled obs) invariants in
  let succs_of = Profile.wrap prof Successors (Reducer.succs_of reducer) in
  let norm =
    Profile.wrap prof Normalise (if normal_form then Cimp.System.normalize else Fun.id)
  in
  let check = Profile.check prof in
  let initial = norm initial in
  let rng = Random.State.make [| seed |] in
  (* the current run's choices: one int per step, written in place *)
  let picks = Array.make max_run_length 0 in
  let found = ref None in
  let taken = ref 0 in
  let runs = ref 0 in
  let restarts = ref 0 in
  let hb_taken = ref 0 in
  let hb_time = ref t0 in
  let heartbeat () =
    if Obs.Reporter.enabled obs && !taken - !hb_taken >= heartbeat_every then begin
      let now = Obs.Clock.monotonic_ns () in
      let interval = Obs.Clock.ns_to_s (now - !hb_time) in
      let rate =
        if interval > 0. then float_of_int (!taken - !hb_taken) /. interval else 0.
      in
      let gc = Gc.quick_stat () in
      Obs.Reporter.emit obs Obs.Record.heartbeat_walk
        (("checker", Obs.Json.String "walk")
         :: domain_field
        @ [
            ("steps", Obs.Json.Int !taken);
            ("runs", Obs.Json.Int !runs);
            ("dead_end_restarts", Obs.Json.Int !restarts);
            ("steps_per_sec", Obs.Json.Float rate);
            ("heap_words", Obs.Json.Int gc.Gc.heap_words);
          ]);
      hb_taken := !taken;
      hb_time := now
    end;
    if tr_on && !taken - !tr_taken >= heartbeat_every then begin
      let now_ns = Obs.Tracing.now tracer in
      Obs.Tracing.span_between tracer ~dom:lane ~name:n_steps_span ~start_ns:!tr_start
        ~stop_ns:now_ns;
      tr_taken := !taken;
      tr_start := now_ns
    end
  in
  (match check initial with
  | -1 -> ()
  | i -> found := Some { picks = [||]; broken = Profile.name prof i });
  while !found = None && !taken < steps && not (should_stop ()) do
    incr runs;
    let sys = ref initial in
    let len = ref 0 in
    let continue = ref true in
    while
      !continue && !found = None && !taken < steps && !len < max_run_length
      && not (should_stop ())
    do
      match succs_of !sys with
      | [] ->
        (* dead end; restart *)
        incr restarts;
        continue := false
      | succs ->
        let pick = Random.State.int rng (List.length succs) in
        let sys' = norm (snd (List.nth succs pick)) in
        sys := sys';
        picks.(!len) <- pick;
        incr taken;
        incr len;
        heartbeat ();
        (match check sys' with
        | -1 -> ()
        | bad -> found := Some { picks = Array.sub picks 0 !len; broken = Profile.name prof bad })
    done
  done;
  let elapsed = Obs.Clock.elapsed_s ~since:t0 in
  if tr_on then
    Obs.Tracing.span_args tracer ~dom:lane ~name:n_walk ~start_ns:tr_t0
      ~stop_ns:(Obs.Tracing.now tracer)
      ~args:
        [
          ("steps", Obs.Json.Int !taken);
          ("runs", Obs.Json.Int !runs);
          ("dead_end_restarts", Obs.Json.Int !restarts);
        ];
  let o = { steps_taken = !taken; runs = !runs; restarts = !restarts; violation = None; elapsed } in
  (* the walk has no seen-set, so "states" is the steps taken *)
  Profile.report obs ~checker:"walk" ?domain ~states:!taken ~transitions:!taken ~elapsed
    ~busy_s:elapsed prof;
  report_outcome obs ~checker:"walk" domain_field
    ~broken:(Option.map (fun f -> f.broken) !found)
    o;
  (o, !found, prof)

(* -- the counterexample ------------------------------------------------------

   The finder's whole run is rebuilt after the join: from the normalized
   root, take the successor the walker picked at each step, through the
   walk's own successor function and normalization (unwrapped: the
   rebuild is no part of the walk's profile).  It replays the indices
   rather than the events through [Trace.replay], which fires events
   against [Cimp.System.steps]:
   - a walk computes no fingerprints, so a replay of events could not
     tell apart successors that share an event (a [sys:dequeue] is
     offered once per buffering process);
   - under a reducer the walk sampled from the reducer's successor list,
     not from [Cimp.System.steps].
   The reducer's counters are put back as the walk left them, so its
   [reduction] record counts the walk's steps alone. *)
let rebuild ~normal_form ~reducer initial { picks; broken } =
  let norm = if normal_form then Cimp.System.normalize else Fun.id in
  let counters =
    match reducer with
    | None -> []
    | Some r -> Reducer.[ r.sym_permuted; r.reg_nulled; r.deferred ]
  in
  let saved = List.map Atomic.get counters in
  let step (sys, rev_steps) pick =
    let event, sys' = List.nth (Reducer.succs_of reducer sys) pick in
    let sys' = norm sys' in
    (sys', { Trace.event; state = sys' } :: rev_steps)
  in
  let initial = norm initial in
  let _, rev_steps = Array.fold_left step (initial, []) picks in
  List.iter2 Atomic.set counters saved;
  { Trace.initial; steps = List.rev rev_steps; broken }

(* -- the swarm --------------------------------------------------------------

   [jobs] domains walk the same root concurrently, each with a seed derived
   from the root seed and its domain index, so the swarm covers [jobs]
   independent schedule streams.  The first domain to find a violation
   raises a shared stop flag that the others poll every step.  After the
   walkers join, the swarm writes the per-run records from their summed
   counts and merged profiles: one [invariant] record per invariant and,
   under a reducer, the [reduction] record.  At [jobs = 1] the one walker
   runs on the calling domain, untagged, and is the whole run. *)

let derive_seed seed k = seed lxor ((k + 1) * 0x9E3779B1)

let swarm ?(jobs = 1) ?(seed = 42) ?(steps = 100_000) ?(normal_form = true)
    ?(obs = Obs.Reporter.null) ?(tracer = Obs.Tracing.null) ?(heartbeat_every = 20_000) ?reducer
    ~invariants initial =
  if jobs < 1 || jobs > Par_explore.max_jobs then
    invalid_arg
      (Printf.sprintf "Random_walk.swarm: jobs = %d, expected 1..%d" jobs Par_explore.max_jobs);
  let walk = walker ~normal_form ~obs ~tracer ~heartbeat_every ~reducer ~invariants initial in
  let o, found, prof =
    if jobs = 1 then walk ~seed ~steps ~should_stop:(fun () -> false) ()
    else begin
      let t0 = Obs.Clock.monotonic_ns () in
      let stop = Atomic.make false in
      let should_stop () = Atomic.get stop in
      (* split the step budget across domains; the first [steps mod jobs]
         domains take the remainder, so the total is exactly [steps] *)
      let budget k = (steps / jobs) + if k < steps mod jobs then 1 else 0 in
      let worker k () =
        let ((_, found, _) as r) =
          walk ~seed:(derive_seed seed k) ~steps:(budget k) ~should_stop ~domain:k ()
        in
        if found <> None then Atomic.set stop true;
        r
      in
      let doms = Array.init (jobs - 1) (fun j -> Domain.spawn (worker (j + 1))) in
      let walked = worker 0 () :: Array.to_list (Array.map Domain.join doms) in
      let total f = List.fold_left (fun n (o, _, _) -> n + f o) 0 walked in
      let o =
        {
          steps_taken = total (fun o -> o.steps_taken);
          runs = total (fun o -> o.runs);
          restarts = total (fun o -> o.restarts);
          violation = None;
          elapsed = Obs.Clock.elapsed_s ~since:t0;
        }
      in
      (* lowest-domain-index winner; when no domain found one, None *)
      ( o,
        List.find_map (fun (_, found, _) -> found) walked,
        Profile.merge (List.map (fun (_, _, prof) -> prof) walked) )
    end
  in
  let o = { o with violation = Option.map (rebuild ~normal_form ~reducer initial) found } in
  let broken = Option.map (fun f -> f.broken) found in
  let checker = if jobs = 1 then "walk" else "walk-swarm" in
  Profile.report_invariants obs ~first_violation:broken prof;
  Reducer.report obs ~checker ~fingerprints:false reducer ~states:o.steps_taken
    ~transitions:o.steps_taken ~elapsed:o.elapsed;
  if jobs > 1 then report_outcome obs ~checker [ ("jobs", Obs.Json.Int jobs) ] ~broken o;
  o

let run ?seed ?steps ?normal_form ?obs ?tracer ?heartbeat_every ?reducer ~invariants initial =
  swarm ~jobs:1 ?seed ?steps ?normal_form ?obs ?tracer ?heartbeat_every ?reducer ~invariants
    initial

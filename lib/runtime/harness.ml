(* Stress harness for the concrete runtime: one collector domain cycling
   continuously, n mutator domains performing random barrier-complete heap
   operations, for a wall-clock duration.  On-line validation (loads must
   never fetch a freed reference) runs inside the mutators; a final
   stop-the-world validation recomputes reachability from every root and
   checks it against the allocation map. *)

type stats = {
  cycles : int;
  ops : int;
  allocs : int;
  frees : int;
  cas_attempts : int;
  cas_wins : int;
  barrier_fast_path : int;
  hs_rounds : int;
  live_at_end : int;
  alloc_stalls : int;
  root_audits : int;
  latency : Obs.Json.t;
    (* the structured latency section (Rshared.latency_json): handshake
       round/ack, barrier slow path, allocation and stall, and per-phase
       cycle histogram snapshots *)
  violation : string option;
}

let pp_stats ppf s =
  Fmt.pf ppf
    "cycles=%d ops=%d allocs=%d frees=%d cas=%d/%d fastpath=%d hs=%d live=%d stalls=%d \
     root_audits=%d %s"
    s.cycles s.ops s.allocs s.frees s.cas_wins s.cas_attempts s.barrier_fast_path s.hs_rounds
    s.live_at_end s.alloc_stalls s.root_audits
    (match s.violation with None -> "SAFE" | Some m -> "UNSAFE: " ^ m)

(* Reachability over the concrete heap (single-threaded, run only when the
   world is stopped). *)
let reachable_set heap roots =
  let seen = Array.make heap.Rheap.n_slots false in
  let rec visit r =
    if r <> Rheap.null && not seen.(r) then begin
      seen.(r) <- true;
      if Rheap.is_allocated heap r then
        for f = 0 to heap.Rheap.n_fields - 1 do
          visit (Rheap.field heap r f)
        done
    end
  in
  List.iter visit roots;
  seen

let final_validation heap mutators =
  let roots = List.concat_map Rmutator.root_refs mutators in
  let seen = reachable_set heap roots in
  let dangling = ref [] in
  Array.iteri (fun r s -> if s && not (Rheap.is_allocated heap r) then dangling := r :: !dangling) seen;
  match !dangling with
  | [] -> None
  | rs ->
    Some
      (Fmt.str "final validation: reachable-but-freed references: %a"
         Fmt.(list ~sep:comma int)
         rs)

let run ?(n_muts = 2) ?(n_slots = 256) ?(n_fields = 2) ?(duration = 0.5) ?(barriers = true)
    ?(seed = 42) ?(workload = Rmutator.Uniform) ?(trace_pause = 0.)
    ?(obs = Obs.Reporter.null) ?(tracer = Obs.Tracing.null) ?(latency = true)
    ?(co_interval_ns = 0) () =
  if n_fields < 1 then invalid_arg (Fmt.str "Harness.run: n_fields = %d, needs at least 1" n_fields);
  if n_slots < n_muts then
    invalid_arg
      (Fmt.str "Harness.run: n_slots = %d, needs at least n_muts = %d (one seed root each)"
         n_slots n_muts);
  let sh =
    Rshared.make ~trace_pause ~obs ~tracer ~latency ~co_interval_ns ~n_slots ~n_fields
      ~n_muts ()
  in
  (* lane 0 is the collector (handshake/mark/sweep spans, emitted by
     Rcollector); lanes 1..n_muts carry one whole-lifetime span per
     mutator domain *)
  let tr_on = Obs.Tracing.enabled tracer in
  let mut_lane i = i + 1 in
  if tr_on then begin
    if Obs.Tracing.lanes tracer >= 1 then Obs.Tracing.set_lane tracer ~dom:0 "collector";
    for i = 0 to n_muts - 1 do
      if mut_lane i < Obs.Tracing.lanes tracer then
        Obs.Tracing.set_lane tracer ~dom:(mut_lane i) (Fmt.str "mutator %d" i)
    done
  end;
  let n_mutator_span = if tr_on then Obs.Tracing.intern tracer "mutator-run" else 0 in
  (* seed each mutator with one root object *)
  let mutators =
    List.init n_muts (fun i ->
        let r = Rheap.alloc sh.Rshared.heap ~mark:(Atomic.get sh.Rshared.f_a) in
        Rmutator.make ~barriers sh i ~roots:[ r ])
  in
  let violation = Atomic.make None in
  let mut_domains =
    List.mapi
      (fun i m ->
        Domain.spawn (fun () ->
            let lane_on = tr_on && mut_lane i < Obs.Tracing.lanes tracer in
            let t0_ns = if lane_on then Obs.Tracing.now tracer else 0 in
            let rng = Random.State.make [| seed; i |] in
            (try Rmutator.run ~workload m rng
             with Rmutator.Unsafe msg ->
               Atomic.set violation (Some msg);
               (* keep servicing handshakes so the collector can stop *)
               while not (Atomic.get sh.Rshared.stop_muts) do
                 Rmutator.poll m;
                 Domain.cpu_relax ()
               done);
            if lane_on then
              Obs.Tracing.span_args tracer ~dom:(mut_lane i) ~name:n_mutator_span ~start_ns:t0_ns
                ~stop_ns:(Obs.Tracing.now tracer)
                ~args:[ ("ops", Obs.Json.Int (Rmutator.ops m)) ]))
      mutators
  in
  let gc_domain = Domain.spawn (fun () -> Rcollector.run sh) in
  Unix.sleepf duration;
  Atomic.set sh.Rshared.stop true;
  Domain.join gc_domain;
  Atomic.set sh.Rshared.stop_muts true;
  List.iter Domain.join mut_domains;
  let violation =
    match Atomic.get violation with
    | Some m -> Some m
    | None -> final_validation sh.Rshared.heap mutators
  in
  let stats =
    {
      cycles = Atomic.get sh.Rshared.cycles;
      ops = List.fold_left (fun n m -> n + Rmutator.ops m) 0 mutators;
      allocs = Atomic.get sh.Rshared.heap.Rheap.allocs;
      frees = Atomic.get sh.Rshared.heap.Rheap.frees;
      cas_attempts = Atomic.get sh.Rshared.cas_attempts;
      cas_wins = Atomic.get sh.Rshared.cas_wins;
      barrier_fast_path = Atomic.get sh.Rshared.barrier_fast_path;
      hs_rounds = Obs.Metrics.acount sh.Rshared.hs_rounds;
      live_at_end = Rheap.live_count sh.Rshared.heap;
      alloc_stalls = Atomic.get sh.Rshared.lat.Rshared.alloc_stalls;
      root_audits = List.fold_left (fun n m -> n + Rmutator.root_audits m) 0 mutators;
      latency = Rshared.latency_json sh;
      violation;
    }
  in
  if Obs.Reporter.enabled obs then
    Obs.Reporter.emit obs Obs.Record.harness
      [
        ("n_muts", Obs.Json.Int n_muts);
        ("duration_s", Obs.Json.Float duration);
        ("barriers", Obs.Json.Bool barriers);
        ("cycles", Obs.Json.Int stats.cycles);
        ("ops", Obs.Json.Int stats.ops);
        ("allocs", Obs.Json.Int stats.allocs);
        ("frees", Obs.Json.Int stats.frees);
        ("cas_attempts", Obs.Json.Int stats.cas_attempts);
        ("cas_wins", Obs.Json.Int stats.cas_wins);
        ("barrier_fast_path", Obs.Json.Int stats.barrier_fast_path);
        ("hs_rounds", Obs.Json.Int stats.hs_rounds);
        ("root_audits", Obs.Json.Int stats.root_audits);
        ("latency", stats.latency);
        ("live_at_end", Obs.Json.Int stats.live_at_end);
        ( "violation",
          match stats.violation with None -> Obs.Json.Null | Some m -> Obs.Json.String m );
      ];
  stats

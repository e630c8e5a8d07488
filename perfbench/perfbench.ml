(* The repository benchmark's measuring program: one workload per
   process, timed from outside the libraries.

   Every timed call goes through a library's public functions.  Per-layer
   numbers come from wrapping what the benchmark hands in — the fields of
   the Check.Reducer.t record and each (name, predicate) invariant — and,
   for the concrete runtime, from timing each Rmutator / Rcollector call in
   the benchmark's own loops.  README.md in this directory describes the
   workloads, the metrics and the layer each one belongs to.

   Usage:
     perfbench --workload W --seed N --seconds S --trace 0|1
               [--trace-out FILE] [--work-dir DIR]

   Lines before the last start with '#' and are for humans; the last line
   of standard output is the result object
   {"correct", "attempted", "failed", "metrics"}.  Exit code 1 means the
   benchmark could not run at all (a set-up step failed). *)

let now = Obs.Clock.monotonic_ns
let to_s ns = float_of_int ns *. 1e-9

(* -- statistics ---------------------------------------------------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of raw nanosecond samples, in microseconds. *)
let percentile_us samples p =
  let n = Array.length samples in
  if n = 0 then 0.
  else begin
    let a = Array.copy samples in
    Array.sort compare a;
    let k = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
    float_of_int a.(k - 1) *. 1e-3
  end

(* A growable buffer of raw int samples (latencies in ns). *)
module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(* A metric as reported: name, value, unit. *)
type metric = string * float * string

(* Units whose values are exact counts: a run reports the first unit's
   value (they repeat exactly on the deterministic workloads); every
   other unit is a measurement and reports the median over units. *)
let exact_unit = function "count" | "words/state" | "B/state" -> true | _ -> false

(* -- per-layer probes ----------------------------------------------------- *)

(* Chrome-trace lanes, one per layer, so the timeline shows each layer on
   its own row.  Each lane has a single writer: the collector lane is
   written only by the collector domain, every other lane by the main
   domain. *)
let lane_names = [| "workload"; "cimp"; "reduce"; "invariants"; "certify"; "mutator"; "collector" |]

let l_workload = 0
let l_cimp = 1
let l_reduce = 2
let l_inv = 3
let l_certify = 4
let l_mut = 5
let l_coll = 6

(* Busy time and call count of one wrapped entry point. *)
type acc = { mutable ns : int; mutable calls : int; span : int; lane : int }

type probe = { tr : Obs.Tracing.t; mutable accs : (string * acc) list }

let make_probe tr =
  Array.iteri (fun dom name -> Obs.Tracing.set_lane tr ~dom name) lane_names;
  { tr; accs = [] }

let acc p ~lane key =
  match List.assoc_opt key p.accs with
  | Some a -> a
  | None ->
    let a = { ns = 0; calls = 0; span = Obs.Tracing.intern p.tr key; lane } in
    p.accs <- (key, a) :: p.accs;
    a

let reset p =
  List.iter
    (fun (_, a) ->
      a.ns <- 0;
      a.calls <- 0)
    p.accs

let found p key =
  match List.assoc_opt key p.accs with Some a -> (a.ns, a.calls) | None -> (0, 0)

let record p a t0 t1 =
  a.ns <- a.ns + (t1 - t0);
  a.calls <- a.calls + 1;
  Obs.Tracing.span_between p.tr ~dom:a.lane ~name:a.span ~start_ns:t0 ~stop_ns:t1

let timed p a f x =
  let t0 = now () in
  let r = f x in
  record p a t0 (now ());
  r

let inv_key name = "invariants." ^ name

(* The reducer the checkers receive in a traced unit: same behaviour, each
   field timed. *)
let wrap_reducer p (r : _ Check.Reducer.t) =
  {
    r with
    Check.Reducer.successors = timed p (acc p ~lane:l_cimp "cimp.successors") r.successors;
    fingerprint = timed p (acc p ~lane:l_reduce "reduce.fingerprint") r.fingerprint;
    canon_state = timed p (acc p ~lane:l_reduce "reduce.canon") r.canon_state;
  }

let wrap_invariants p invs =
  List.map (fun (name, f) -> (name, timed p (acc p ~lane:l_inv (inv_key name)) f)) invs

(* Where the normal path runs without a reducer: the unreduced hooks, so
   the calls become measurable without changing behaviour. *)
let passthrough () : _ Check.Reducer.t =
  {
    name = "none";
    fingerprint = Check.Fingerprint.of_system;
    successors = Cimp.System.steps;
    canon_state = Fun.id;
    sym_permuted = Atomic.make 0;
    reg_nulled = Atomic.make 0;
    deferred = Atomic.make 0;
  }

let reducer_counts (r : _ Check.Reducer.t) =
  (Atomic.get r.sym_permuted, Atomic.get r.reg_nulled, Atomic.get r.deferred)

let reducer_deltas (s0, n0, d0) (s1, n1, d1) =
  [
    ("reduce.sym_permuted", float_of_int (s1 - s0), "count");
    ("reduce.reg_nulled", float_of_int (n1 - n0), "count");
    ("reduce.deferred", float_of_int (d1 - d0), "count");
  ]

(* The model layers of one traced unit lasting [result_ns]; what the
   wrapped calls do not cover is the driving loop's own time, reported
   under [self]. *)
let model_layers p ~invs ~result_ns ~self =
  let succ_ns, succ_calls = found p "cimp.successors" in
  let fp_ns, fp_calls = found p "reduce.fingerprint" in
  let canon_ns, canon_calls = found p "reduce.canon" in
  let per_inv = List.map (fun (name, _) -> (name, found p (inv_key name))) invs in
  let inv_ns = List.fold_left (fun s (_, (ns, _)) -> s + ns) 0 per_inv in
  let inv_calls = List.fold_left (fun s (_, (_, c)) -> s + c) 0 per_inv in
  let count c = float_of_int c in
  [
    ("cimp.successors_s", to_s succ_ns, "s");
    ("cimp.successors_calls", count succ_calls, "count");
    ("reduce.fingerprint_s", to_s fp_ns, "s");
    ("reduce.fingerprint_calls", count fp_calls, "count");
    ("reduce.canon_s", to_s canon_ns, "s");
    ("reduce.canon_calls", count canon_calls, "count");
    ("invariants.eval_s", to_s inv_ns, "s");
    ("invariants.evals", count inv_calls, "count");
    (self, to_s (result_ns - succ_ns - fp_ns - canon_ns - inv_ns), "s");
  ]
  @ List.map (fun (name, (ns, _)) -> (inv_key name ^ "_s", to_s ns, "s")) per_inv

(* -- workloads -------------------------------------------------------------- *)

(* A workload: how much work one unit completes, its set-up, and the unit
   itself.  [setup ()] is taken before every unit, so set-up samples span
   the run as the units do; it returns one set-up time in seconds and the
   set-up's per-layer metrics.  [run ~traced] returns the unit's timed
   wall time, a failure diagnosis, and the unit's per-layer metrics. *)
type workload = {
  items : float;  (* states, validated states, steps or ops per unit *)
  setup : unit -> float * metric list;
  domains : int;  (* domains a unit runs on *)
  gc_per_item : bool;  (* single-domain: GC deltas are attributable *)
  run : traced:bool -> int * string option * metric list;
}

let max_states = 10_000_000
let setup_batch = 1000

let paper_cfg ~muts ~refs ~cycles ~ops =
  let v = Option.get (Core.Variants.by_name "paper") in
  v.Core.Variants.tweak
    {
      Core.Config.default with
      n_muts = muts;
      n_refs = refs;
      n_fields = 1;
      buf_bound = 1;
      max_cycles = cycles;
      max_mut_ops = ops;
    }

(* The racing-barrier / sense-flip instance: two mutators, two refs, one
   op each, two collector cycles. *)
let closure_cfg = paper_cfg ~muts:2 ~refs:2 ~cycles:2 ~ops:1
let closure_expect = (61_070, 166_678, 249)

(* The walk's instance: unbounded cycles and ops. *)
let walk_cfg = paper_cfg ~muts:2 ~refs:2 ~cycles:0 ~ops:0
let walk_steps = 300_000

let build_model cfg =
  match
    Gcheap.Shapes.by_name ~n_refs:cfg.Core.Config.n_refs ~n_fields:cfg.Core.Config.n_fields "single"
  with
  | Some shape -> Core.Model.make cfg shape
  | None -> failwith "shape \"single\" missing"

let invariants_of cfg =
  List.map (fun i -> (i.Core.Invariants.name, i.Core.Invariants.check)) (Core.Invariants.all cfg)

let invariant_names = List.map fst (invariants_of closure_cfg)

(* Model, invariant and reducer construction, as every checker run pays
   it. *)
let build_checker cfg =
  let model = build_model cfg in
  let invs = invariants_of cfg in
  match Core.Reduction.reducer cfg Reduce.Mode.All with
  | Some r -> (model, invs, r)
  | None -> failwith "reduce=all built no reducer"

(* A single build takes tens of microseconds, too short to read alone:
   one set-up sample is the mean build time over a batch of [per_batch]
   builds, and a run reports the median over its samples. *)
let build_batch ~per_batch build () =
  let t0 = now () in
  for _ = 1 to per_batch do
    ignore (Sys.opaque_identity (build ()))
  done;
  (to_s (now () - t0) /. float_of_int per_batch, [])

let check_closure (o : _ Check.Explore.outcome) =
  let states, transitions, depth = closure_expect in
  if o.violation <> None then Some "an invariant was violated"
  else if o.truncated then Some "the exploration was truncated"
  else if o.states <> states || o.transitions <> transitions || o.depth <> depth then
    Some
      (Printf.sprintf "states=%d transitions=%d depth=%d, expected %d/%d/%d" o.states
         o.transitions o.depth states transitions depth)
  else None

let top_span p name t0 t1 = record p (acc p ~lane:l_workload name) t0 t1

(* closure: the default `gcmodel explore` path (jobs 1, reduce=all). *)
let closure p =
  let model, invs, reducer = build_checker closure_cfg in
  let traced_reducer = wrap_reducer p reducer and traced_invs = wrap_invariants p invs in
  let run ~traced =
    let r, iv = if traced then (traced_reducer, traced_invs) else (reducer, invs) in
    let c0 = reducer_counts reducer in
    let t0 = now () in
    let o =
      Check.Par_explore.run ~jobs:1 ~max_states ~reducer:r ~invariants:iv model.Core.Model.system
    in
    let t1 = now () in
    let layers =
      if not traced then []
      else begin
        top_span p "explore" t0 t1;
        model_layers p ~invs ~result_ns:(t1 - t0) ~self:"check.self_s"
        @ reducer_deltas c0 (reducer_counts reducer)
      end
    in
    (t1 - t0, check_closure o, layers)
  in
  let states, _, _ = closure_expect in
  {
    items = float_of_int states;
    setup = build_batch ~per_batch:setup_batch (fun () -> build_checker closure_cfg);
    domains = 1;
    gc_per_item = true;
    run;
  }

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* recheck: set-up is the certifying explore of the closure instance plus
   the certificate write; the unit is Recheck.validate. *)
let recheck p ~work_dir =
  let cfg = closure_cfg in
  let dir = Filename.concat work_dir "cert" in
  let spill_dir = Filename.concat work_dir "spill" in
  let run_config = Obs.Json.Obj [ ("benchmark", Obs.Json.String "perfbench recheck") ] in
  let certify () =
    let t0 = now () in
    let model, invs, reducer = build_checker cfg in
    let dump = ref None and dump_ns = ref 0 in
    let on_store store =
      let t = now () in
      dump := Some (Certify.Writer.of_store store);
      dump_ns := now () - t
    in
    let te = now () in
    let o =
      Check.Par_explore.run ~jobs:1 ~max_states ~reducer ~spill_dir ~on_store ~invariants:invs
        model.Core.Model.system
    in
    let explore_ns = now () - te in
    Option.iter (fun msg -> failwith ("certifying explore: " ^ msg)) (check_closure o);
    let entries, max_depth =
      match !dump with
      | Some (Ok x) -> x
      | Some (Error msg) -> failwith ("certificate dump: " ^ msg)
      | None -> failwith "certificate dump: the store hook never ran"
    in
    let tw = now () in
    (match
       Certify.Writer.write ~dir ~config_hash:(Core.Config.hash cfg)
         ~reduce:(Reduce.Mode.to_string Reduce.Mode.All) ~invariant_names:(List.map fst invs)
         ~run_config ~max_depth entries
     with
    | Ok _ -> ()
    | Error msg -> failwith ("certificate write: " ^ msg));
    let t1 = now () in
    let span name t0 t1 = record p (acc p ~lane:l_certify name) t0 t1 in
    span "certifying-explore" te (te + explore_ns);
    span "certificate-write" tw t1;
    let bytes = file_size (Certify.Certificate.table_path dir) in
    ( to_s (t1 - t0),
      [
        ("store.certify_explore_s", to_s (explore_ns - !dump_ns), "s");
        ("certify.dump_s", to_s !dump_ns, "s");
        ("certify.write_s", to_s (t1 - tw), "s");
        ("certify.table_bytes_per_state", float_of_int bytes /. float_of_int o.states, "B/state");
      ] )
  in
  let model, invs, reducer = build_checker cfg in
  let config_hash = Core.Config.hash cfg in
  let traced_reducer = wrap_reducer p reducer and traced_invs = wrap_invariants p invs in
  let states, _, _ = closure_expect in
  let run ~traced =
    let r, iv = if traced then (traced_reducer, traced_invs) else (reducer, invs) in
    let c0 = reducer_counts reducer in
    let t0 = now () in
    let res =
      Certify.Recheck.validate ~reducer:(Some r) ~invariants:iv ~config_hash ~dir
        model.Core.Model.system
    in
    let t1 = now () in
    let failure =
      match res with
      | Ok (_, st) when st.Certify.Recheck.states = states -> None
      | Ok (_, st) ->
        Some (Printf.sprintf "validated %d states, expected %d" st.Certify.Recheck.states states)
      | Error msg -> Some msg
    in
    let layers =
      if not traced then []
      else begin
        top_span p "validate" t0 t1;
        model_layers p ~invs ~result_ns:(t1 - t0) ~self:"certify.validate_self_s"
        @ reducer_deltas c0 (reducer_counts reducer)
      end
    in
    (t1 - t0, failure, layers)
  in
  { items = float_of_int states; setup = certify; domains = 1; gc_per_item = true; run }

(* walk: a seeded random walk; no fingerprint, store or reduction. *)
let walk p ~seed =
  let cfg = walk_cfg in
  let build () = (build_model cfg, invariants_of cfg) in
  let model, invs = build () in
  let traced_invs = wrap_invariants p invs in
  let run ~traced =
    let reducer = if traced then Some (wrap_reducer p (passthrough ())) else None in
    let iv = if traced then traced_invs else invs in
    let t0 = now () in
    let o =
      Check.Random_walk.run ~seed ~steps:walk_steps ?reducer ~invariants:iv model.Core.Model.system
    in
    let t1 = now () in
    let failure =
      if o.Check.Random_walk.violation <> None then Some "an invariant was violated"
      else if o.Check.Random_walk.steps_taken < walk_steps then
        Some (Printf.sprintf "%d steps taken, %d requested" o.steps_taken walk_steps)
      else None
    in
    let layers =
      if not traced then []
      else begin
        top_span p "walk" t0 t1;
        model_layers p ~invs ~result_ns:(t1 - t0) ~self:"check.self_s"
      end
    in
    (t1 - t0, failure, layers)
  in
  {
    items = float_of_int walk_steps;
    setup = build_batch ~per_batch:setup_batch build;
    domains = 1;
    gc_per_item = true;
    run;
  }

(* mutator: one mutator (this domain) running a fixed count of seeded
   uniform ops while one collector domain runs one Rcollector.cycle per
   [ops_per_cycle] ops. *)
let mutator_ops = 100_000
let ops_per_cycle = 100
let n_slots = 256
let n_fields = 2

let mutator p ~seed =
  let open Runtime in
  let build () =
    let sh = Rshared.make ~latency:false ~n_slots ~n_fields ~n_muts:1 () in
    let r0 = Rheap.alloc sh.Rshared.heap ~mark:(Atomic.get sh.Rshared.f_a) in
    (sh, Rmutator.make sh 0 ~roots:[ r0 ])
  in
  let a_cycle = acc p ~lane:l_coll "runtime.collector.cycle" in
  let a_poll = acc p ~lane:l_mut "runtime.mutator.poll" in
  let a_load = acc p ~lane:l_mut "runtime.mutator.load" in
  let a_store = acc p ~lane:l_mut "runtime.mutator.store" in
  let a_alloc = acc p ~lane:l_mut "runtime.mutator.alloc" in
  let a_discard = acc p ~lane:l_mut "runtime.mutator.discard" in
  let run ~traced =
    let sh, m = build () in
    let rng = Random.State.make [| seed |] in
    let op a f = if traced then timed p a f () else f () in
    let acks = Samples.create () and cycles = Samples.create () in
    let alloc_null = ref 0 in
    let collector_done = Atomic.make false in
    (* the benchmark's own collector loop: one timed Rcollector.cycle per
       request, parked on [wake] in between, so the two domains contend
       only while a cycle runs and every unit does the same collector work *)
    let lock = Mutex.create () and wake = Condition.create () in
    let requested = ref 0 (* written by the mutator under [lock] *) and served = Atomic.make 0 in
    let collector () =
      let rec serve () =
        Mutex.lock lock;
        while !requested = Atomic.get served && not (Atomic.get sh.Rshared.stop) do
          Condition.wait wake lock
        done;
        let go = !requested > Atomic.get served in
        Mutex.unlock lock;
        if go then begin
          let t0 = now () in
          Rcollector.cycle sh;
          let t1 = now () in
          Samples.add cycles (t1 - t0);
          if traced then record p a_cycle t0 t1;
          Atomic.incr served;
          serve ()
        end
      in
      serve ();
      Atomic.set collector_done true
    in
    let signal f =
      Mutex.lock lock;
      f ();
      Condition.signal wake;
      Mutex.unlock lock
    in
    let incr_requested () = incr requested in
    let alloc () = if Rmutator.alloc m = Rheap.null then incr alloc_null in
    let random_op () =
      match Rmutator.root_refs m with
      | [] -> op a_alloc alloc
      | roots -> (
        let pick () = List.nth roots (Random.State.int rng (List.length roots)) in
        let f = Random.State.int rng n_fields in
        match Random.State.int rng 10 with
        | 0 | 1 | 2 ->
          let src = pick () in
          op a_load (fun () -> ignore (Rmutator.load m src f))
        | 3 | 4 | 5 ->
          let src = pick () in
          let dst = pick () in
          op a_store (fun () -> Rmutator.store m src f dst)
        | 6 | 7 -> op a_alloc alloc
        | 8 ->
          let src = pick () in
          op a_store (fun () -> Rmutator.store m src f Rheap.null)
        | _ ->
          if List.length roots > 1 then begin
            let r = pick () in
            op a_discard (fun () -> Rmutator.discard m r)
          end)
    in
    let failure = ref None in
    let t0 = now () in
    let d = Domain.spawn collector in
    (try
       for i = 1 to mutator_ops do
         (* a pending request's publish stamp is written before the slot,
            so reading the slot first pins this round's stamp *)
         let pending = Atomic.get sh.Rshared.hs_req.(0) <> Rshared.Hs_none in
         let stamp = if pending then Atomic.get sh.Rshared.lat.Rshared.hs_req_ns.(0) else 0 in
         op a_poll (fun () -> Rmutator.safe_point m);
         if pending then Samples.add acks (now () - stamp);
         random_op ();
         if i mod ops_per_cycle = 0 then signal incr_requested
       done
     with Rmutator.Unsafe msg -> failure := Some msg);
    (* keep acking until the requested cycles are done and the collector
       has left its loop *)
    let drain until =
      while not (until ()) do
        Rmutator.poll m;
        Domain.cpu_relax ()
      done
    in
    drain (fun () -> Atomic.get served = !requested);
    signal (fun () -> Atomic.set sh.Rshared.stop true);
    drain (fun () -> Atomic.get collector_done);
    Domain.join d;
    let t1 = now () in
    let failure =
      match !failure with
      | Some _ as f -> f
      | None ->
        (* stopped-world audit: nothing reachable may be freed *)
        let seen = Harness.reachable_set sh.Rshared.heap (Rmutator.root_refs m) in
        let bad = ref 0 in
        Array.iteri
          (fun r s -> if s && not (Rheap.is_allocated sh.Rshared.heap r) then incr bad)
          seen;
        if !bad = 0 then None
        else Some (Printf.sprintf "audit: %d reachable slots are freed" !bad)
    in
    let acks = Samples.to_array acks and cycles = Samples.to_array cycles in
    let layers =
      if not traced then
        [
          ("runtime.safepoint_p50_us", percentile_us acks 0.50, "us");
          ("runtime.safepoint_p99_us", percentile_us acks 0.99, "us");
          ("runtime.safepoint_samples", float_of_int (Array.length acks), "count");
          ("runtime.gc_cycle_p50_us", percentile_us cycles 0.50, "us");
          ("runtime.gc_cycle_p99_us", percentile_us cycles 0.99, "us");
        ]
      else begin
        top_span p "mutator-ops" t0 t1;
        let fast = Atomic.get sh.Rshared.barrier_fast_path in
        let cas = Atomic.get sh.Rshared.cas_attempts in
        let op_metrics name =
          let ns, calls = found p name in
          [ (name ^ "_s", to_s ns, "s"); (name ^ "_calls", float_of_int calls, "count") ]
        in
        let cycle_ns, n_cycles = found p "runtime.collector.cycle" in
        [
          ("runtime.collector.cycle_s", to_s cycle_ns, "s");
          ("runtime.collector.cycles", float_of_int n_cycles, "count");
          ("runtime.alloc_null", float_of_int !alloc_null, "count");
          ( "runtime.barrier_fast_fraction",
            (if fast + cas > 0 then float_of_int fast /. float_of_int (fast + cas) else 0.),
            "ratio" );
          ("runtime.cas_attempts", float_of_int cas, "count");
          ("runtime.hs_rounds", float_of_int (Obs.Metrics.acount sh.Rshared.hs_rounds), "count");
        ]
        @ List.concat_map op_metrics
            [
              "runtime.mutator.load";
              "runtime.mutator.store";
              "runtime.mutator.alloc";
              "runtime.mutator.discard";
              "runtime.mutator.poll";
            ]
      end
    in
    (t1 - t0, failure, layers)
  in
  {
    items = float_of_int mutator_ops;
    setup = build_batch ~per_batch:setup_batch build;
    domains = 2;
    gc_per_item = false;
    run;
  }

(* -- the run ----------------------------------------------------------------- *)

(* Every per-layer metric, in report order; a layer a workload does not
   use reports 0. *)
let per_layer =
  [
    ("cimp.successors_s", "s");
    ("cimp.successors_calls", "count");
    ("reduce.fingerprint_s", "s");
    ("reduce.fingerprint_calls", "count");
    ("reduce.canon_s", "s");
    ("reduce.canon_calls", "count");
    ("reduce.sym_permuted", "count");
    ("reduce.reg_nulled", "count");
    ("reduce.deferred", "count");
    ("invariants.eval_s", "s");
    ("invariants.evals", "count");
  ]
  @ List.map (fun name -> (inv_key name ^ "_s", "s")) invariant_names
  @ [
      ("check.self_s", "s");
      ("gc.minor_words_per_state", "words/state");
      ("gc.promoted_words_per_state", "words/state");
      ("gc.major_collections", "count");
      ("store.certify_explore_s", "s");
      ("certify.dump_s", "s");
      ("certify.write_s", "s");
      ("certify.table_bytes_per_state", "B/state");
      ("certify.validate_self_s", "s");
      ("runtime.collector.cycle_s", "s");
      ("runtime.collector.cycles", "count");
      ("runtime.mutator.load_s", "s");
      ("runtime.mutator.load_calls", "count");
      ("runtime.mutator.store_s", "s");
      ("runtime.mutator.store_calls", "count");
      ("runtime.mutator.alloc_s", "s");
      ("runtime.mutator.alloc_calls", "count");
      ("runtime.mutator.discard_s", "s");
      ("runtime.mutator.discard_calls", "count");
      ("runtime.mutator.poll_s", "s");
      ("runtime.mutator.poll_calls", "count");
      ("runtime.alloc_null", "count");
      ("runtime.barrier_fast_fraction", "ratio");
      ("runtime.cas_attempts", "count");
      ("runtime.hs_rounds", "count");
      ("runtime.safepoint_p50_us", "us");
      ("runtime.safepoint_p99_us", "us");
      ("runtime.safepoint_samples", "count");
      ("runtime.gc_cycle_p50_us", "us");
      ("runtime.gc_cycle_p99_us", "us");
      ("trace.result_s", "s");
      ("trace.overhead_s", "s");
      ("host.raw_result_s", "s");
      ("host.probe_s", "s");
    ]

type unit_run = {
  traced : bool;
  ns : int;  (* the unit's wall time *)
  failure : string option;
  setup : float;  (* the set-up sample taken before this unit, in seconds *)
  host : float;  (* host-speed probe around this unit, in seconds *)
  metrics : metric list;
}

(* -- host-speed normalisation ------------------------------------------------ *)

(* The host this runs on is shared: on a 2-vCPU VM the same code ran
   anywhere from 1x to 1.8x slower for minutes at a time while the VM
   itself was idle, which no number of units inside one run averages out.
   So every unit is bracketed by a fixed probe, and the end-to-end times
   are reported in reference-host seconds:
     raw seconds * probe_ref_s / probe seconds around the unit.
   The probe is the geometric mean of two small kernels with different
   working sets; neither calls repository code, so no change to the
   repository can move it.  The raw figures stay visible as the
   per-layer metrics host.raw_result_s and host.probe_s. *)

(* Breadth-first search over a synthetic transition system: structural
   hashing, a hash-table seen set and per-successor allocation, like the
   checkers' loops, over a working set of a few MB. *)
let probe_bfs () =
  let t0 = now () in
  let seen = Hashtbl.create 65536 in
  let q = Queue.create () in
  let start = (0, [ 0; 0; 0 ], (0, 0)) in
  Hashtbl.replace seen start ();
  Queue.add start q;
  let n = ref 0 in
  while (not (Queue.is_empty q)) && !n < 60_000 do
    let pc, regs, (a, b) = Queue.pop q in
    incr n;
    List.iter
      (fun s ->
        if not (Hashtbl.mem seen s) then begin
          Hashtbl.replace seen s ();
          Queue.add s q
        end)
      [
        ((pc + 1) mod 7, List.map (fun r -> (r + a) land 15) regs, (b, a));
        (pc, pc :: List.tl regs, ((a + 1) land 15, b));
        ((pc * 3) mod 7, regs, (a, (b + pc) land 15));
      ]
  done;
  to_s (now () - t0)

(* List folding, pattern matching and short-lived allocation that stays
   in the minor heap: a small working set. *)
let probe_fold () =
  let t0 = now () in
  let l = List.init 64 (fun i -> (i, i * 3, [ i ])) in
  let r = ref 0 in
  for k = 1 to 45_000 do
    r :=
      List.fold_left
        (fun acc (a, b, c) ->
          match c with [ x ] when (x + k) land 3 = 0 -> acc + a | _ -> acc lxor b)
        !r
        (List.rev_map (fun (a, b, c) -> (b, a + k, c)) l)
  done;
  ignore (Sys.opaque_identity !r);
  to_s (now () - t0)

(* Wall time of [f] running on [n] domains at once: a workload that uses
   two domains is probed on two, so the probe also sees a host that
   leaves it less than two cores. *)
let on_domains n f =
  let t0 = now () in
  let others = List.init (n - 1) (fun _ -> Domain.spawn f) in
  ignore (f ());
  List.iter (fun d -> ignore (Domain.join d)) others;
  to_s (now () - t0)

let host_probe ~domains = sqrt (on_domains domains probe_bfs *. on_domains domains probe_fold)

(* The probe on the reference host (2-vCPU Xeon VM) when quiet, on one
   and on two domains. *)
let probe_ref_s ~domains = if domains = 1 then 0.058 else 0.062

(* Units back to back until [seconds] have passed, each preceded by a
   set-up sample and bracketed by host probes; a traced run alternates
   untraced and traced units (at least one of each), so the tracing
   overhead is measured against interleaved baselines. *)
let measure p (w : workload) ~seconds ~trace ~on_first =
  let deadline = now () + int_of_float (seconds *. 1e9) in
  let min_units = if trace then 2 else 1 in
  let rec loop i acc =
    let traced = trace && i mod 2 = 1 in
    Gc.compact ();
    let setup, setup_metrics = w.setup () in
    if traced then reset p;
    (* no probe before the first unit: peak_rss_mb is read right after it
       and must hold only set-up and the unit *)
    let host0 = if i = 0 then None else Some (host_probe ~domains:w.domains) in
    Gc.compact ();
    let g0 = Gc.quick_stat () in
    let ns, failure, metrics = w.run ~traced in
    let g1 = Gc.quick_stat () in
    if i = 0 then on_first ();
    let host1 = host_probe ~domains:w.domains in
    let host = match host0 with Some h -> (h +. host1) /. 2. | None -> host1 in
    let gc =
      if traced || not w.gc_per_item then []
      else
        [
          ( "gc.minor_words_per_state",
            Float.round ((g1.Gc.minor_words -. g0.Gc.minor_words) /. w.items),
            "words/state" );
          ( "gc.promoted_words_per_state",
            Float.round ((g1.Gc.promoted_words -. g0.Gc.promoted_words) /. w.items),
            "words/state" );
          ( "gc.major_collections",
            float_of_int (g1.Gc.major_collections - g0.Gc.major_collections),
            "count" );
        ]
    in
    let acc = { traced; ns; failure; setup; host; metrics = gc @ setup_metrics @ metrics } :: acc in
    if i + 1 < min_units || now () < deadline then loop (i + 1) acc else List.rev acc
  in
  loop 0 []

(* Per-layer values over a run's units: exact counts from the first unit
   reporting them, measurements as the median over units. *)
let combine units extra =
  let all = List.concat_map (fun u -> u.metrics) units @ extra in
  List.map
    (fun (name, unit) ->
      let vs = List.filter_map (fun (n, v, _) -> if n = name then Some v else None) all in
      let v = match vs with [] -> 0. | v0 :: _ -> if exact_unit unit then v0 else median vs in
      (name, v, unit))
    per_layer

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let json_of_metrics ms =
  Obs.Json.Obj
    (List.map
       (fun (name, v, unit) ->
         let v = if Float.is_finite v then v else 0. in
         (name, Obs.Json.Obj [ ("value", Obs.Json.Float v); ("unit", Obs.Json.String unit) ]))
       ms)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let trace_out = ref "" and work_dir = ref "." in
  let usage = "perfbench --workload closure|recheck|walk|mutator --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W closure, recheck, walk or mutator");
      ("--seed", Arg.Set_int seed, "N workload seed (walk and mutator; recorded by all)");
      ("--seconds", Arg.Set_float seconds, "S how long the units run");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--trace-out", Arg.Set_string trace_out, "FILE Chrome trace of a traced run");
      ("--work-dir", Arg.Set_string work_dir, "DIR scratch space (the recheck certificate)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let traced_run = !trace = 1 in
  let tr =
    if traced_run then
      Obs.Tracing.create ~capacity:16384
        ~name:(Printf.sprintf "perfbench %s seed=%d" !workload !seed)
        ~domains:(Array.length lane_names) ()
    else Obs.Tracing.null
  in
  let p = make_probe tr in
  let w =
    match !workload with
    | "closure" -> closure p
    | "recheck" -> recheck p ~work_dir:!work_dir
    | "walk" -> walk p ~seed:!seed
    | "mutator" -> mutator p ~seed:!seed
    | other ->
      prerr_endline ("perfbench: unknown workload " ^ other ^ "\n" ^ usage);
      exit 2
  in
  (* peak memory of set-up plus one unit, as one command would reach it:
     later units can grow the heap further, which no user run does *)
  let peak_rss = ref 0. in
  let on_first () = peak_rss := peak_rss_mb () in
  let units =
    try measure p w ~seconds:!seconds ~trace:traced_run ~on_first
    with Failure msg ->
      prerr_endline ("perfbench: set-up failed: " ^ msg);
      exit 1
  in
  let failed = List.filter (fun u -> u.failure <> None) units in
  List.iter
    (fun u -> Option.iter (fun msg -> Printf.printf "# failed unit: %s\n" msg) u.failure)
    failed;
  let over ~traced f = median (List.filter_map (fun u -> if u.traced = traced then Some (f u) else None) units) in
  let normalised u seconds = seconds *. probe_ref_s ~domains:w.domains /. u.host in
  let result_s = over ~traced:false (fun u -> normalised u (to_s u.ns)) in
  let metrics =
    if not traced_run then
      [
        ("setup_s", median (List.map (fun u -> normalised u u.setup) units), "s");
        ("result_s", result_s, "s");
        ("work_per_s", w.items /. result_s, "1/s");
        ("peak_rss_mb", !peak_rss, "MB");
      ]
    else begin
      (* per-layer figures are raw seconds; host.probe_s scales them *)
      let raw ~traced = over ~traced (fun u -> to_s u.ns) in
      let ms =
        combine units
          [
            ("trace.result_s", raw ~traced:true, "s");
            ("trace.overhead_s", raw ~traced:true -. raw ~traced:false, "s");
            ("host.raw_result_s", raw ~traced:false, "s");
            ("host.probe_s", median (List.map (fun u -> u.host) units), "s");
          ]
      in
      if !trace_out <> "" then Obs.Tracing.write tr !trace_out;
      ms
    end
  in
  Printf.printf "# perfbench workload=%s seed=%d trace=%d items/unit=%.0f unit_s/probe_s=[%s]%s\n"
    !workload !seed !trace w.items
    (String.concat " "
       (List.map
          (fun u -> Printf.sprintf "%s%.3f/%.4f" (if u.traced then "t" else "") (to_s u.ns) u.host)
          units))
    (if traced_run then
       Printf.sprintf " spans=%d dropped_spans=%d" (Obs.Tracing.events tr) (Obs.Tracing.drops tr)
     else "");
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool (failed = []));
            ("attempted", Obs.Json.Int (List.length units));
            ("failed", Obs.Json.Int (List.length failed));
            ("metrics", json_of_metrics metrics);
          ]))

(* The concrete collector thread: Fig. 2 as running code.

   One call to [cycle] performs a full mark-sweep cycle — the four no-op
   initialization handshakes, the root-marking handshake, the mark loop
   with its termination handshakes, and the sweep.  [run] loops cycles
   until the harness raises the stop flag. *)

open Rshared

let hs_span_name = function
  | Hs_none -> "hs-none"
  | Hs_nop -> "hs-nop"
  | Hs_get_roots -> "hs-get-roots"
  | Hs_get_work -> "hs-get-work"

let tracing sh = Obs.Tracing.enabled sh.tracer && Obs.Tracing.lanes sh.tracer >= 1

let handshake sh typ =
  let t0_ns = Obs.Clock.monotonic_ns () in
  Array.iteri
    (fun i slot ->
      (* stamp before the request is visible, so a mutator that sees the
         slot set is guaranteed to read this round's timestamp *)
      Atomic.set sh.lat.hs_req_ns.(i) t0_ns;
      Atomic.set slot typ)
    sh.hs_req;
  Array.iter
    (fun slot ->
      while Atomic.get slot <> Hs_none do
        Domain.cpu_relax ()
      done)
    sh.hs_req;
  (* round latency: a ragged handshake is only done once the slowest
     mutator acked, so this is the collector-observed stall *)
  let t1_ns = Obs.Clock.monotonic_ns () in
  let dt_ns = t1_ns - t0_ns in
  let dt = float_of_int dt_ns *. 1e-9 in
  if tracing sh then
    Obs.Tracing.span_between sh.tracer ~dom:0
      ~name:(Obs.Tracing.intern sh.tracer (hs_span_name typ))
      ~start_ns:t0_ns ~stop_ns:t1_ns;
  Obs.Metrics.aincr sh.hs_rounds;
  if sh.lat.lat_on then begin
    (* whole-round history gets the coordinated-omission treatment when
       configured (rounds are the runtime's periodic heartbeat); the
       per-type split stays raw *)
    Obs.Latency.record_corrected sh.lat.hs_round
      ~expected_interval_ns:sh.lat.co_interval_ns dt_ns;
    Obs.Latency.record
      (match typ with
      | Hs_get_roots -> sh.lat.hs_round_roots
      | Hs_get_work -> sh.lat.hs_round_work
      | Hs_nop | Hs_none -> sh.lat.hs_round_nop)
      dt_ns
  end;
  dt

(* Scan greys depth-first: marking a child greys it onto the same stack;
   popping an object blackens it (its children have been marked). *)
let rec drain sh stack =
  match stack with
  | [] -> ()
  | r :: rest ->
    if sh.trace_pause > 0. then Unix.sleepf sh.trace_pause;
    let stack = ref rest in
    for f = 0 to sh.heap.Rheap.n_fields - 1 do
      stack := mark sh (Rheap.field sh.heap r f) !stack
    done;
    drain sh !stack

let cycle sh =
  let observing = Obs.Reporter.enabled sh.obs in
  let tr_on = tracing sh in
  let t_cycle_ns = Obs.Clock.monotonic_ns () in
  (* counter baselines for this cycle's deltas *)
  let cas_attempts0 = Atomic.get sh.cas_attempts in
  let cas_wins0 = Atomic.get sh.cas_wins in
  let fast0 = Atomic.get sh.barrier_fast_path in
  let frees0 = Atomic.get sh.heap.Rheap.frees in
  let hs_latencies = ref [] in
  let hs_ns = ref 0 in
  let handshake sh typ =
    let dt = handshake sh typ in
    hs_ns := !hs_ns + int_of_float (dt *. 1e9);
    if observing then hs_latencies := dt :: !hs_latencies
  in
  (* lines 3-4: everyone sees Idle; the heap is black *)
  handshake sh Hs_nop;
  (* line 5: flip the sense — the heap becomes white *)
  Atomic.set sh.f_m (not (Atomic.get sh.f_m));
  handshake sh Hs_nop;
  (* line 8: barriers on *)
  Atomic.set sh.phase Init;
  handshake sh Hs_nop;
  (* lines 11-12: allocate black from here on *)
  Atomic.set sh.phase Mark;
  Atomic.set sh.f_a (Atomic.get sh.f_m);
  handshake sh Hs_nop;
  (* lines 15-20: sample and mark the roots, raggedly *)
  handshake sh Hs_get_roots;
  (* lines 24-34: trace, then poll the mutators for leftover greys *)
  let t_mark_ns = Obs.Clock.monotonic_ns () in
  let rec mark_loop () =
    let w = take_global sh in
    if w <> [] then begin
      drain sh w;
      handshake sh Hs_get_work;
      mark_loop ()
    end
  in
  mark_loop ();
  let t_sweep_ns = Obs.Clock.monotonic_ns () in
  (* lines 37-45: free the whites *)
  Atomic.set sh.phase Sweep;
  let sense = Atomic.get sh.f_m in
  List.iter
    (fun r -> if Rheap.mark sh.heap r <> sense then Rheap.free sh.heap r)
    (Rheap.domain sh.heap);
  (* line 46 *)
  Atomic.set sh.phase Idle;
  Atomic.incr sh.cycles;
  let t_end_ns = Obs.Clock.monotonic_ns () in
  if sh.lat.lat_on then begin
    Obs.Latency.record sh.lat.pause (t_end_ns - t_cycle_ns);
    Obs.Latency.record sh.lat.mark_phase (t_sweep_ns - t_mark_ns);
    Obs.Latency.record sh.lat.sweep_phase (t_end_ns - t_sweep_ns);
    Obs.Latency.record sh.lat.hs_in_cycle !hs_ns
  end;
  if tr_on then begin
    Obs.Tracing.span_between sh.tracer ~dom:0
      ~name:(Obs.Tracing.intern sh.tracer "mark")
      ~start_ns:t_mark_ns ~stop_ns:t_sweep_ns;
    Obs.Tracing.span_between sh.tracer ~dom:0
      ~name:(Obs.Tracing.intern sh.tracer "sweep")
      ~start_ns:t_sweep_ns ~stop_ns:t_end_ns;
    Obs.Tracing.span_args sh.tracer ~dom:0
      ~name:(Obs.Tracing.intern sh.tracer "gc-cycle")
      ~start_ns:t_cycle_ns ~stop_ns:t_end_ns
      ~args:
        [
          ("cycle", Obs.Json.Int (Atomic.get sh.cycles));
          ("freed", Obs.Json.Int (Atomic.get sh.heap.Rheap.frees - frees0));
          ("live", Obs.Json.Int (Rheap.live_count sh.heap));
        ]
  end;
  if observing then begin
    let cas_attempts = Atomic.get sh.cas_attempts - cas_attempts0 in
    let cas_wins = Atomic.get sh.cas_wins - cas_wins0 in
    let fast = Atomic.get sh.barrier_fast_path - fast0 in
    let flag_tests = cas_attempts + fast in
    Obs.Reporter.emit sh.obs Obs.Record.gc_cycle
      [
        ("cycle", Obs.Json.Int (Atomic.get sh.cycles));
        ("elapsed_s", Obs.Json.Float (float_of_int (t_end_ns - t_cycle_ns) *. 1e-9));
        ("mark_s", Obs.Json.Float (float_of_int (t_sweep_ns - t_mark_ns) *. 1e-9));
        ("sweep_s", Obs.Json.Float (float_of_int (t_end_ns - t_sweep_ns) *. 1e-9));
        ("hs_s", Obs.Json.Float (float_of_int !hs_ns *. 1e-9));
        ( "hs_latency_s",
          Obs.Json.List (List.rev_map (fun dt -> Obs.Json.Float dt) !hs_latencies) );
        ("marks", Obs.Json.Int cas_wins);
        ("cas_attempts", Obs.Json.Int cas_attempts);
        ("cas_wins", Obs.Json.Int cas_wins);
        ("barrier_fast_path", Obs.Json.Int fast);
        ( "barrier_fast_path_rate",
          Obs.Json.Float
            (if flag_tests > 0 then float_of_int fast /. float_of_int flag_tests else 0.) );
        ("freed", Obs.Json.Int (Atomic.get sh.heap.Rheap.frees - frees0));
        ("live", Obs.Json.Int (Rheap.live_count sh.heap));
      ]
  end

(* One live summary of the runtime's health: counters plus percentile
   snapshots of the latency histograms.  Emitted between cycles, so the
   percentiles a monitoring pipeline reads are at most one cycle stale. *)
let emit_heartbeat sh ~dt_ns ~allocs0 =
  let allocs = Atomic.get sh.heap.Rheap.allocs in
  let rate =
    if dt_ns > 0 then float_of_int (allocs - allocs0) /. (float_of_int dt_ns *. 1e-9)
    else 0.
  in
  Obs.Reporter.emit sh.obs Obs.Record.runtime_heartbeat
    [
      ("cycles", Obs.Json.Int (Atomic.get sh.cycles));
      ("live", Obs.Json.Int (Rheap.live_count sh.heap));
      ("allocs", Obs.Json.Int allocs);
      ("frees", Obs.Json.Int (Atomic.get sh.heap.Rheap.frees));
      ("alloc_per_sec", Obs.Json.Float rate);
      ("alloc_stalls", Obs.Json.Int (Atomic.get sh.lat.alloc_stalls));
      ("hs", Obs.Latency.to_json sh.lat.hs_round);
      ( "hs_ack_p99_ns",
        Obs.Json.List
          (Array.to_list
             (Array.map
                (fun h ->
                  match Obs.Latency.percentile h 99. with
                  | Some v -> Obs.Json.Int v
                  | None -> Obs.Json.Null)
                sh.lat.hs_ack)) );
      ("pause", Obs.Latency.to_json sh.lat.pause);
      ("barrier_fast_path", Obs.Json.Int (Atomic.get sh.barrier_fast_path));
      ("cas_attempts", Obs.Json.Int (Atomic.get sh.cas_attempts));
    ]

let run sh =
  let observing = Obs.Reporter.enabled sh.obs in
  let last_hb = ref (Obs.Clock.monotonic_ns ()) in
  let last_allocs = ref (Atomic.get sh.heap.Rheap.allocs) in
  while not (Atomic.get sh.stop) do
    cycle sh;
    if observing then begin
      let now = Obs.Clock.monotonic_ns () in
      let dt_ns = now - !last_hb in
      if dt_ns >= hb_every_ns then begin
        emit_heartbeat sh ~dt_ns ~allocs0:!last_allocs;
        last_hb := now;
        last_allocs := Atomic.get sh.heap.Rheap.allocs
      end
    end
  done;
  (* release any mutator parked on a handshake we will never complete *)
  Array.iter (fun slot -> Atomic.set slot Hs_none) sh.hs_req

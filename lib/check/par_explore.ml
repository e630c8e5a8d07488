(* The exploration engine: asynchronous work-stealing BFS across OCaml 5
   domains.  Every production explore runs it; at [jobs] = 1 the one
   worker runs on the calling domain and its FIFO deque gives exact BFS
   order.  Explore.run stays as the exact reference it is checked
   against.

   A persistent pool of [jobs] worker domains is spawned once per run.
   Each worker expands states from its own deque (a growable ring guarded
   by a contention-probed mutex), pushes fresh successors locally, and,
   when its deque runs dry, steals half of the first non-empty victim
   deque it finds.  There is no level barrier: termination is detected by
   an atomic active-task counter — the counter is incremented before a
   task is published and decremented only after its expansion (including
   the publication of its successors) completes, so a worker that observes
   zero pending tasks knows the whole exploration is quiescent.

   Correctness without level synchronization rests on depth stamps.
   Every seen-set entry carries the length of the shortest discovered
   path from the root; when a shorter path to a known state is found the
   entry's (depth, parent, event) triple is atomically improved and the
   state is re-enqueued, so stamps relax down to true BFS distances by
   the time the counter reaches zero (a fixpoint: any improvement
   re-publishes work, so quiescence implies no improvement is possible).
   Violations update an atomic best-(depth, fingerprint) cell with
   min-tie-break; expansions at depth >= best are pruned.  Because every
   state at the minimal violating depth d* has all its ancestors at
   depths < d* <= best, the relaxation chain leading to each minimal
   violation is never pruned, so the cell converges to the minimal
   (depth, fingerprint) violation and the parent chain of that
   fingerprint has exactly best-depth edges — the counterexample replay
   (the reference BFS's) returns a shortest trace.

   Memory layout (cf. "Reducing State Explosion for Software Model
   Checking with Relaxed Memory Consistency Models"): full states live
   only in the deques.  The seen-set is the tiered store of [lib/store]
   ({!Store.Tiered}): 64 independently-locked open-addressing shards over
   unboxed int bigarrays — 32 bytes/state regardless of state size — and,
   under [mem_budget], Bloom-fronted sorted on-disk segments that shards
   freeze into, keeping membership exact while bounding resident bytes.

   Checkpoint/resume rides on the same segment format.  With
   [checkpoint], worker 0 coordinates a stop-the-world rendezvous every
   [every] states: workers park at batch boundaries (they hold no
   popped-but-unprocessed tasks there, so the deques plus the pending
   counter are the entire frontier), worker 0 snapshots the store, the
   deques as (fingerprint, depth) pairs, the violation cell and the
   counters via {!Store.Checkpoint.write}, then releases the pool.
   Frontier states are not serialized — CIMP systems embed closures — but
   rebuilt at resume by parent-chain replay with a memo cache, exactly
   the mechanism counterexample reconstruction already trusts.

   Determinism against the reference BFS, and where it stops: the
   contract on [run] in par_explore.mli. *)

type ('a, 'v, 's) outcome = ('a, 'v, 's) Explore.outcome

(* -- scheduler hooks ---------------------------------------------------------

   Observation points on the worker scheduler, injectable from tests to
   pin down termination-detection interleavings (e.g. force a worker to
   sit in its quiescence probe while another publishes work).  The
   default hooks do nothing and cost one call per event. *)

type hooks = {
  on_expand : worker:int -> depth:int -> unit;
  on_idle : worker:int -> unit;
  on_steal : worker:int -> victim:int -> stolen:int -> unit;
  on_probe : worker:int -> pending:int -> unit;
}

let no_hooks =
  {
    on_expand = (fun ~worker:_ ~depth:_ -> ());
    on_idle = (fun ~worker:_ -> ());
    on_steal = (fun ~worker:_ ~victim:_ ~stolen:_ -> ());
    on_probe = (fun ~worker:_ ~pending:_ -> ());
  }

(* -- per-worker deques -------------------------------------------------------

   A growable ring of tasks guarded by a contention-probed mutex; the
   owner pops small batches from the front (FIFO keeps expansion close to
   BFS order, which minimizes depth-improvement re-expansions), thieves
   take half (rounded up) from the front.  A mutex per deque is ample
   here: the owner amortizes it over a batch, and steals are rare
   compared to expansions. *)

module Deque = struct
  type 'task t = {
    lock : Obs.Contention.lock;
    mutable buf : 'task array;
    mutable head : int;
    mutable len : int;
    dummy : 'task;
  }

  let create ~dummy =
    { lock = Obs.Contention.make_lock (); buf = Array.make 64 dummy; head = 0; len = 0; dummy }

  (* racy size read: victim-selection hint only, re-checked under lock *)
  let size d = d.len

  let ensure d extra =
    let cap = Array.length d.buf in
    if d.len + extra > cap then begin
      let cap' = ref (2 * cap) in
      while d.len + extra > !cap' do
        cap' := 2 * !cap'
      done;
      let buf = Array.make !cap' d.dummy in
      for i = 0 to d.len - 1 do
        buf.(i) <- d.buf.((d.head + i) mod cap)
      done;
      d.buf <- buf;
      d.head <- 0
    end

  let push_list d tasks =
    Obs.Contention.lock d.lock;
    ensure d (List.length tasks);
    let cap = Array.length d.buf in
    List.iter
      (fun t ->
        d.buf.((d.head + d.len) mod cap) <- t;
        d.len <- d.len + 1)
      tasks;
    Obs.Contention.unlock d.lock

  (* [m] front tasks in order; caller locks.  Slots are cleared so popped
     states do not outlive their expansion. *)
  let take_front_locked d m =
    let cap = Array.length d.buf in
    let out = ref [] in
    for i = m - 1 downto 0 do
      let j = (d.head + i) mod cap in
      out := d.buf.(j) :: !out;
      d.buf.(j) <- d.dummy
    done;
    d.head <- (d.head + m) mod cap;
    d.len <- d.len - m;
    !out

  let pop_batch d k =
    Obs.Contention.lock d.lock;
    let r = take_front_locked d (min k d.len) in
    Obs.Contention.unlock d.lock;
    r

  let steal d =
    Obs.Contention.lock d.lock;
    let r = take_front_locked d ((d.len + 1) / 2) in
    Obs.Contention.unlock d.lock;
    r

  (* non-destructive snapshot, for checkpoints (the pool is parked) *)
  let to_list d =
    Obs.Contention.lock d.lock;
    let cap = Array.length d.buf in
    let r = List.init d.len (fun i -> d.buf.((d.head + i) mod cap)) in
    Obs.Contention.unlock d.lock;
    r

  let locks ds = Array.map (fun d -> d.lock) ds
end

(* -- the explorer ------------------------------------------------------------ *)

let max_jobs = 64
let pop_batch_size = 8

let int_list a = Obs.Json.List (Array.to_list (Array.map (fun v -> Obs.Json.Int v) a))

let run ?(jobs = 1) ?(max_states = 1_000_000) ?(normal_form = true) ?(obs = Obs.Reporter.null)
    ?(tracer = Obs.Tracing.null) ?(heartbeat_every = 20_000) ?(hooks = no_hooks) ?reducer
    ?mem_budget ?spill_dir ?checkpoint ?resume ?on_store ?(run_config = Obs.Json.Null) ~invariants
    initial =
  if jobs < 1 || jobs > max_jobs then
    invalid_arg (Printf.sprintf "Par_explore.run: jobs = %d, expected 1..%d" jobs max_jobs);
  Option.iter
    (fun (_, every) ->
      if every < 1 then
        invalid_arg
          (Printf.sprintf "Par_explore.run: checkpoint every %d states, expected >= 1" every))
    checkpoint;
  let t0_ns = Obs.Clock.monotonic_ns () in
  let base_elapsed =
    match resume with Some s -> s.Store.Checkpoint.elapsed_s | None -> 0.
  in
  let norm sys = if normal_form then Cimp.System.normalize sys else sys in
  let fp_of sys = Reducer.fp_of reducer sys in
  let canon sys = Reducer.canon_of reducer sys in
  (* expand canonical representatives everywhere (root included): the
     visited class set is then independent of which worker reaches a
     class first — the reference BFS (Explore) follows the same rule *)
  let initial = canon (norm initial) in
  let codec = Store.Event_codec.of_system initial in
  let seen =
    match resume with
    | Some snap -> snap.Store.Checkpoint.store
    | None -> Store.Tiered.create ?mem_budget ?spill_dir ()
  in
  (* the store's own temporary spill directory goes when the run ends,
     returning or raising, after [on_store] has read the store; only the
     path is held, so the store stays collectable once [on_store] is
     done with it *)
  let temp = Store.Tiered.temp_dir seen in
  Fun.protect ~finally:(fun () -> Option.iter Store.Fs.rm_rf temp) @@ fun () ->
  if List.length invariants > Store.Segment.max_violation + 1 then
    invalid_arg "Par_explore: too many invariants to pack";
  (* a worker's profile is live, with a clock pair around every layer
     call, only when a trace is being recorded or a reporter is attached
     (for the profile record); per-worker busy/idle accounting (two
     clock reads per batch, one per idle episode) is always on, so the
     scaling-detail record is available to any obs sink *)
  let tr_on = Obs.Tracing.enabled tracer && Obs.Tracing.lanes tracer >= jobs in
  let live = tr_on || Obs.Reporter.enabled obs in
  let n_expand = if tr_on then Obs.Tracing.intern tracer "expand" else 0 in
  let n_succ = if tr_on then Obs.Tracing.intern tracer "successor-gen" else 0 in
  let n_fp = if tr_on then Obs.Tracing.intern tracer "normalize+fingerprint" else 0 in
  let n_ins = if tr_on then Obs.Tracing.intern tracer "seen-insert" else 0 in
  let n_inv = if tr_on then Obs.Tracing.intern tracer "invariants" else 0 in
  let n_push = if tr_on then Obs.Tracing.intern tracer "deque-push" else 0 in
  let n_steal = if tr_on then Obs.Tracing.intern tracer "steal" else 0 in
  let n_steal_fail = if tr_on then Obs.Tracing.intern tracer "steal-fail" else 0 in
  let n_probe = if tr_on then Obs.Tracing.intern tracer "termination-probe" else 0 in
  let n_spill = if tr_on then Obs.Tracing.intern tracer "store-spill" else 0 in
  let n_merge = if tr_on then Obs.Tracing.intern tracer "store-merge" else 0 in
  let n_disk = if tr_on then Obs.Tracing.intern tracer "store-disk-probe" else 0 in
  if tr_on then
    for d = 0 to jobs - 1 do
      Obs.Tracing.set_lane tracer ~dom:d (Fmt.str "worker %d" d)
    done;
  (* spill/merge/probe spans happen under a shard lock deep in the
     store, on whichever worker triggered them; a domain-local worker
     id routes them into that worker's single-writer lane *)
  let dls_worker = Domain.DLS.new_key (fun () -> -1) in
  let store_span name args ~start_ns ~stop_ns =
    let w = Domain.DLS.get dls_worker in
    if w >= 0 then Obs.Tracing.span_args tracer ~dom:w ~name ~start_ns ~stop_ns ~args
  in
  if tr_on then
    Store.Tiered.set_hooks seen
      {
        Store.Tiered.on_spill =
          (fun ~shard:_ ~entries ~bytes ->
            store_span n_spill [ ("entries", Obs.Json.Int entries); ("bytes", Obs.Json.Int bytes) ]);
        on_merge =
          (fun ~shard:_ ~segments ~entries ->
            store_span n_merge
              [ ("segments", Obs.Json.Int segments); ("entries", Obs.Json.Int entries) ]);
        on_disk_probe = (fun ~shard:_ ~hit -> store_span n_disk [ ("hit", Obs.Json.Bool hit) ]);
      };
  let busy_ns = Array.make jobs 0 in
  let idle_ns = Array.make jobs 0 in
  let steals = Array.make jobs 0 in
  let steal_fails = Array.make jobs 0 in
  let stolen_tasks = Array.make jobs 0 in
  let term_probes = Array.make jobs 0 in
  let resume_int f = match resume with Some s -> f s | None -> 0 in
  let states = Atomic.make (resume_int (fun s -> s.Store.Checkpoint.states)) in
  let transitions = Atomic.make (resume_int (fun s -> s.Store.Checkpoint.transitions)) in
  let deadlocks = Atomic.make (resume_int (fun s -> s.Store.Checkpoint.deadlocks)) in
  let truncated =
    Atomic.make (match resume with Some s -> s.Store.Checkpoint.truncated | None -> false)
  in
  (* best violation: (depth, fingerprint) with min-tie-break.  The depth
     mirror is atomic so the expansion fast path can prune without
     taking the mutex; fp/inv are only read after the pool joins. *)
  let best_lock = Mutex.create () in
  let best_depth = Atomic.make max_int in
  let best_fp = ref 0 in
  let best_inv = ref (-1) in
  (match resume with
  | Some { Store.Checkpoint.best = Some (d, fp, inv); _ } ->
    Atomic.set best_depth d;
    best_fp := fp;
    best_inv := inv
  | _ -> ());
  let offer ~depth ~fp ~inv =
    if depth <= Atomic.get best_depth then begin
      Mutex.lock best_lock;
      let d0 = Atomic.get best_depth in
      if depth < d0 || (depth = d0 && fp < !best_fp) then begin
        best_fp := fp;
        best_inv := inv;
        Atomic.set best_depth depth
      end;
      Mutex.unlock best_lock
    end
  in
  (* termination detection: [pending] counts published-but-unfinished
     tasks.  It is incremented before tasks become visible in any deque
     and decremented only after a task's expansion (successor
     publication included) completes, so pending = 0 observed by any
     worker means the exploration is quiescent and can never wake up. *)
  let pending = Atomic.make 0 in
  (* the first exception a worker raises (a disk fault in a spill, merge,
     probe or snapshot write): every worker leaves its loop or spin at
     the next check, and [run] re-raises it once the pool has joined *)
  let failure = Atomic.make None in
  let failed () = Option.is_some (Atomic.get failure) in
  (* worker-indexed so each domain owns its instrumentation arrays *)
  let profiles = Array.init jobs (fun _ -> Profile.create ~live invariants) in
  let fp0 = Fingerprint.hash (fp_of initial) in
  let dummy_task = (fp0, initial, 0) in
  let deques = Array.init jobs (fun _ -> Deque.create ~dummy:dummy_task) in
  let publish w tasks =
    ignore (Atomic.fetch_and_add pending (List.length tasks));
    Deque.push_list deques.(w) tasks
  in
  (* forward replay of a recorded (fingerprint, event) chain
     ({!Trace.replay}: same-label successors disambiguated by the
     recorded fingerprint); [what] names the chain in the refusal *)
  let cannot_replay what =
    invalid_arg (Fmt.str "Par_explore.run: cannot replay %s (model mismatch?)" what)
  in
  let replay_from ~what start chain =
    match
      Trace.replay
        ~norm:(fun s -> canon (norm s))
        ~lands:(fun s' fp' -> Fingerprint.hash (fp_of s') = fp')
        start chain
    with
    | Ok steps -> steps
    | Error _ -> cannot_replay what
  in
  let reconstruct fp broken =
    let rec back fp acc =
      match Store.Tiered.find seen fp with
      | Some (parent, ev) when parent <> 0 ->
        back parent ((fp, Store.Event_codec.decode codec ev) :: acc)
      | _ -> acc
    in
    { Trace.initial; steps = replay_from ~what:"the counterexample" initial (back fp []); broken }
  in
  (* -- checkpoint rendezvous ---------------------------------------------

     Worker 0 coordinates.  When due, it raises [ckpt_req]; the other
     workers notice at a batch boundary (or inside the idle-steal spin)
     and park in [ckpt_wait] until the snapshot is written.  A parked
     worker holds no popped-but-unprocessed task and no lock, so at
     full rendezvous the deques plus the atomic counters are the whole
     exploration state, and pending equals the sum of deque lengths.
     If the coordinator observes pending = 0 while gathering the pool
     it aborts (workers may already be exiting through quiescence; the
     post-join final snapshot covers that case). *)
  let ckpt_req = Atomic.make false in
  let ckpt_arrived = Atomic.make 0 in
  let ckpt_gen = Atomic.make 0 in
  let ckpt_seq = ref (match resume with Some s -> s.Store.Checkpoint.seq + 1 | None -> 1) in
  let last_ckpt_states = ref (Atomic.get states) in
  let do_snapshot dir =
    let elapsed_now = base_elapsed +. Obs.Clock.elapsed_s ~since:t0_ns in
    let frontier =
      Array.map (fun d -> List.map (fun (fp, _, dep) -> (fp, dep)) (Deque.to_list d)) deques
    in
    let best =
      if Atomic.get best_depth = max_int then None
      else Some (Atomic.get best_depth, !best_fp, !best_inv)
    in
    Store.Checkpoint.write ~dir ~seq:!ckpt_seq ~config:run_config ~store:seen
      ~states:(Atomic.get states) ~transitions:(Atomic.get transitions)
      ~deadlocks:(Atomic.get deadlocks) ~truncated:(Atomic.get truncated)
      ~elapsed_s:elapsed_now ~best ~frontier;
    if Obs.Reporter.enabled obs then
      Obs.Reporter.emit obs Obs.Record.checkpoint
        [
          ("checker", Obs.Json.String "par-explore");
          ("seq", Obs.Json.Int !ckpt_seq);
          ("states", Obs.Json.Int (Atomic.get states));
          ("frontier", Obs.Json.Int (Atomic.get pending));
          ("dir", Obs.Json.String dir);
        ];
    incr ckpt_seq;
    last_ckpt_states := Atomic.get states
  in
  let ckpt_wait w =
    if w > 0 && Atomic.get ckpt_req then begin
      let gen = Atomic.get ckpt_gen in
      Atomic.incr ckpt_arrived;
      while Atomic.get ckpt_req && Atomic.get ckpt_gen = gen && not (failed ()) do
        Domain.cpu_relax ()
      done;
      Atomic.decr ckpt_arrived
    end
  in
  let maybe_checkpoint w =
    match checkpoint with
    | None -> ()
    | Some (dir, every) ->
      if w > 0 then ckpt_wait w
      else if Atomic.get states - !last_ckpt_states >= every then begin
        if jobs = 1 then do_snapshot dir
        else begin
          Atomic.set ckpt_req true;
          let parked = ref false in
          let quiescent = ref false in
          while not (!parked || !quiescent) do
            if Atomic.get ckpt_arrived >= jobs - 1 then parked := true
            else if Atomic.get pending = 0 || failed () then quiescent := true
            else Domain.cpu_relax ()
          done;
          if !parked then do_snapshot dir;
          Atomic.incr ckpt_gen;
          Atomic.set ckpt_req false;
          while Atomic.get ckpt_arrived > 0 do
            Domain.cpu_relax ()
          done
        end
      end
  in
  (* One worker: expand tasks from the own deque, steal when dry, exit
     at quiescence.  Each worker emits its own heartbeats (tagged with
     its domain index) and writes spans only into its own lane, so the
     single-writer-per-lane tracing discipline holds without any
     coordinator involvement. *)
  let worker w () =
    Domain.DLS.set dls_worker w;
    let own = deques.(w) in
    (* the worker's layers, wrapped once: bare functions unless its
       profile is live *)
    let prof = profiles.(w) in
    let succs_of = Profile.wrap prof Successors (Reducer.succs_of reducer) in
    let norm = Profile.wrap prof Normalise norm in
    let hash = Profile.wrap prof Fingerprint (fun sys -> Fingerprint.hash (fp_of sys)) in
    let insert =
      Profile.wrap4 prof Insert (fun fp' parent event depth ->
          Store.Tiered.add seen fp' ~parent ~event:(Store.Event_codec.encode codec event) ~depth)
    in
    let check = Profile.check prof in
    let push = Profile.wrap prof Push (publish w) in
    (* every heartbeat interval and when the worker goes idle, the layers'
       growth since the last flush is laid out as one [expand] span with
       the layer children back to back inside it *)
    let sub_spans =
      [|
        (n_succ, [ Profile.Successors ]);
        (n_fp, [ Normalise; Fingerprint ]);
        (n_ins, [ Insert ]);
        (n_inv, [ Invariants ]);
        (n_push, [ Push ]);
      |]
    in
    let laid = Array.make (Array.length sub_spans) 0 in
    let span_start = ref (Obs.Clock.monotonic_ns ()) in
    let span_states = ref 0 in
    let expanded = ref 0 in
    let hb_expanded = ref 0 in
    let hb_time = ref !span_start in
    let flush_span () =
      if tr_on && !span_states > 0 then begin
        let stop = Obs.Clock.monotonic_ns () in
        Obs.Tracing.span_args tracer ~dom:w ~name:n_expand ~start_ns:!span_start ~stop_ns:stop
          ~args:[ ("states", Obs.Json.Int !span_states) ];
        let cursor = ref !span_start in
        Array.iteri
          (fun k (name, layers) ->
            let total = List.fold_left (fun acc l -> acc + Profile.ns prof l) 0 layers in
            let ns = total - laid.(k) in
            laid.(k) <- total;
            if ns > 0 then begin
              Obs.Tracing.span_between tracer ~dom:w ~name ~start_ns:!cursor
                ~stop_ns:(!cursor + ns);
              cursor := !cursor + ns
            end)
          sub_spans;
        span_states := 0
      end;
      span_start := Obs.Clock.monotonic_ns ()
    in
    let heartbeat () =
      if !expanded - !hb_expanded >= heartbeat_every then begin
        let now_ns = Obs.Clock.monotonic_ns () in
        if Obs.Reporter.enabled obs then begin
          let interval = Obs.Clock.ns_to_s (now_ns - !hb_time) in
          let rate =
            if interval > 0. then float_of_int (!expanded - !hb_expanded) /. interval else 0.
          in
          let gc = Gc.quick_stat () in
          let st = Store.Tiered.stats seen in
          Obs.Reporter.emit obs Obs.Record.heartbeat_explore
            [
              ("checker", Obs.Json.String "par-explore");
              ("domain", Obs.Json.Int w);
              ("frontier", Obs.Json.Int (Atomic.get pending));
              ("states", Obs.Json.Int (Atomic.get states));
              ("max_states", Obs.Json.Int max_states);
              ("transitions", Obs.Json.Int (Atomic.get transitions));
              ("states_per_sec", Obs.Json.Float rate);
              ("heap_words", Obs.Json.Int gc.Gc.heap_words);
              ("bytes_resident", Obs.Json.Int st.Store.Tiered.resident_bytes);
              ("mem_budget", Obs.Json.Int (Store.Tiered.mem_budget seen));
              ("segments", Obs.Json.Int st.Store.Tiered.segments);
              ( "spilled_states",
                Obs.Json.Int
                  (max 0 (Store.Tiered.count seen - st.Store.Tiered.resident_entries)) );
              ("bytes_resident_per_shard", int_list (Store.Tiered.resident_bytes_per_shard seen));
            ]
        end;
        flush_span ();
        hb_expanded := !expanded;
        hb_time := now_ns
      end
    in
    let process (fp, sys, d_task) =
      (match Store.Tiered.begin_expand seen fp ~depth:d_task with
      | `Stale -> ()
      | (`First d | `Again d) as claim ->
        if (not (Atomic.get truncated)) && d < Atomic.get best_depth then begin
          let first = match claim with `First _ -> true | `Again _ -> false in
          hooks.on_expand ~worker:w ~depth:d;
          let succs = succs_of sys in
          if succs = [] && first then Atomic.incr deadlocks;
          let out = ref [] in
          List.iter
            (fun (event, sys') ->
              if Atomic.get states < max_states then begin
                if first then Atomic.incr transitions;
                let sys' = norm sys' in
                let fp' = hash sys' in
                let d' = d + 1 in
                (* depth > best can neither beat the violation nor lie on
                   a minimal chain (ancestors of minimal violations stay
                   strictly below best); depth = best must still be
                   inserted and checked for the fingerprint tie-break *)
                if d' <= Atomic.get best_depth then begin
                  match insert fp' fp event d' with
                  | Store.Tiered.Fresh ->
                    let n = Atomic.fetch_and_add states 1 + 1 in
                    if n >= max_states then Atomic.set truncated true;
                    (* evaluate and expand the canonical representative
                       of the fresh class (canonicalization is paid
                       once per class, not per generated successor) *)
                    let sys' = canon sys' in
                    let idx = check sys' in
                    if idx >= 0 then begin
                      Store.Tiered.mark_violation seen fp' idx;
                      offer ~depth:d' ~fp:fp' ~inv:idx
                    end;
                    if d' < Atomic.get best_depth then out := (fp', sys', d') :: !out
                  | Store.Tiered.Improved viol ->
                    if viol >= 0 then offer ~depth:d' ~fp:fp' ~inv:viol;
                    if d' < Atomic.get best_depth then out := (fp', canon sys', d') :: !out
                  | Store.Tiered.Stale -> ()
                end
              end
              else Atomic.set truncated true)
            succs;
          if !out <> [] then push (List.rev !out);
          incr expanded;
          incr span_states;
          heartbeat ()
        end);
      Atomic.decr pending
    in
    (* round-robin sweep from w+1; steal half of the first victim that
       yields anything *)
    let try_steal () =
      let rec go k =
        if k >= jobs then None
        else begin
          let v = (w + k) mod jobs in
          if Deque.size deques.(v) = 0 then go (k + 1)
          else
            match Deque.steal deques.(v) with
            | [] -> go (k + 1)
            | ts -> Some (v, ts)
        end
      in
      go 1
    in
    let backoff = ref 0 in
    let rec main () =
      maybe_checkpoint w;
      if not (failed ()) then
        match Deque.pop_batch own pop_batch_size with
        | [] -> idle ()
        | tasks ->
          let t0 = Obs.Clock.monotonic_ns () in
          List.iter process tasks;
          busy_ns.(w) <- busy_ns.(w) + (Obs.Clock.monotonic_ns () - t0);
          main ()
    and idle () =
      flush_span ();
      hooks.on_idle ~worker:w;
      let ep_start = Obs.Clock.monotonic_ns () in
      let sweeps = ref 0 in
      let rec spin () =
        maybe_checkpoint w;
        let t_sweep = Obs.Clock.monotonic_ns () in
        match try_steal () with
        | Some (v, ts) ->
          let now = Obs.Clock.monotonic_ns () in
          let n = List.length ts in
          steals.(w) <- steals.(w) + 1;
          stolen_tasks.(w) <- stolen_tasks.(w) + n;
          Deque.push_list own ts;
          hooks.on_steal ~worker:w ~victim:v ~stolen:n;
          if tr_on then begin
            if !sweeps > 0 then
              Obs.Tracing.span_between tracer ~dom:w ~name:n_steal_fail ~start_ns:ep_start
                ~stop_ns:t_sweep;
            Obs.Tracing.span_between tracer ~dom:w ~name:n_steal ~start_ns:t_sweep ~stop_ns:now
          end;
          idle_ns.(w) <- idle_ns.(w) + (now - ep_start);
          backoff := 0;
          span_start := Obs.Clock.monotonic_ns ();
          main ()
        | None ->
          incr sweeps;
          steal_fails.(w) <- steal_fails.(w) + 1;
          term_probes.(w) <- term_probes.(w) + 1;
          let t_probe = Obs.Clock.monotonic_ns () in
          let p = Atomic.get pending in
          hooks.on_probe ~worker:w ~pending:p;
          if p = 0 || failed () then begin
            (* quiescent: no published task anywhere, and new tasks are
               only published by task expansions, so none can appear *)
            let now = Obs.Clock.monotonic_ns () in
            if tr_on then begin
              Obs.Tracing.span_between tracer ~dom:w ~name:n_steal_fail ~start_ns:ep_start
                ~stop_ns:t_probe;
              Obs.Tracing.span_between tracer ~dom:w ~name:n_probe ~start_ns:t_probe
                ~stop_ns:now
            end;
            idle_ns.(w) <- idle_ns.(w) + (now - ep_start)
          end
          else begin
            (* exponential-ish backoff: spin first, then sleep so a
               core-limited host gives the busy domains the CPU *)
            incr backoff;
            if !backoff < 64 then Domain.cpu_relax () else Unix.sleepf 0.0002;
            spin ()
          end
      in
      spin ()
    in
    main ()
  in
  (* root (or restored frontier): published before the pool spawns, so
     no worker can observe pending = 0 before the first task exists *)
  (match resume with
  | None ->
    ignore (Store.Tiered.add seen fp0 ~parent:0 ~event:0 ~depth:0);
    Atomic.set states 1;
    let idx = Profile.check profiles.(0) initial in
    if idx >= 0 then begin
      Store.Tiered.mark_violation seen fp0 idx;
      offer ~depth:0 ~fp:fp0 ~inv:idx
    end;
    publish 0 [ (fp0, initial, 0) ]
  | Some snap ->
    (* frontier states were snapshotted as (fingerprint, depth) only;
       rebuild each by replaying its parent chain from the nearest
       memoized ancestor — the counterexample replay — and redistribute
       round-robin *)
    if Store.Tiered.find seen fp0 = None then
      invalid_arg "Par_explore.run: checkpoint does not match this model configuration";
    let cache = Hashtbl.create 4096 in
    Hashtbl.add cache fp0 initial;
    let what = "a checkpointed frontier state" in
    let state_of fp =
      let rec back fp chain =
        match Hashtbl.find_opt cache fp with
        | Some s -> (s, chain)
        | None -> (
          match Store.Tiered.find seen fp with
          | Some (parent, code) when parent <> 0 -> (
            (* an event code past this model's label table is another
               model's *)
            match Store.Event_codec.decode codec code with
            | ev -> back parent ((fp, ev) :: chain)
            | exception Invalid_argument _ -> cannot_replay what)
          | _ ->
            invalid_arg "Par_explore.run: frontier fingerprint missing from the checkpoint store")
      in
      let start, chain = back fp [] in
      let steps = replay_from ~what start chain in
      List.fold_left2
        (fun _ (fp, _) step ->
          Hashtbl.replace cache fp step.Trace.state;
          step.Trace.state)
        start chain steps
    in
    let i = ref 0 in
    Array.iter
      (fun tasks ->
        List.iter
          (fun (fp, d) ->
            publish (!i mod jobs) [ (fp, state_of fp, d) ];
            incr i)
          tasks)
      snap.Store.Checkpoint.frontier);
  let guarded w () =
    try worker w ()
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (Atomic.compare_and_set failure None (Some (e, bt)))
  in
  let doms = Array.init (jobs - 1) (fun j -> Domain.spawn (guarded (j + 1))) in
  guarded 0 ();
  Array.iter Domain.join doms;
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) (Atomic.get failure);
  (* a final snapshot (frontier empty) makes resume-after-completion
     report the finished verdict instead of failing *)
  (match checkpoint with Some (dir, _) -> do_snapshot dir | None -> ());
  let elapsed = base_elapsed +. Obs.Clock.elapsed_s ~since:t0_ns in
  let violation =
    if Atomic.get best_depth = max_int then None
    else Some (reconstruct !best_fp (Profile.name profiles.(0) !best_inv))
  in
  let depth =
    if violation = None then Store.Tiered.max_depth seen else Atomic.get best_depth
  in
  let first_violation = Option.map (fun tr -> tr.Trace.broken) violation in
  (* the per-run records, once from the workers' merged profiles *)
  let prof = Profile.merge (Array.to_list profiles) in
  Profile.report_invariants obs ~first_violation prof;
  let states = Atomic.get states in
  let transitions = Atomic.get transitions in
  Reducer.report obs ~checker:"par-explore" ~fingerprints:true reducer ~states ~transitions
    ~elapsed;
  let deadlocks = Atomic.get deadlocks in
  let truncated = Atomic.get truncated in
  if Obs.Reporter.enabled obs then begin
    (* [other_s] is the rest of the workers' busy time (canonicalization,
       deque traffic), so idle and stealing time stay out of it *)
    Profile.report obs ~checker:"par-explore" ~states ~transitions ~elapsed
      ~busy_s:(Obs.Clock.ns_to_s (Array.fold_left ( + ) 0 busy_ns))
      prof;
    let rate = if elapsed > 0. then float_of_int states /. elapsed else 0. in
    Obs.Reporter.emit obs Obs.Record.outcome_explore
      [
        ("checker", Obs.Json.String "par-explore");
        ("jobs", Obs.Json.Int jobs);
        ("states", Obs.Json.Int states);
        ("transitions", Obs.Json.Int transitions);
        ("depth", Obs.Json.Int depth);
        ("deadlocks", Obs.Json.Int deadlocks);
        ("truncated", Obs.Json.Bool truncated);
        ( "violation",
          match first_violation with
          | None -> Obs.Json.Null
          | Some name -> Obs.Json.String name );
        ("elapsed_s", Obs.Json.Float elapsed);
        ("states_per_sec", Obs.Json.Float rate);
      ];
    (* contention attribution + Amdahl decomposition of this run *)
    let lock_stats, shard_wait_s = Obs.Contention.shard_summary (Store.Tiered.locks seen) in
    let _, deque_wait_s = Obs.Contention.shard_summary (Deque.locks deques) in
    let busy_s = Array.map Obs.Clock.ns_to_s busy_ns in
    let idle_s = Array.map Obs.Clock.ns_to_s idle_ns in
    let isum a = Array.fold_left ( + ) 0 a in
    let est = Obs.Contention.estimate ~jobs ~wall_s:elapsed ~busy_per_domain:busy_s in
    let flist a = Obs.Json.List (Array.to_list (Array.map (fun v -> Obs.Json.Float v) a)) in
    let st = Store.Tiered.stats seen in
    Obs.Reporter.emit obs Obs.Record.scaling_detail
      ([
         ("checker", Obs.Json.String "par-explore");
         ("states", Obs.Json.Int states);
         ("transitions", Obs.Json.Int transitions);
         ("states_per_sec", Obs.Json.Float rate);
       ]
      @ Obs.Contention.estimate_json est
      @ [
          ("busy_per_domain_s", flist busy_s);
          ("idle_wait_s", Obs.Json.Float (Array.fold_left ( +. ) 0. idle_s));
          ("idle_per_domain_s", flist idle_s);
          ("steals", Obs.Json.Int (isum steals));
          ("steal_fails", Obs.Json.Int (isum steal_fails));
          ("stolen_tasks", Obs.Json.Int (isum stolen_tasks));
          ("termination_probes", Obs.Json.Int (isum term_probes));
          ("lock_acquires", Obs.Json.Int lock_stats.Obs.Contention.acquires);
          ("lock_contended", Obs.Json.Int lock_stats.Obs.Contention.contended);
          ("lock_wait_s", Obs.Json.Float (Obs.Clock.ns_to_s lock_stats.Obs.Contention.wait_ns));
          ( "lock_max_wait_s",
            Obs.Json.Float (Obs.Clock.ns_to_s lock_stats.Obs.Contention.max_wait_ns) );
          ("shard_wait_s", flist shard_wait_s);
          ("deque_wait_s", Obs.Json.Float (Array.fold_left ( +. ) 0. deque_wait_s));
          (* tiered-store spill attribution *)
          ("mem_budget", Obs.Json.Int (Store.Tiered.mem_budget seen));
          ("bytes_resident", Obs.Json.Int st.Store.Tiered.resident_bytes);
          ( "bytes_resident_per_shard",
            int_list (Store.Tiered.resident_bytes_per_shard seen) );
          ("peak_bytes_resident", Obs.Json.Int st.Store.Tiered.peak_resident_bytes);
          ("spills", Obs.Json.Int st.Store.Tiered.spills);
          ("merges", Obs.Json.Int st.Store.Tiered.merges);
          ("segments", Obs.Json.Int st.Store.Tiered.segments);
          ("spilled_entries", Obs.Json.Int st.Store.Tiered.spilled_entries);
          ( "spilled_states",
            Obs.Json.Int (max 0 (Store.Tiered.count seen - st.Store.Tiered.resident_entries))
          );
          ("disk_bytes", Obs.Json.Int st.Store.Tiered.disk_bytes);
          ("disk_probes", Obs.Json.Int st.Store.Tiered.disk_probes);
          ("disk_hits", Obs.Json.Int st.Store.Tiered.disk_hits);
          ("bloom_checks", Obs.Json.Int st.Store.Tiered.bloom_checks);
          ("bloom_negatives", Obs.Json.Int st.Store.Tiered.bloom_negatives);
          ("segment_mem_bytes", Obs.Json.Int st.Store.Tiered.segment_mem_bytes);
        ])
  end;
  (* certificate writers read the store after the run settles but before
     it goes out of scope (the snapshot above already flushed nothing:
     the store is complete in RAM + segments at this point) *)
  (match on_store with None -> () | Some f -> f seen);
  { Explore.states; transitions; depth; deadlocks; truncated; violation; elapsed; covered = [] }

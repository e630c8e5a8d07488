(* Exhaustive explicit-state exploration.

   Breadth-first search over the CIMP system's reachable states, evaluating
   every supplied invariant at every state.  This is the executable
   substitute for the paper's induction over the reachable-state set
   (Section 3.2): on a bounded instance it *is* that induction, carried out
   by enumeration, and it additionally produces a shortest counterexample
   schedule when an invariant fails.

   This module holds the outcome type and its rendering, which the engine
   (Par_explore) shares, plus [run], the exact reference BFS, the only
   loop that records coverage. *)

type ('a, 'v, 's) outcome = {
  states : int;  (* distinct states visited *)
  transitions : int;  (* transitions traversed *)
  depth : int;  (* BFS depth reached *)
  deadlocks : int;  (* states with no successors *)
  truncated : bool;  (* hit max_states before closure *)
  violation : ('a, 'v, 's) Trace.t option;  (* first (shortest) violation *)
  elapsed : float;  (* seconds *)
  covered : (int * Cimp.Label.t) list;
      (* (pid, label) pairs that fired, when the reference BFS tracks
         coverage: program locations never exercised indicate dead model
         code *)
}

let pp_outcome ppf o =
  Fmt.pf ppf "states=%d transitions=%d depth=%d deadlocks=%d%s %s (%.2fs)" o.states o.transitions
    o.depth o.deadlocks
    (if o.truncated then " TRUNCATED" else "")
    (match o.violation with None -> "all invariants hold" | Some t -> "VIOLATION: " ^ t.Trace.broken)
    o.elapsed

(* Coverage diffs must be stable across runs, so order deterministically:
   by pid, then label. *)
let sort_coverage pairs =
  List.sort
    (fun (p1, l1) (p2, l2) ->
      match compare (p1 : int) p2 with 0 -> Cimp.Label.compare l1 l2 | c -> c)
    pairs

let coverage_gaps sys ~covered =
  let fired = Hashtbl.create 256 in
  List.iter (fun pair -> Hashtbl.replace fired pair ()) covered;
  let gaps = ref [] in
  for p = 0 to Cimp.System.n_procs sys - 1 do
    let labels =
      List.concat_map Cimp.Com.labels (Cimp.System.proc sys p).Cimp.Com.stack
    in
    List.iter
      (fun l ->
        if not (Hashtbl.mem fired (p, l)) then begin
          Hashtbl.replace fired (p, l) ();  (* dedupe within the program *)
          gaps := (p, l) :: !gaps
        end)
      labels
  done;
  sort_coverage !gaps

(* The exact reference BFS.  [invariants] are (name, predicate) pairs
   checked at every state, including the initial one.  Stops at the first
   violation (BFS order makes it a shortest one).  The production engine
   is Par_explore; this loop stays because its seen-set is exact — keyed
   by structural equality, not by a 63-bit hash — so the cross-check
   harness and the equivalence tests compare the engine against it.

   With [normal_form] (default), states are explored in the definite-tau
   normal form (Cimp.System.normalize): runs of deterministic local
   register/control steps — unobservable by other processes — execute
   eagerly, so invariants are evaluated at atomic-action boundaries only.
   This is the evaluation-context atomicity coarsening of Section 3. *)
let run ?(max_states = 1_000_000) ?(normal_form = true) ?(track_coverage = false) ?reducer
    ~invariants initial =
  let norm sys = if normal_form then Cimp.System.normalize sys else sys in
  let fp_of sys = Reducer.fp_of reducer sys in
  let canon sys = Reducer.canon_of reducer sys in
  let initial = norm initial in
  let coverage = Hashtbl.create (if track_coverage then 512 else 1) in
  let record_event ev =
    if track_coverage then begin
      match ev with
      | Cimp.System.Tau (p, l) -> Hashtbl.replace coverage (p, l) ()
      | Cimp.System.Rendezvous { requester; req_label; responder; resp_label } ->
        Hashtbl.replace coverage (requester, req_label) ();
        Hashtbl.replace coverage (responder, resp_label) ()
    end
  in
  let t0 = Obs.Clock.monotonic_ns () in
  let seen = Fingerprint.Table.create 65536 in
  (* Parent pointers for trace reconstruction: fingerprint + event only;
     counterexamples are rebuilt by bounded replay (walk the fingerprint
     chain back to the root, then re-execute the recorded events forward
     from [initial]). *)
  let parent = Fingerprint.Table.create 65536 in
  let q = Queue.create () in
  let states = ref 0 in
  let transitions = ref 0 in
  let deadlocks = ref 0 in
  let depth = ref 0 in
  let truncated = ref false in
  let violation = ref None in
  let invariants = Profile.create ~live:false invariants in
  let reconstruct fp broken =
    (* Walk parent pointers back to the root, then replay the recorded
       events forward from [initial] ({!Trace.replay}); cost is
       O(depth * branching). *)
    let rec back fp acc =
      match Fingerprint.Table.find_opt parent fp with
      | None -> acc
      | Some (pfp, event) -> back pfp ((fp, event) :: acc)
    in
    let chain = back fp [] in
    (* replay through canonical representatives (root included): the
       recorded events were generated from them, so later steps must
       re-take the same path (fingerprints are canon-invariant) *)
    let initial = canon initial in
    match
      Trace.replay
        ~norm:(fun s -> canon (norm s))
        ~lands:(fun s' fp' -> Fingerprint.equal (fp_of s') fp')
        initial chain
    with
    | Ok steps -> { Trace.initial; steps; broken }
    | Error _ -> invalid_arg "Explore.run: the counterexample's recorded chain does not replay"
  in
  let enqueue ~from_fp ~event ~d sys =
    let fp = fp_of sys in
    if not (Fingerprint.Table.mem seen fp) then begin
      Fingerprint.Table.add seen fp ();
      (match (from_fp, event) with
      | Some pfp, Some ev -> Fingerprint.Table.add parent fp (pfp, ev)
      | _ -> ());
      incr states;
      if d > !depth then depth := d;
      (* expand (and evaluate) the executable canonical representative,
         not whichever concrete state arrived first: the explored graph
         is then the quotient graph, independent of arrival order *)
      let sys = canon sys in
      (match !violation with
      | Some _ -> ()
      | None -> (
        match Profile.check invariants sys with
        | -1 -> ()
        | i -> violation := Some (reconstruct fp (Profile.name invariants i))));
      Queue.add (fp, sys, d) q
    end
  in
  enqueue ~from_fp:None ~event:None ~d:0 initial;
  (* Successor scan that stops at the state cap: once [max_states]
     distinct states exist, further successors are neither scanned nor
     enqueued, and the BFS loop below terminates instead of draining the
     remaining frontier (which could add nothing: invariants are checked
     at insertion time). *)
  let rec expand fp d = function
    | [] -> ()
    | (event, sys') :: rest ->
      if !states >= max_states then truncated := true
      else begin
        incr transitions;
        record_event event;
        enqueue ~from_fp:(Some fp) ~event:(Some event) ~d:(d + 1) (norm sys');
        expand fp d rest
      end
  in
  while not (Queue.is_empty q) && !violation = None && not !truncated do
    let fp, sys, d = Queue.pop q in
    let succs = Reducer.succs_of reducer sys in
    if succs = [] then incr deadlocks;
    expand fp d succs
  done;
  {
    states = !states;
    transitions = !transitions;
    depth = !depth;
    deadlocks = !deadlocks;
    truncated = !truncated;
    violation = !violation;
    elapsed = Obs.Clock.elapsed_s ~since:t0;
    covered = sort_coverage (Hashtbl.fold (fun k () acc -> k :: acc) coverage []);
  }

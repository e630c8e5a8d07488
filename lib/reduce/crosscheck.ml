(* Soundness cross-check harness; crosscheck.mli states the rules.

   Automation earns trust only when the reduced, parallel, spilled and
   resumed checks are demonstrably equivalent to the exact one
   (Hawblitzel & Petrank).  Why the signatures must agree: our reducers
   preserve shortest-trace distances (symmetry permutes whole paths, the
   POR rule only reorders independent transitions within a path), so
   both BFS runs find equal-length counterexamples; the engine's
   determinism contract (Par_explore) gives the minimal violating depth
   and, on clean closed runs, the reference's exact counts, so a
   fingerprint collision shows as a count mismatch; the tiered store is
   exact and a snapshot is the whole exploration state. *)

type signature = {
  violation : (string * int) option;
  states : int;
  transitions : int;
  depth : int;
  truncated : bool;
}

let signature (o : _ Check.Explore.outcome) =
  {
    violation =
      Option.map
        (fun tr -> (tr.Check.Trace.broken, Check.Trace.length tr))
        o.Check.Explore.violation;
    states = o.Check.Explore.states;
    transitions = o.Check.Explore.transitions;
    depth = o.Check.Explore.depth;
    truncated = o.Check.Explore.truncated;
  }

type kind =
  | Engine of { reduced : bool }
  | Spill of { budget : int }
  | Resume of { budget : int; snapshot : int; frontier : int }

type leg = { kind : kind; jobs : int; signature : signature }

let leg_name l =
  match l.kind with
  | Engine { reduced } -> Fmt.str "jobs=%d %s" l.jobs (if reduced then "reduced" else "unreduced")
  | Spill { budget } -> Fmt.str "spill jobs=%d budget=%d" l.jobs budget
  | Resume { budget; _ } -> Fmt.str "resume budget=%d" budget

type ('a, 'v, 's) result = {
  reduce : string;
  full : signature;
  reduced : signature;
  legs : leg list;
  aborted : string list;
  counterexample : ('a, 'v, 's) Check.Trace.t option;
}

(* the crosscheck record: the reference pair side by side *)
let emit obs ~reduce ~elapsed full reduced =
  let open Obs.Json in
  let opt f = function None -> Null | Some v -> f v in
  let fields =
    [
      ("states", fun s -> Int s.states);
      ("transitions", fun s -> Int s.transitions);
      ("truncated", fun s -> Bool s.truncated);
      ("violation", fun s -> opt (fun (inv, _) -> String inv) s.violation);
      ("ce_length", fun s -> opt (fun (_, n) -> Int n) s.violation);
    ]
  in
  let pair (k, f) = [ ("full_" ^ k, f full); ("reduced_" ^ k, f reduced) ] in
  Obs.Reporter.emit obs Obs.Record.crosscheck
    ((("reduce", String reduce) :: List.concat_map pair fields) @ [ ("elapsed_s", Float elapsed) ])

exception Snapshot_published

let run ?max_states ?normal_form ?(obs = Obs.Reporter.null) ?(jobs = 1) ?mem_budget ~reducer
    ~invariants initial =
  let t0 = Obs.Clock.monotonic_ns () in
  let reference ?reducer () =
    signature (Check.Explore.run ?max_states ?normal_form ?reducer ~invariants initial)
  in
  let full = reference () in
  let reduced = reference ~reducer () in
  emit obs ~reduce:reducer.Check.Reducer.name ~elapsed:(Obs.Clock.elapsed_s ~since:t0) full reduced;
  let engine ?reducer ?mem_budget ?spill_dir ?hooks ?checkpoint ?resume jobs =
    Check.Par_explore.run ~jobs ?max_states ?normal_form ?reducer ?mem_budget ?spill_dir ?hooks
      ?checkpoint ?resume ~invariants initial
  in
  let engine_leg ~reduced jobs =
    let o = engine ?reducer:(if reduced then Some reducer else None) jobs in
    ({ kind = Engine { reduced }; jobs; signature = signature o }, o.Check.Explore.violation)
  in
  let unreduced_1, _ = engine_leg ~reduced:false 1 in
  let reduced_1, counterexample = engine_leg ~reduced:true 1 in
  let at_jobs =
    if jobs > 1 then List.map (fun reduced -> fst (engine_leg ~reduced jobs)) [ false; true ]
    else []
  in
  (* the resume leg: a one-worker budgeted run stops once its first
     snapshot is published (the interval, half the reference's states,
     puts it mid-run on any instance); a second run rebuilds that
     snapshot's frontier and explores the remainder *)
  let resume_leg root budget =
    let dir = Filename.concat root "checkpoint" in
    let stop ~worker:_ ~depth:_ =
      if Sys.file_exists (Filename.concat dir "MANIFEST.json") then raise Snapshot_published
    in
    match
      engine ~mem_budget:budget ~spill_dir:(Filename.concat root "interrupted")
        ~hooks:{ Check.Par_explore.no_hooks with on_expand = stop }
        ~checkpoint:(dir, max 1 (full.states / 2))
        1
    with
    | _ -> Error "resume: the run closed before its first snapshot"
    | exception Snapshot_published -> (
      let spill_dir = Filename.concat root "resumed" in
      match Store.Checkpoint.load ~mem_budget:budget ~spill_dir dir with
      | Error msg -> Error ("resume: cannot load the checkpoint: " ^ msg)
      | Ok snap -> (
        let frontier =
          Array.fold_left (fun n l -> n + List.length l) 0 snap.Store.Checkpoint.frontier
        in
        let kind = Resume { budget; snapshot = snap.Store.Checkpoint.seq; frontier } in
        match engine ~resume:snap 1 with
        | o -> Ok { kind; jobs = 1; signature = signature o }
        | exception Invalid_argument msg -> Error ("resume: " ^ msg)))
  in
  let store_legs, aborted =
    match mem_budget with
    | None -> ([], [])
    | Some budget -> (
      let root = Store.Fs.temp_dir "gcmodel-crosscheck" in
      Fun.protect ~finally:(fun () -> Store.Fs.rm_rf root) @@ fun () ->
      let spill jobs =
        let spill_dir = Filename.concat root (Fmt.str "spill-%d" jobs) in
        let o = engine ~mem_budget:budget ~spill_dir jobs in
        { kind = Spill { budget }; jobs; signature = signature o }
      in
      let spills = [ spill 1; spill 4 ] in
      match resume_leg root budget with
      | Ok leg -> (spills @ [ leg ], [])
      | Error msg -> (spills, [ msg ]))
  in
  let legs = (unreduced_1 :: reduced_1 :: at_jobs) @ store_legs in
  { reduce = reducer.Check.Reducer.name; full; reduced; legs; aborted; counterexample }

let closed_clean s = s.violation = None && not s.truncated

(* The reference a leg's counts and depth are held to, if any: the one
   with the same reduction, when clean and closed; reduced legs at one
   worker only (DESIGN.md §8's count-wobble rule). *)
let counts_reference r l =
  match l.kind with
  | Engine { reduced = true } ->
    if closed_clean r.reduced && l.jobs = 1 then Some r.reduced else None
  | _ -> if closed_clean r.full then Some r.full else None

let pp_signature ppf s =
  match s.violation with
  | None -> Fmt.pf ppf "clean, %d states" s.states
  | Some (inv, n) -> Fmt.pf ppf "violates %s, counterexample length %d" inv n

(* A leg's "... equivalence OK" line, or its mismatch. *)
let check r l =
  let s = l.signature and name = leg_name l in
  let counts = counts_reference r l in
  match (counts, l.kind) with
  | _ when s.violation <> r.full.violation ->
    Error (Fmt.str "%s: %a, but reference: %a" name pp_signature s pp_signature r.full)
  | Some c, _
    when (s.states, s.transitions, s.depth, s.truncated)
         <> (c.states, c.transitions, c.depth, false) ->
    Error
      (Fmt.str "%s: %d states, %d transitions, depth %d%s, but reference: %d, %d, depth %d" name
         s.states s.transitions s.depth
         (if s.truncated then " (truncated)" else "")
         c.states c.transitions c.depth)
  | _, Resume { frontier = 0; snapshot; _ } ->
    Error (Fmt.str "%s: snapshot %d has an empty frontier, nothing to resume" name snapshot)
  | _, Engine { reduced } ->
    Ok
      (Fmt.str "jobs equivalence OK (jobs=%d, %s)%s" l.jobs
         (if reduced then "reduced" else "unreduced")
         (if counts = None then ""
          else Fmt.str ": %d states, %d transitions" s.states s.transitions))
  | _, Spill { budget } ->
    Ok (Fmt.str "spill equivalence OK (jobs=%d, budget=%d): %a" l.jobs budget pp_signature s)
  | _, Resume { budget; snapshot; frontier } ->
    Ok
      (Fmt.str "resume equivalence OK (budget=%d, snapshot %d, frontier %d): %a" budget snapshot
         frontier pp_signature s)

let verdict s = match s.violation with None -> "ok" | Some (inv, _) -> inv

let errors r =
  let e = ref [] in
  let add fmt = Printf.ksprintf (fun s -> e := s :: !e) fmt in
  if r.full.truncated then
    add "full run truncated: instance does not close, cross-check is vacuous";
  if r.reduced.truncated then add "reduced run truncated";
  if verdict r.full <> verdict r.reduced then
    add "verdict mismatch: full=%s reduced=%s" (verdict r.full) (verdict r.reduced);
  if r.reduced.states > r.full.states then
    add "reduced visited MORE states than full: %d > %d" r.reduced.states r.full.states;
  (match (r.full.violation, r.reduced.violation) with
  | Some (_, f), Some (_, g) when g <> f ->
    add "counterexample length mismatch: full=%d reduced=%d" f g
  | _ -> ());
  let leg_error l = match check r l with Ok _ -> None | Error msg -> Some msg in
  List.rev !e @ List.filter_map leg_error r.legs @ r.aborted

let pp ppf r =
  let saved = r.full.states - r.reduced.states in
  let shrink =
    if r.full.states > 0 then 100. *. float_of_int saved /. float_of_int r.full.states else 0.
  in
  Fmt.pf ppf "reduce=%s states %d -> %d (%.1f%% saved) verdict full=%s reduced=%s%s" r.reduce
    r.full.states r.reduced.states shrink (verdict r.full) (verdict r.reduced)
    (match (r.full.violation, r.reduced.violation) with
    | Some (_, f), Some (_, g) -> Printf.sprintf " ce %d/%d" f g
    | _ -> "");
  List.iter (fun l -> Result.iter (Fmt.pf ppf "@\n%s") (check r l)) r.legs

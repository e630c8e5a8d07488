(* Soundness cross-check harness: run reduced and unreduced exploration
   on the same instance and compare what must agree.

   Automation earns trust only when the reduced check is demonstrably
   equivalent to the full one (Hawblitzel & Petrank), so the harness is
   part of the subsystem, not an afterthought: the differential test
   suite and the `gcmodel crosscheck` CLI both go through here.

   What must agree on a closing (non-truncated) instance:
   - the verdict (violation found or not);
   - the violated invariant's name;
   - the counterexample length: our reducers preserve shortest-trace
     distances (symmetry permutes whole paths; the POR rule only
     reorders independent transitions within a path), so under BFS both
     explorations find equal-length counterexamples;
   - reduced distinct states <= full distinct states. *)

type result = {
  reduce : string;  (* the reducer's name *)
  full_states : int;
  reduced_states : int;
  full_transitions : int;
  reduced_transitions : int;
  full_truncated : bool;
  reduced_truncated : bool;
  full_violation : string option;
  reduced_violation : string option;
  full_ce_length : int option;
  reduced_ce_length : int option;
  elapsed : float;
}

let ce_length (o : _ Check.Explore.outcome) =
  Option.map (fun tr -> List.length tr.Check.Trace.steps) o.Check.Explore.violation

let run ?max_states ?normal_form ?(obs = Obs.Reporter.null) ~reducer ~invariants initial =
  let t0 = Unix.gettimeofday () in
  let full = Check.Explore.run ?max_states ?normal_form ~invariants initial in
  let reduced = Check.Explore.run ?max_states ?normal_form ~reducer ~invariants initial in
  let broken (o : _ Check.Explore.outcome) =
    Option.map (fun tr -> tr.Check.Trace.broken) o.Check.Explore.violation
  in
  let r =
    {
      reduce = reducer.Check.Reducer.name;
      full_states = full.Check.Explore.states;
      reduced_states = reduced.Check.Explore.states;
      full_transitions = full.Check.Explore.transitions;
      reduced_transitions = reduced.Check.Explore.transitions;
      full_truncated = full.Check.Explore.truncated;
      reduced_truncated = reduced.Check.Explore.truncated;
      full_violation = broken full;
      reduced_violation = broken reduced;
      full_ce_length = ce_length full;
      reduced_ce_length = ce_length reduced;
      elapsed = Unix.gettimeofday () -. t0;
    }
  in
  if Obs.Reporter.enabled obs then begin
    let opt_str = function None -> Obs.Json.Null | Some s -> Obs.Json.String s in
    let opt_int = function None -> Obs.Json.Null | Some i -> Obs.Json.Int i in
    Obs.Reporter.emit obs Obs.Record.crosscheck
      [
        ("reduce", Obs.Json.String r.reduce);
        ("full_states", Obs.Json.Int r.full_states);
        ("reduced_states", Obs.Json.Int r.reduced_states);
        ("full_transitions", Obs.Json.Int r.full_transitions);
        ("reduced_transitions", Obs.Json.Int r.reduced_transitions);
        ("full_truncated", Obs.Json.Bool r.full_truncated);
        ("reduced_truncated", Obs.Json.Bool r.reduced_truncated);
        ("full_violation", opt_str r.full_violation);
        ("reduced_violation", opt_str r.reduced_violation);
        ("full_ce_length", opt_int r.full_ce_length);
        ("reduced_ce_length", opt_int r.reduced_ce_length);
        ("elapsed_s", Obs.Json.Float r.elapsed);
      ]
  end;
  r

(* Mismatch descriptions; [] means the cross-check passed. *)
let errors r =
  let e = ref [] in
  let add fmt = Printf.ksprintf (fun s -> e := s :: !e) fmt in
  if r.full_truncated then add "full run truncated: instance does not close, cross-check is vacuous";
  if r.reduced_truncated then add "reduced run truncated";
  if r.full_violation <> r.reduced_violation then
    add "verdict mismatch: full=%s reduced=%s"
      (Option.value ~default:"ok" r.full_violation)
      (Option.value ~default:"ok" r.reduced_violation);
  if r.reduced_states > r.full_states then
    add "reduced visited MORE states than full: %d > %d" r.reduced_states r.full_states;
  (match (r.full_ce_length, r.reduced_ce_length) with
  | Some f, Some g when g <> f ->
    add "counterexample length mismatch: full=%d reduced=%d" f g
  | _ -> ());
  List.rev !e

let pp ppf r =
  let shrink =
    if r.full_states > 0 then
      100. *. float_of_int (r.full_states - r.reduced_states) /. float_of_int r.full_states
    else 0.
  in
  Fmt.pf ppf "reduce=%s states %d -> %d (%.1f%% saved) verdict full=%s reduced=%s%s" r.reduce
    r.full_states r.reduced_states shrink
    (Option.value ~default:"ok" r.full_violation)
    (Option.value ~default:"ok" r.reduced_violation)
    (match (r.full_ce_length, r.reduced_ce_length) with
    | Some f, Some g -> Printf.sprintf " ce %d/%d" f g
    | _ -> "")

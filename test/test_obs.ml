(* Tests for the observability layer: the JSON codec, atomic counters
   under real domains, reporter sinks and spec parsing, the record
   declarations and their emit-time check, Trace JSON export round-trips,
   and the instrumentation wired into the checkers and the multicore
   harness. *)

open Cimp

type com = (int, int, int) Com.t

let proc c data = Com.make [ c ] data

(* -- Json -------------------------------------------------------------------- *)

let rec json_equal (a : Obs.Json.t) (b : Obs.Json.t) =
  match (a, b) with
  | Obs.Json.Null, Obs.Json.Null -> true
  | Obs.Json.Bool x, Obs.Json.Bool y -> x = y
  | Obs.Json.Int x, Obs.Json.Int y -> x = y
  | Obs.Json.Float x, Obs.Json.Float y -> abs_float (x -. y) < 1e-9
  | Obs.Json.Int x, Obs.Json.Float y | Obs.Json.Float y, Obs.Json.Int x ->
    abs_float (float_of_int x -. y) < 1e-9
  | Obs.Json.String x, Obs.Json.String y -> x = y
  | Obs.Json.List xs, Obs.Json.List ys ->
    List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | Obs.Json.Obj xs, Obs.Json.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k1, v1) (k2, v2) -> k1 = k2 && json_equal v1 v2) xs ys
  | _ -> false

let json : Obs.Json.t Alcotest.testable =
  Alcotest.testable (Fmt.of_to_string Obs.Json.to_string) json_equal

let parse_exn s =
  match Obs.Json.of_string s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "parse %S: %s" s msg

let test_json_roundtrip () =
  let v =
    Obs.Json.(
      Obj
        [
          ("null", Null);
          ("bool", Bool true);
          ("int", Int (-42));
          ("float", Float 1.5);
          ("string", String "quote \" backslash \\ newline \n tab \t unicode \xc3\xa9");
          ("list", List [ Int 1; String "two"; Obj [ ("three", Bool false) ] ]);
          ("empty_obj", Obj []);
          ("empty_list", List []);
        ])
  in
  Alcotest.check json "print/parse round-trip" v (parse_exn (Obs.Json.to_string v));
  Alcotest.check json "pretty-print/parse round-trip" v
    (parse_exn (Obs.Json.to_string_pretty v))

let test_json_parses_plain_forms () =
  Alcotest.check json "exponent" (Obs.Json.Float 1000.) (parse_exn "1e3");
  Alcotest.check json "negative float" (Obs.Json.Float (-2.5)) (parse_exn "-2.5");
  Alcotest.check json "escaped unicode" (Obs.Json.String "\xc2\xa9") (parse_exn {|"©"|});
  Alcotest.check json "whitespace tolerated"
    (Obs.Json.Obj [ ("a", Obs.Json.List [ Obs.Json.Int 1 ]) ])
    (parse_exn " { \"a\" : [ 1 ] } ")

let test_json_rejects_garbage () =
  let bad s =
    match Obs.Json.of_string s with
    | Ok _ -> Alcotest.failf "parser accepted %S" s
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":}";
  bad "1 2";
  bad "tru";
  bad "\"unterminated"

let test_json_nonfinite_floats () =
  (* non-finite floats must not produce unparseable output *)
  let s = Obs.Json.to_string (Obs.Json.List [ Obs.Json.Float nan; Obs.Json.Float infinity ]) in
  match Obs.Json.of_string s with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "nan/inf serialization unparseable (%s): %s" s msg

(* -- Metrics ----------------------------------------------------------------- *)

let test_atomic_counter_under_domains () =
  let c = Obs.Metrics.acounter () in
  let per_domain = 10_000 in
  let worker () =
    for _ = 1 to per_domain do
      Obs.Metrics.aincr c
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  Alcotest.(check int) "4 domains x 10k increments" (4 * per_domain) (Obs.Metrics.acount c)

(* -- Reporter ---------------------------------------------------------------- *)

let experiment title =
  [ ("name", Obs.Json.String "E0"); ("title", Obs.Json.String title) ]

let test_reporter_memory_sink () =
  Alcotest.(check bool) "null is disabled" false (Obs.Reporter.enabled Obs.Reporter.null);
  let obs, dump = Obs.Reporter.memory () in
  Alcotest.(check bool) "memory is enabled" true (Obs.Reporter.enabled obs);
  Obs.Reporter.emit obs Obs.Record.experiment (experiment "ping");
  (match dump () with
  | [ Obs.Json.Obj ping ] ->
    Alcotest.check json "event name" (Obs.Json.String "experiment") (List.assoc "event" ping);
    Alcotest.(check bool) "base fields present" true
      (List.mem_assoc "ts" ping && List.mem_assoc "rel_s" ping)
  | records -> Alcotest.failf "expected 1 record, got %d" (List.length records));
  Obs.Reporter.close obs;
  Alcotest.(check bool) "closed reporter is disabled" false (Obs.Reporter.enabled obs);
  Obs.Reporter.emit obs Obs.Record.experiment (experiment "late");
  Alcotest.(check int) "emits after close are dropped" 1 (List.length (dump ()))

let test_reporter_spec_parsing () =
  (match Obs.Reporter.of_spec "off" with
  | Ok t -> Alcotest.(check bool) "off is disabled" false (Obs.Reporter.enabled t)
  | Error msg -> Alcotest.fail msg);
  (match Obs.Reporter.of_spec "nonsense" with
  | Ok _ -> Alcotest.fail "bad spec accepted"
  | Error _ -> ());
  let path = Filename.temp_file "obs_spec" ".jsonl" in
  (match Obs.Reporter.of_spec ("json:" ^ path) with
  | Ok t ->
    Obs.Reporter.emit t Obs.Record.experiment (experiment "hello");
    Obs.Reporter.close t;
    let ic = open_in path in
    let line = input_line ic in
    close_in ic;
    ignore (parse_exn line)
  | Error msg -> Alcotest.fail msg);
  Sys.remove path

(* -- Trace JSON export ------------------------------------------------------- *)

let test_event_json_roundtrip () =
  let check_event ev =
    let trace =
      Obs.Json.Obj
        [ ("broken", Obs.Json.String "inv"); ("schedule", Obs.Json.List [ Check.Trace.event_to_json ev ]) ]
    in
    match Check.Trace.schedule_of_json trace with
    | Ok (_, [ ev' ]) -> Alcotest.(check bool) "event survives the round-trip" true (ev = ev')
    | Ok _ -> Alcotest.fail "one event in, not one out"
    | Error msg -> Alcotest.fail msg
  in
  check_event (System.Tau (0, Label.v "mark"));
  check_event
    (System.Rendezvous
       {
         requester = 1;
         req_label = Label.v "req-read";
         responder = 0;
         resp_label = Label.v "serve-read";
       })

let test_trace_json_roundtrip () =
  (* a deterministic 3-step violation gives a non-trivial schedule *)
  let p : com =
    Com.seq
      [
        Com.Local_op (Label.v "a", fun s -> [ s + 1 ]);
        Com.Local_op (Label.v "b", fun s -> [ s * 2 ]);
        Com.Local_op (Label.v "c", fun s -> [ s + 5 ]);
      ]
  in
  let sys = System.make [| "p" |] [| proc p 3 |] in
  let o =
    Check.Explore.run ~normal_form:false
      ~invariants:[ ("never-13", fun sys -> (System.proc sys 0).Com.data <> 13) ]
      sys
  in
  match o.Check.Explore.violation with
  | None -> Alcotest.fail "13 = (3+1)*2+5 must be reached"
  | Some tr -> (
    let reparsed = parse_exn (Obs.Json.to_string (Check.Trace.to_json tr)) in
    match Check.Trace.schedule_of_json reparsed with
    | Error msg -> Alcotest.fail msg
    | Ok (broken, schedule) ->
      Alcotest.(check string) "broken invariant survives" "never-13" broken;
      let original = List.map (fun (s : _ Check.Trace.step) -> s.Check.Trace.event) tr.Check.Trace.steps in
      Alcotest.(check bool) "schedule survives" true (schedule = original))

(* -- Checker instrumentation ------------------------------------------------- *)

let record_fields name = function
  | Obs.Json.Obj fields -> fields
  | j -> Alcotest.failf "%s record is not an object: %s" name (Obs.Json.to_string j)

let records_of_event name records =
  List.filter_map
    (fun r ->
      let fields = record_fields name r in
      match List.assoc_opt "event" fields with
      | Some (Obs.Json.String e) when e = name -> Some fields
      | _ -> None)
    records

let int_field fields k =
  match List.assoc_opt k fields with
  | Some (Obs.Json.Int n) -> n
  | Some j -> Alcotest.failf "field %s is not an int: %s" k (Obs.Json.to_string j)
  | None -> Alcotest.failf "field %s missing" k

let test_explore_per_invariant_evals () =
  (* on the baseline scenario every invariant is evaluated at every
     visited state, and the per-run records are written once whatever
     the number of workers: one record per invariant, evals == states *)
  let n_invariants = List.length (Core.Scenario.invariants Core.Scenario.baseline) in
  List.iter
    (fun jobs ->
      let obs, dump = Obs.Reporter.memory () in
      let o = Core.Scenario.explore ~jobs ~obs Core.Scenario.baseline in
      Obs.Reporter.close obs;
      let records = dump () in
      let inv_records = records_of_event "invariant" records in
      Alcotest.(check int)
        (Fmt.str "jobs=%d: one record per invariant" jobs)
        n_invariants (List.length inv_records);
      List.iter
        (fun fields ->
          Alcotest.(check int)
            (Fmt.str "jobs=%d: invariant %s evaluated at every state" jobs
               (match List.assoc_opt "name" fields with
               | Some (Obs.Json.String n) -> n
               | _ -> "?"))
            o.Check.Explore.states (int_field fields "evals"))
        inv_records;
      let outcomes = records_of_event "outcome" records in
      Alcotest.(check int) (Fmt.str "jobs=%d: one outcome record" jobs) 1 (List.length outcomes);
      Alcotest.(check int)
        (Fmt.str "jobs=%d: outcome states agrees with the result" jobs)
        o.Check.Explore.states
        (int_field (List.hd outcomes) "states");
      Alcotest.(check int)
        (Fmt.str "jobs=%d: one profile record" jobs)
        1
        (List.length (records_of_event "profile" records)))
    [ 1; 2; 4 ]

(* An explorer fingerprints every successor, so its [reduction] record
   carries the reducer's three counters. *)
let test_explore_reduction_record () =
  let sc =
    Core.Scenario.make ~label:"reduced" ~n_muts:2 ~n_refs:2 ~shape:"single" ~max_mut_ops:1 ()
  in
  let reducer = Option.get (Core.Reduction.reducer sc.Core.Scenario.cfg Reduce.Mode.All) in
  let obs, dump = Obs.Reporter.memory () in
  let o =
    Check.Par_explore.run ~jobs:1 ~obs ~reducer ~invariants:(Core.Scenario.invariants sc)
      (Core.Scenario.model sc).Core.Model.system
  in
  Obs.Reporter.close obs;
  match records_of_event "reduction" (dump ()) with
  | [ r ] ->
    Alcotest.(check int) "states" o.Check.Explore.states (int_field r "states");
    List.iter
      (fun (field, counter) ->
        Alcotest.(check int) (field ^ ": the reducer's") (Atomic.get counter) (int_field r field))
      Check.Reducer.
        [
          ("sym_permuted", reducer.sym_permuted);
          ("reg_nulled", reducer.reg_nulled);
          ("deferred_transitions", reducer.deferred);
        ];
    Alcotest.(check bool) "the symmetry sort moved some state" true
      (int_field r "sym_permuted" > 0)
  | l -> Alcotest.failf "expected one reduction record, got %d" (List.length l)

(* A swarm writes its per-run records once: one [invariant] record per
   invariant, evaluated at every step, and one [reduction] record with
   the swarm's total steps and the shared reducer's deferral counter
   after the join (a walk never fingerprints, so the two
   canonicalization counters are left out, not written as 0); each
   walker keeps its own [profile] and [outcome] records, tagged with its
   domain. *)
let test_swarm_records_once () =
  let sc = Core.Scenario.make ~label:"swarm" ~n_refs:2 ~shape:"single" ~max_mut_ops:1 () in
  let invariants = Core.Scenario.invariants sc in
  let reducer = Option.get (Core.Reduction.reducer sc.Core.Scenario.cfg Reduce.Mode.All) in
  let obs, dump = Obs.Reporter.memory () in
  let o =
    Check.Random_walk.swarm ~jobs:3 ~steps:3_000 ~obs ~reducer ~invariants
      (Core.Scenario.model sc).Core.Model.system
  in
  Obs.Reporter.close obs;
  let records = dump () in
  Alcotest.(check bool) "no violation" true (o.Check.Random_walk.violation = None);
  let inv_records = records_of_event "invariant" records in
  Alcotest.(check int) "one record per invariant" (List.length invariants)
    (List.length inv_records);
  (* the root is checked by each walker, and every step once *)
  List.iter
    (fun fields ->
      Alcotest.(check int) "evals: every step and each walker's root" (3_000 + 3)
        (int_field fields "evals"))
    inv_records;
  (match records_of_event "reduction" records with
  | [ r ] ->
    Alcotest.(check int) "reduction states: the swarm's total steps"
      o.Check.Random_walk.steps_taken (int_field r "states");
    Alcotest.(check int) "deferred_transitions: the reducer's after the join"
      (Atomic.get reducer.Check.Reducer.deferred)
      (int_field r "deferred_transitions");
    List.iter
      (fun field ->
        Alcotest.(check bool) (field ^ ": omitted from a walk's record") false
          (List.mem_assoc field r))
      [ "sym_permuted"; "reg_nulled" ]
  | l -> Alcotest.failf "expected one reduction record, got %d" (List.length l));
  let domains event =
    List.sort compare
      (List.filter_map
         (fun fields ->
           if List.mem_assoc "domain" fields then Some (int_field fields "domain") else None)
         (records_of_event event records))
  in
  Alcotest.(check (list int)) "one profile record per walker" [ 0; 1; 2 ] (domains "profile");
  Alcotest.(check (list int)) "one outcome record per walker" [ 0; 1; 2 ] (domains "outcome");
  Alcotest.(check int) "and the swarm's outcome" 4
    (List.length (records_of_event "outcome" records))

let test_explore_jsonl_stream () =
  let path = Filename.temp_file "obs_explore" ".jsonl" in
  let p : com = Com.Loop (Com.Local_op (Label.v "inc", fun s -> [ s + 1; s + 2 ])) in
  let sys = System.make [| "p" |] [| proc p 0 |] in
  let obs = Obs.Reporter.jsonl path in
  let o =
    Check.Par_explore.run ~max_states:500 ~heartbeat_every:100 ~obs
      ~invariants:[ ("true", fun _ -> true) ]
      sys
  in
  Obs.Reporter.close obs;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let records = List.rev_map parse_exn !lines in
  Sys.remove path;
  Alcotest.(check bool) "heartbeats streamed" true
    (List.length (records_of_event "heartbeat" records) >= 1);
  Alcotest.(check int) "one invariant record" 1
    (List.length (records_of_event "invariant" records));
  let outcome = List.hd (records_of_event "outcome" records) in
  Alcotest.(check int) "states in the stream" o.Check.Explore.states (int_field outcome "states")

let test_coverage_sorted_and_gaps () =
  let p : com =
    Com.If
      ( Label.v "branch",
        (fun s -> s = 0),
        Com.assign (Label.v "then") (fun s -> s + 1),
        Com.assign (Label.v "else") (fun s -> s - 1) )
  in
  let sys = System.make [| "p" |] [| proc p 0 |] in
  let o = Check.Explore.run ~normal_form:false ~track_coverage:true ~invariants:[] sys in
  let names = List.map (fun (p, l) -> (p, Label.name l)) in
  Alcotest.(check (list (pair int string)))
    "covered is sorted and complete"
    [ (0, "branch"); (0, "then") ]
    (names o.Check.Explore.covered);
  Alcotest.(check (list (pair int string)))
    "the dead branch is the one gap"
    [ (0, "else") ]
    (names (Check.Explore.coverage_gaps sys ~covered:o.Check.Explore.covered))

let test_random_walk_whole_run () =
  (* a single deterministic path to a violation at [depth], within one
     run (5,000 steps): the counterexample is the whole run from the
     root, also past 1,000 steps, and its schedule replays onto the
     offender *)
  let p : com = Com.Loop (Com.Local_op (Label.v "step", fun s -> [ s + 1 ])) in
  let sys = System.make [| "p" |] [| proc p 0 |] in
  let data sys = (System.proc sys 0).Com.data in
  List.iter
    (fun depth ->
      let o =
        Check.Random_walk.run ~normal_form:false ~steps:10_000
          ~invariants:[ ("below", fun sys -> data sys < depth) ]
          sys
      in
      match o.Check.Random_walk.violation with
      | None -> Alcotest.failf "the walk must reach %d" depth
      | Some tr ->
        Alcotest.(check int) "the trace is the whole run" depth (Check.Trace.length tr);
        Alcotest.(check int) "final state is the offender" depth (data (Check.Trace.final tr));
        (match
           Check.Trace.replay ~norm:Fun.id
             ~lands:(fun _ () -> true)
             tr.Check.Trace.initial
             (List.map (fun s -> ((), s.Check.Trace.event)) tr.Check.Trace.steps)
         with
        | Error i -> Alcotest.failf "the schedule diverged at event %d" (i + 1)
        | Ok steps ->
          Alcotest.(check int) "the replay lands on the offender" depth
            (data (Check.Trace.final { tr with Check.Trace.steps })));
        Alcotest.(check int) "no dead ends on an infinite path" 0 o.Check.Random_walk.restarts)
    [ 500; 1_500 ]

(* The counterexample rebuild takes the finder's run through the
   reducer's successor function again, but leaves the reducer's counters
   as the walk left them: a second walk of the same seed, stopped
   without invariants at the first walk's step count, ends on the same
   [deferred], and the first walk's [reduction] record carries it. *)
let test_walk_rebuild_keeps_counters () =
  let v = Option.get (Core.Variants.by_name "no-cas") in
  let cfg =
    v.Core.Variants.tweak
      {
        Core.Config.default with
        n_muts = 2;
        n_refs = 2;
        buf_bound = 1;
        max_cycles = 1;
        max_mut_ops = 2;
      }
  in
  let shape = Option.get (Gcheap.Shapes.by_name ~n_refs:2 ~n_fields:1 "single") in
  let sys = (Core.Model.make cfg shape).Core.Model.system in
  let invariants =
    List.map (fun i -> (i.Core.Invariants.name, i.Core.Invariants.check)) (Core.Invariants.all cfg)
  in
  let reducer () = Option.get (Core.Reduction.reducer cfg Reduce.Mode.All) in
  let first = reducer () and second = reducer () in
  let obs, dump = Obs.Reporter.memory () in
  let o = Check.Random_walk.run ~seed:42 ~steps:200_000 ~obs ~reducer:first ~invariants sys in
  Obs.Reporter.close obs;
  let steps = o.Check.Random_walk.steps_taken in
  (match o.Check.Random_walk.violation with
  | None -> Alcotest.fail "the no-cas walk must violate"
  | Some tr -> Alcotest.(check int) "the trace is the one run" steps (Check.Trace.length tr));
  ignore (Check.Random_walk.run ~seed:42 ~steps ~reducer:second ~invariants:[] sys);
  let deferred (r : _ Check.Reducer.t) = Atomic.get r.deferred in
  Alcotest.(check bool) "the walk deferred some transitions" true (deferred second > 0);
  Alcotest.(check int) "deferred: the walk's alone" (deferred second) (deferred first);
  match records_of_event "reduction" (dump ()) with
  | [ r ] ->
    Alcotest.(check int) "the record carries it" (deferred second)
      (int_field r "deferred_transitions")
  | l -> Alcotest.failf "expected one reduction record, got %d" (List.length l)

let test_random_walk_counts_restarts () =
  (* a terminating program dead-ends every walk, forcing restarts *)
  let p : com =
    Com.seq
      [
        Com.assign (Label.v "a") (fun s -> s + 1);
        Com.assign (Label.v "b") (fun s -> s + 1);
        Com.assign (Label.v "c") (fun s -> s + 1);
      ]
  in
  let sys = System.make [| "p" |] [| proc p 0 |] in
  let o = Check.Random_walk.run ~normal_form:false ~steps:50 ~invariants:[] sys in
  Alcotest.(check bool) "dead ends recorded" true (o.Check.Random_walk.restarts > 0);
  Alcotest.(check bool) "every restart is also a run" true
    (o.Check.Random_walk.runs > o.Check.Random_walk.restarts)

(* -- Runtime instrumentation ------------------------------------------------- *)

let test_harness_emits_records () =
  let obs, dump = Obs.Reporter.memory () in
  let stats = Runtime.Harness.run ~n_muts:2 ~duration:0.3 ~obs () in
  Obs.Reporter.close obs;
  let records = dump () in
  let harness = records_of_event "harness" records in
  Alcotest.(check int) "one harness record" 1 (List.length harness);
  let fields = List.hd harness in
  Alcotest.(check int) "cycle count agrees" stats.Runtime.Harness.cycles
    (int_field fields "cycles");
  Alcotest.(check int) "handshake rounds agree" stats.Runtime.Harness.hs_rounds
    (int_field fields "hs_rounds");
  (* with no coordinated-omission interval, the round histogram holds
     exactly one sample per round *)
  (match List.assoc_opt "latency" fields with
  | Some (Obs.Json.Obj latency) -> (
    match List.assoc_opt "hs_round" latency with
    | Some (Obs.Json.Obj hs_round) ->
      Alcotest.(check int) "one hs_round sample per round" stats.Runtime.Harness.hs_rounds
        (int_field hs_round "count")
    | _ -> Alcotest.fail "latency section lacks hs_round")
  | _ -> Alcotest.fail "harness record lacks its latency section");
  let cycles = records_of_event "gc-cycle" records in
  Alcotest.(check int) "one record per completed cycle" stats.Runtime.Harness.cycles
    (List.length cycles);
  List.iter
    (fun fields ->
      match List.assoc_opt "hs_latency_s" fields with
      | Some (Obs.Json.List ls) ->
        Alcotest.(check bool) "each cycle logs its handshake latencies" true
          (List.length ls > 0)
      | _ -> Alcotest.fail "gc-cycle record lacks hs_latency_s")
    cycles

(* -- Record declarations -------------------------------------------------------- *)

let test_records_refusal () =
  let obs, dump = Obs.Reporter.memory () in
  let refused what field fields =
    match Obs.Reporter.emit obs Obs.Record.experiment fields with
    | () -> Alcotest.failf "%s field %s accepted" what field
    | exception Invalid_argument msg ->
      Alcotest.(check bool) (Fmt.str "%S names the record and the field" msg) true
        (Test_certify.contains ~sub:"record experiment" msg
        && Test_certify.contains ~sub:(what ^ " field " ^ field) msg)
  in
  let name = ("name", Obs.Json.String "E0") and title = ("title", Obs.Json.String "t") in
  refused "missing" "title" [ name ];
  refused "undeclared" "id" [ name; title; ("id", Obs.Json.String "E0") ];
  refused "duplicated" "name" [ name; title; name ];
  Alcotest.(check int) "refused records are not written" 0 (List.length (dump ()));
  (* a disabled reporter drops the record before any check *)
  Obs.Reporter.emit Obs.Reporter.null Obs.Record.experiment [ name; name ];
  Obs.Reporter.close obs;
  Obs.Reporter.emit obs Obs.Record.experiment [ ("id", Obs.Json.Null) ];
  Alcotest.(check int) "closed reporter drops unchecked" 0 (List.length (dump ()))

(* One memory sink through a checkpointed, reduced parallel explore, a
   walk and a swarm, a crosscheck and the runtime harness sees every
   declaration except those emitted only by bin/ or the campaign (which
   are checked at emit there too). *)
let test_records_all_emitted () =
  let sc = Core.Scenario.make ~label:"records" ~n_refs:2 ~shape:"single" ~max_mut_ops:1 () in
  let system = (Core.Scenario.model sc).Core.Model.system in
  let invariants = Core.Scenario.invariants sc in
  let reducer = Core.Reduction.reducer sc.Core.Scenario.cfg Reduce.Mode.All in
  let dir = Store.Fs.temp_dir "gcobs-test" in
  let obs, dump = Obs.Reporter.memory () in
  Fun.protect ~finally:(fun () -> Store.Fs.rm_rf dir) (fun () ->
      ignore
        (Check.Par_explore.run ~jobs:2 ~obs ?reducer ~heartbeat_every:200
           ~checkpoint:(dir, 500) ~invariants system));
  ignore (Check.Random_walk.run ~steps:2_000 ~heartbeat_every:500 ~obs ?reducer ~invariants system);
  ignore (Check.Random_walk.swarm ~jobs:2 ~steps:2_000 ~obs ~invariants system);
  ignore (Core.Scenario.crosscheck ~obs sc);
  ignore (Runtime.Harness.run ~duration:0.2 ~obs ());
  Obs.Reporter.close obs;
  let records = List.map (record_fields "emitted") (dump ()) in
  let emitted (d : Obs.Record.t) =
    List.exists
      (fun fields ->
        let own = List.filter (fun (k, _) -> not (List.mem k [ "event"; "ts"; "rel_s" ])) fields in
        List.assoc "event" fields = Obs.Json.String d.name
        && match Obs.Record.check d own with () -> true | exception Invalid_argument _ -> false)
      records
  in
  let elsewhere =
    Obs.Record.
      [ violation; explanation; recheck; experiment; litmus; outcome_litmus; campaign; certificate ]
  in
  List.iter
    (fun (d : Obs.Record.t) ->
      if not (List.memq d elsewhere) then
        Alcotest.(check bool) (Fmt.str "%s (%s) emitted" d.name d.emitter) true (emitted d))
    Obs.Record.all

let suite =
  [
    Alcotest.test_case "json: print/parse round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json: plain forms parse" `Quick test_json_parses_plain_forms;
    Alcotest.test_case "json: garbage rejected" `Quick test_json_rejects_garbage;
    Alcotest.test_case "json: non-finite floats stay parseable" `Quick test_json_nonfinite_floats;
    Alcotest.test_case "reporter: memory sink and lifecycle" `Quick test_reporter_memory_sink;
    Alcotest.test_case "reporter: spec parsing" `Quick test_reporter_spec_parsing;
    Alcotest.test_case "trace: event JSON round-trip" `Quick test_event_json_roundtrip;
    Alcotest.test_case "trace: schedule JSON round-trip" `Quick test_trace_json_roundtrip;
    Alcotest.test_case "metrics: atomic counter under 4 domains" `Quick
      test_atomic_counter_under_domains;
    Alcotest.test_case "records: refusal" `Quick test_records_refusal;
    Alcotest.test_case "records: every declaration is emitted" `Quick test_records_all_emitted;
    Alcotest.test_case "explore: per-invariant evals == states (baseline)" `Quick
      test_explore_per_invariant_evals;
    Alcotest.test_case "explore: the reduction record carries every counter" `Quick
      test_explore_reduction_record;
    Alcotest.test_case "swarm: per-run records are written once" `Quick test_swarm_records_once;
    Alcotest.test_case "explore: JSONL stream is well-formed" `Quick test_explore_jsonl_stream;
    Alcotest.test_case "explore: coverage sorted, gaps found" `Quick
      test_coverage_sorted_and_gaps;
    Alcotest.test_case "walk: the counterexample is the whole run from the root" `Quick
      test_random_walk_whole_run;
    Alcotest.test_case "walk: the rebuild leaves the reducer's counters" `Quick
      test_walk_rebuild_keeps_counters;
    Alcotest.test_case "walk: dead-end restarts counted" `Quick test_random_walk_counts_restarts;
    Alcotest.test_case "harness: gc-cycle and harness records" `Quick test_harness_emits_records;
  ]

(* HDR latency histograms (lib/obs/latency): bucket arithmetic, lane
   merging, coordinated-omission back-fill, cross-domain exactness, and
   the runtime's latency section / heartbeat records built on top. *)

module L = Obs.Latency

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* -- bucket arithmetic --------------------------------------------------------- *)

let check_roundtrip v =
  let rep = L.representative (L.bucket_of v) in
  let err = Float.abs (float_of_int (rep - v)) /. float_of_int (max v 1) in
  if err > 0.02 then
    Alcotest.failf "value %d -> bucket %d -> representative %d: error %.4f > 2%%" v
      (L.bucket_of v) rep err

let test_bucket_roundtrip () =
  (* dense sweep of the small range, then power-of-two boundaries and a
     deterministic pseudo-random sweep across the full covered range *)
  for v = 0 to 100_000 do
    check_roundtrip v
  done;
  let clamp_ns = 100_000_000_000 in
  let rec pow2 p =
    if p <= clamp_ns then begin
      List.iter check_roundtrip [ p - 1; p; p + 1 ];
      pow2 (p * 2)
    end
  in
  pow2 2;
  let s = ref 0x9e3779b9 in
  for _ = 1 to 20_000 do
    s := ((!s * 2862933555777941757) + 3037000493) land max_int;
    check_roundtrip (!s mod clamp_ns)
  done;
  (* bucket indices are monotone in the value and stay in range *)
  Alcotest.(check bool) "n_buckets covers the clamp" true (L.bucket_of clamp_ns < L.n_buckets)

let test_bucket_exact_below_32 () =
  for v = 0 to 31 do
    Alcotest.(check int) (Fmt.str "value %d is exact" v) v (L.representative (L.bucket_of v))
  done

(* -- byte-pinned percentile arithmetic ----------------------------------------- *)

(* Recording 0..31 once each exercises the exact sub-32 buckets; the
   JSON (field order, float rendering, rank arithmetic) is pinned
   byte-for-byte so any drift in the percentile maths shows up. *)
let test_pinned_json_small () =
  let h = L.create ~lanes:1 "pin-small" in
  for v = 0 to 31 do
    L.record h v
  done;
  Alcotest.(check string) "pinned small-range JSON"
    {|{"count":32,"mean_ns":15.5,"p50_ns":15,"p90_ns":28,"p99_ns":31,"p999_ns":31,"min_ns":0,"max_ns":31}|}
    (Obs.Json.to_string (L.to_json h))

let test_pinned_json_large () =
  (* four spikes across four decades: p50 lands on the 10 us bucket
     representative (10112, within 2% of 10000), the upper percentiles
     clamp to the exact observed max *)
  let h = L.create ~lanes:1 "pin-large" in
  List.iter
    (fun v ->
      for _ = 1 to 25 do
        L.record h v
      done)
    [ 1_000; 10_000; 100_000; 1_000_000 ];
  Alcotest.(check string) "pinned four-decade JSON"
    {|{"count":100,"mean_ns":277750.0,"p50_ns":10112,"p90_ns":1000000,"p99_ns":1000000,"p999_ns":1000000,"min_ns":1000,"max_ns":1000000}|}
    (Obs.Json.to_string (L.to_json h))

let test_empty_snapshot_nulls () =
  let h = L.create "empty" in
  Alcotest.(check (option int)) "no percentile when empty" None (L.percentile h 50.);
  Alcotest.(check bool) "no snapshot when empty" true (L.snapshot h = None);
  Alcotest.(check string) "empty histogram emits nulls, never NaN"
    {|{"count":0,"mean_ns":null,"p50_ns":null,"p90_ns":null,"p99_ns":null,"p999_ns":null,"min_ns":null,"max_ns":null}|}
    (Obs.Json.to_string (L.to_json h))

(* -- cross-domain merge -------------------------------------------------------- *)

let test_merge_determinism () =
  (* the same multiset recorded from 4 domains must merge to the exact
     same snapshot as a single-writer recording: counts are exact, so
     the JSON is byte-identical no matter which lane each value hit *)
  let values = List.init 4_000 (fun i -> i * 37 mod 5_000_000) in
  let solo = L.create ~lanes:1 "solo" in
  List.iter (L.record solo) values;
  let multi = L.create "multi" in
  let part d = List.filteri (fun i _ -> i mod 4 = d) values in
  let doms =
    Array.init 4 (fun d ->
        let vs = part d in
        Domain.spawn (fun () -> List.iter (L.record multi) vs))
  in
  Array.iter Domain.join doms;
  Alcotest.(check string) "4-domain merge == single-writer"
    (Obs.Json.to_string (L.to_json solo))
    (Obs.Json.to_string (L.to_json multi))

let test_concurrent_hammer_exact () =
  (* 4 domains record disjoint ranges concurrently; count, min, max and
     mean must come out exact — nothing sampled, nothing lost *)
  let h = L.create "hammer" in
  let per = 50_000 in
  let doms =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per do
              L.record h ((d * per) + i)
            done))
  in
  Array.iter Domain.join doms;
  let n = 4 * per in
  Alcotest.(check int) "exact count" n (L.count h);
  Alcotest.(check (option int)) "exact min" (Some 1) (L.min_ns h);
  Alcotest.(check (option int)) "exact max" (Some n) (L.max_ns h);
  match L.snapshot h with
  | None -> Alcotest.fail "snapshot empty after 200k records"
  | Some s ->
    (* sum of 1..n is exact, so the mean is too *)
    Alcotest.(check (float 1e-6)) "exact mean" ((float_of_int n +. 1.) /. 2.) s.L.mean_ns

(* -- coordinated omission ------------------------------------------------------ *)

let test_co_backfill_arithmetic () =
  (* a 35 ns observation of a 10 ns-period operation hides two missed
     occurrences: back-fill records 25 and 15 (remainder 5 < T stops) *)
  let h = L.create ~lanes:1 "co" in
  L.record_corrected h ~expected_interval_ns:10 35;
  (match L.snapshot h with
  | None -> Alcotest.fail "empty after record_corrected"
  | Some s ->
    Alcotest.(check int) "count includes back-fill" 3 s.L.count;
    Alcotest.(check (float 1e-9)) "sum is 35+25+15" 25.0 s.L.mean_ns;
    Alcotest.(check int) "max is the raw observation" 35 s.L.max_ns;
    Alcotest.(check int) "min is the last back-fill" 15 s.L.min_ns);
  (* interval <= 0 disables the correction *)
  let h2 = L.create ~lanes:1 "co-off" in
  L.record_corrected h2 ~expected_interval_ns:0 35;
  Alcotest.(check int) "no back-fill when disabled" 1 (L.count h2)

let test_recorder_stub_clock () =
  (* deterministic stub clock: ticks at 0, 10, 20, 60 give intervals
     10, 10, 40; the stalled 40 back-fills 30, 20 and 10 *)
  let times = ref [ 0; 10; 20; 60 ] in
  let clock () =
    match !times with
    | t :: rest ->
      times := rest;
      t
    | [] -> Alcotest.fail "stub clock exhausted"
  in
  let h = L.create ~lanes:1 "ticks" in
  let r = L.recorder ~clock ~expected_interval_ns:10 h in
  L.tick r;
  (* arms *)
  L.tick r;
  L.tick r;
  L.tick r;
  Alcotest.(check int) "3 intervals + 3 back-fills" 6 (L.count h);
  Alcotest.(check (option int)) "max is the stalled interval" (Some 40) (L.max_ns h);
  match L.snapshot h with
  | None -> Alcotest.fail "empty after ticks"
  | Some s -> Alcotest.(check (float 1e-9)) "sum is 120" (120. /. 6.) s.L.mean_ns

(* -- runtime integration ------------------------------------------------------- *)

let record_fields r =
  match r with Obs.Json.Obj fields -> fields | _ -> []

let records_of_event name records =
  List.filter_map
    (fun r ->
      let fields = record_fields r in
      match List.assoc_opt "event" fields with
      | Some (Obs.Json.String e) when e = name -> Some fields
      | _ -> None)
    records

let sub fields k =
  match List.assoc_opt k fields with
  | Some (Obs.Json.Obj sub) -> sub
  | _ -> Alcotest.failf "field %s missing or not an object" k

let positive_int fields k =
  match List.assoc_opt k fields with
  | Some (Obs.Json.Int n) when n > 0 -> n
  | Some j -> Alcotest.failf "field %s not a positive int: %s" k (Obs.Json.to_string j)
  | None -> Alcotest.failf "field %s missing" k

let test_runtime_latency_section_and_heartbeat () =
  let obs, dump = Obs.Reporter.memory () in
  let stats = Runtime.Harness.run ~n_muts:2 ~duration:0.4 ~obs () in
  Obs.Reporter.close obs;
  (* the harness stats carry a structured latency section *)
  let lat = record_fields stats.Runtime.Harness.latency in
  Alcotest.(check bool) "latency enabled" true
    (List.assoc_opt "enabled" lat = Some (Obs.Json.Bool true));
  let hs = sub lat "hs_round" in
  let n = positive_int hs "count" in
  Alcotest.(check int) "hs_round count == hs_rounds" stats.Runtime.Harness.hs_rounds n;
  ignore (positive_int hs "p50_ns");
  ignore (positive_int hs "p99_ns");
  ignore (positive_int hs "max_ns");
  (match List.assoc_opt "hs_ack" lat with
  | Some (Obs.Json.List acks) ->
    Alcotest.(check int) "one ack histogram per mutator" 2 (List.length acks)
  | _ -> Alcotest.fail "latency section lacks per-mutator hs_ack");
  List.iter
    (fun k -> ignore (sub lat k))
    [ "pause"; "barrier_slow"; "hs_round_by_type"; "alloc"; "alloc_stall_wait"; "mark"; "sweep" ];
  (* heartbeats: at least one per run, with live handshake percentiles *)
  let hbs = records_of_event "runtime-heartbeat" (dump ()) in
  Alcotest.(check bool) "at least one heartbeat" true (List.length hbs >= 1);
  let last = List.nth hbs (List.length hbs - 1) in
  ignore (positive_int (sub last "hs") "p50_ns");
  (match List.assoc_opt "alloc_per_sec" last with
  | Some (Obs.Json.Float _) -> ()
  | j -> Alcotest.failf "heartbeat alloc_per_sec: %s"
           (match j with Some j -> Obs.Json.to_string j | None -> "missing"));
  (match List.assoc_opt "hs_ack_p99_ns" last with
  | Some (Obs.Json.List l) -> Alcotest.(check int) "ack tail per mutator" 2 (List.length l)
  | _ -> Alcotest.fail "heartbeat lacks hs_ack_p99_ns");
  (* the full root scans the mutators' safe points did *)
  match records_of_event "harness" (dump ()) with
  | [ h ] ->
    Alcotest.(check int) "root_audits == stats" stats.Runtime.Harness.root_audits
      (positive_int h "root_audits")
  | hs -> Alcotest.failf "%d harness records" (List.length hs)

let test_dashboard_runtime_panel () =
  let buf = Buffer.create 512 in
  let d = Obs.Dashboard.create ~mode:Obs.Dashboard.Plain ~out:(Buffer.add_string buf) () in
  let hist count p50 p99 =
    Obs.Json.Obj
      [
        ("count", Obs.Json.Int count);
        ("p50_ns", Obs.Json.Int p50);
        ("p90_ns", Obs.Json.Int p99);
        ("p99_ns", Obs.Json.Int p99);
        ("p999_ns", Obs.Json.Int p99);
        ("min_ns", Obs.Json.Int p50);
        ("max_ns", Obs.Json.Int (2 * p99));
      ]
  in
  Obs.Dashboard.update d "runtime-heartbeat"
    [
      ("cycles", Obs.Json.Int 12);
      ("live", Obs.Json.Int 34);
      ("alloc_per_sec", Obs.Json.Float 5600.);
      ("alloc_stalls", Obs.Json.Int 1);
      ("pause", hist 12 1_000_000 3_000_000);
      ("hs", hist 40 8_000 90_000);
      ("hs_ack_p99_ns", Obs.Json.List [ Obs.Json.Int 1_000; Obs.Json.Int 2_000 ]);
    ];
  Obs.Dashboard.update d "harness"
    [ ("cycles", Obs.Json.Int 12); ("live_at_end", Obs.Json.Int 34); ("violation", Obs.Json.Null) ];
  Obs.Dashboard.finish d;
  let out = Buffer.contents buf in
  Alcotest.(check bool) "runtime block rendered" true (contains out "runtime");
  Alcotest.(check bool) "pause line rendered" true (contains out "pause");
  Alcotest.(check bool) "handshake tail rendered" true (contains out "p99.9");
  Alcotest.(check bool) "verdict rendered" true (contains out "SAFE")

let suite =
  [
    Alcotest.test_case "buckets: round-trip error <= 2%" `Quick test_bucket_roundtrip;
    Alcotest.test_case "buckets: exact below 32" `Quick test_bucket_exact_below_32;
    Alcotest.test_case "json: pinned small-range percentiles" `Quick test_pinned_json_small;
    Alcotest.test_case "json: pinned four-decade percentiles" `Quick test_pinned_json_large;
    Alcotest.test_case "json: empty histogram is nulls" `Quick test_empty_snapshot_nulls;
    Alcotest.test_case "merge: 4-domain == single-writer" `Quick test_merge_determinism;
    Alcotest.test_case "merge: concurrent records are exact" `Quick test_concurrent_hammer_exact;
    Alcotest.test_case "co: back-fill arithmetic" `Quick test_co_backfill_arithmetic;
    Alcotest.test_case "co: recorder under stub clock" `Quick test_recorder_stub_clock;
    Alcotest.test_case "runtime: latency section and heartbeat" `Quick
      test_runtime_latency_section_and_heartbeat;
    Alcotest.test_case "dashboard: runtime panel renders" `Quick test_dashboard_runtime_panel;
  ]

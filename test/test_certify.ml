(* Tests for the certifying checker (lib/certify): certificate
   round-trips after a jobs=1 and a jobs=4 verdict run under reduce
   none/all, byte-determinism across those two, certdiff, survivor
   certificates from a mutation campaign, and the adversarial tamper
   cases — a tampered certificate must fail closed with a diagnostic
   naming the offending fingerprint or header field, never validate. *)

let sc =
  Core.Scenario.make ~label:"cert-test" ~n_muts:1 ~n_refs:2 ~max_mut_ops:1 ~shape:"single" ()

let cfg = sc.Core.Scenario.cfg
let config_hash = Core.Config.hash cfg
let invariants = Core.Scenario.invariants sc
let initial () = (Core.Scenario.model sc).Core.Model.system
let reducer_of mode = Core.Reduction.reducer cfg mode
let run_config = Obs.Json.Obj [ ("test", Obs.Json.String "cert-test") ]

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let ok_or_fail what = function Ok v -> v | Error e -> Alcotest.fail (what ^ ": " ^ e)

(* Produce a certificate the way `gcmodel explore --jobs N --certificate`
   does: the table always comes from the one-worker certifying run
   (Certify.Writer.explore), which at N=1 is the verdict run and at N>1
   follows an N-worker verdict run. *)
let make_cert ~jobs ~mode dir =
  let reducer = reducer_of mode in
  let closed (o : _ Check.Explore.outcome) =
    (not o.Check.Explore.truncated) && o.Check.Explore.violation = None
  in
  if jobs > 1 then
    Alcotest.(check bool) "parallel run closed without violation" true
      (closed (Check.Par_explore.run ~jobs ?reducer ~invariants (initial ())));
  let o, table = Certify.Writer.explore ?reducer ~invariants (initial ()) in
  Alcotest.(check bool) "run closed without violation" true (closed o);
  let entries, max_depth = ok_or_fail "certifying run" table in
  ok_or_fail "write"
    (Certify.Writer.write ~dir ~config_hash ~reduce:(Reduce.Mode.to_string mode)
       ~invariant_names:(List.map fst invariants) ~run_config ~max_depth entries)

let validate ?(hash = config_hash) ~mode dir =
  Certify.Recheck.validate ~reducer:(reducer_of mode) ~invariants ~config_hash:hash ~dir
    (initial ())

(* -- Round-trips: jobs 1/4 x reduce none/all -------------------------------- *)

let round_trip ~jobs ~mode () =
  let dir = Store.Fs.temp_dir "gccert-test" in
  Fun.protect ~finally:(fun () -> Store.Fs.rm_rf dir) @@ fun () ->
  let h = make_cert ~jobs ~mode dir in
  let h', st = ok_or_fail "validate" (validate ~mode dir) in
  Alcotest.(check int) "validated exactly the header's states" h.Certify.Certificate.states
    st.Certify.Recheck.states;
  Alcotest.(check int) "same max depth" h.Certify.Certificate.max_depth
    st.Certify.Recheck.max_depth;
  Alcotest.(check string) "header read back" h.Certify.Certificate.table_digest
    h'.Certify.Certificate.table_digest;
  Alcotest.(check bool) "some transitions were re-derived" true
    (st.Certify.Recheck.transitions > 0)

(* -- Pinned header values ------------------------------------------------------

   Certificates and checkpoints store fingerprint values, so the
   fingerprint mix and the canonicalisation are part of the format: these
   headers must not drift.  The instance is checked first, so a change to
   the model is told apart from a change to the fingerprint.  Two mutators
   under reduce all is where the symmetry sort actually permutes. *)

let pinned ~n_muts ~mode ~config ~root_fp ~digest ~states ~max_depth () =
  let sc =
    Core.Scenario.make ~label:"cert-pinned" ~n_muts ~n_refs:2 ~max_mut_ops:1 ~shape:"single" ()
  in
  let cfg = sc.Core.Scenario.cfg in
  Alcotest.(check string) "config_hash (the instance itself)" config (Core.Config.hash cfg);
  let invariants = Core.Scenario.invariants sc in
  let o, table =
    Certify.Writer.explore ?reducer:(Core.Reduction.reducer cfg mode) ~invariants
      (Core.Scenario.model sc).Core.Model.system
  in
  Alcotest.(check bool) "run closed without violation" true
    ((not o.Check.Explore.truncated) && o.Check.Explore.violation = None);
  let entries, max_depth' = ok_or_fail "certifying run" table in
  let dir = Store.Fs.temp_dir "gccert-test" in
  Fun.protect ~finally:(fun () -> Store.Fs.rm_rf dir) @@ fun () ->
  let h =
    ok_or_fail "write"
      (Certify.Writer.write ~dir ~config_hash:(Core.Config.hash cfg)
         ~reduce:(Reduce.Mode.to_string mode) ~invariant_names:(List.map fst invariants)
         ~run_config ~max_depth:max_depth' entries)
  in
  Alcotest.(check string) "header config_hash" config h.Certify.Certificate.config_hash;
  Alcotest.(check int) "root_fp" root_fp h.Certify.Certificate.root_fp;
  Alcotest.(check string) "table_digest" digest h.Certify.Certificate.table_digest;
  Alcotest.(check int) "states" states h.Certify.Certificate.states;
  Alcotest.(check int) "max_depth" max_depth h.Certify.Certificate.max_depth

(* A wrong reduction mode at validation time is a header mismatch, not a
   crash: the certificate asserts closure of the *reduced* relation. *)
let test_mode_is_part_of_the_claim () =
  let dir = Store.Fs.temp_dir "gccert-test" in
  Fun.protect ~finally:(fun () -> Store.Fs.rm_rf dir) @@ fun () ->
  let _h = make_cert ~jobs:1 ~mode:Reduce.Mode.All dir in
  match validate ~mode:Reduce.Mode.None_ dir with
  | Ok _ -> Alcotest.fail "validated under the wrong reduction mode"
  | Error e ->
    Alcotest.(check bool) ("names the reduce field: " ^ e) true
      (contains ~sub:"\"reduce\"" e)

(* -- Determinism: jobs 1 and 4 emit byte-identical tables ------------------ *)

let test_producers_agree_bytewise () =
  let da = Store.Fs.temp_dir "gccert-test" and db = Store.Fs.temp_dir "gccert-test" in
  Fun.protect ~finally:(fun () -> Store.Fs.rm_rf da; Store.Fs.rm_rf db) @@ fun () ->
  let ha = make_cert ~jobs:1 ~mode:Reduce.Mode.All da in
  let hb = make_cert ~jobs:4 ~mode:Reduce.Mode.All db in
  Alcotest.(check string) "table digests agree at jobs 1 and 4"
    ha.Certify.Certificate.table_digest hb.Certify.Certificate.table_digest;
  let d = ok_or_fail "certdiff" (Certify.Diff.run da db) in
  Alcotest.(check bool) "certdiff sees identical certificates" true (Certify.Diff.identical d)

let test_certdiff_reports_differences () =
  let da = Store.Fs.temp_dir "gccert-test" and db = Store.Fs.temp_dir "gccert-test" in
  Fun.protect ~finally:(fun () -> Store.Fs.rm_rf da; Store.Fs.rm_rf db) @@ fun () ->
  let _ = make_cert ~jobs:1 ~mode:Reduce.Mode.All da in
  let _ = make_cert ~jobs:1 ~mode:Reduce.Mode.None_ db in
  let d = ok_or_fail "certdiff" (Certify.Diff.run da db) in
  Alcotest.(check bool) "different reductions are not identical" false
    (Certify.Diff.identical d);
  Alcotest.(check bool) "the reduce header delta is reported" true
    (List.exists (fun (f, _, _) -> f = "reduce") d.Certify.Diff.header_deltas)

(* -- Adversarial certificates: each tamper fails closed, naming the
      offender ------------------------------------------------------------- *)

let with_cert f () =
  let dir = Store.Fs.temp_dir "gccert-test" in
  Fun.protect ~finally:(fun () -> Store.Fs.rm_rf dir) @@ fun () ->
  let h = make_cert ~jobs:1 ~mode:Reduce.Mode.All dir in
  f dir h

let expect_fail ~what ~subs dir =
  match validate ~mode:Reduce.Mode.All dir with
  | Ok _ -> Alcotest.fail (what ^ ": tampered certificate validated")
  | Error e ->
    List.iter
      (fun sub ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: diagnostic %S mentions %S" what e sub)
          true (contains ~sub e))
      subs

let test_bit_flip =
  with_cert @@ fun dir _h ->
  let path = Certify.Certificate.table_path dir in
  let bytes = In_channel.with_open_bin path In_channel.input_all |> Bytes.of_string in
  let i = Bytes.length bytes / 2 in
  Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0x10));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc bytes);
  expect_fail ~what:"bit flip" ~subs:[ "table.seg"; "digest mismatch" ] dir

let test_truncated_table =
  with_cert @@ fun dir _h ->
  let path = Certify.Certificate.table_path dir in
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub bytes 0 (String.length bytes / 2)));
  expect_fail ~what:"truncation" ~subs:[ "table.seg"; "digest mismatch" ] dir

let test_dropped_obligation =
  with_cert @@ fun dir h ->
  let weakened =
    {
      h with
      Certify.Certificate.obligations =
        List.filter (fun ob -> ob <> "closure") h.Certify.Certificate.obligations;
    }
  in
  Certify.Certificate.write_header ~dir weakened;
  expect_fail ~what:"dropped obligation"
    ~subs:[ "missing closure obligation"; "\"obligations\"" ]
    dir

let test_wrong_config_header =
  with_cert @@ fun dir h ->
  let other =
    Core.Config.hash { cfg with Core.Config.n_refs = cfg.Core.Config.n_refs + 1 }
  in
  Certify.Certificate.write_header ~dir { h with Certify.Certificate.config_hash = other };
  expect_fail ~what:"wrong config" ~subs:[ "\"config_hash\""; "different instance" ] dir

(* A certificate of an earlier format is refused by its header, naming
   the format: GCCERT002 tables hold fingerprints mixed without slot
   hashes, and GCCERT001 tables fingerprints that mixed label
   characters, which no run produces now.  `gcmodel recheck` prints the
   refusal as one line and exits 1. *)
let test_old_format () =
  let dir = Store.Fs.temp_dir "gccert-test" in
  Fun.protect ~finally:(fun () -> Store.Fs.rm_rf dir) @@ fun () ->
  Alcotest.(check (pair int (list string))) "certifying explore" (0, [])
    (Test_core.run_tool [ "explore"; "--refs"; "2"; "--ops"; "1"; "--certificate"; dir ]);
  let h = ok_or_fail "header" (Certify.Certificate.read_header dir) in
  List.iter
    (fun format ->
      Certify.Certificate.write_header ~dir { h with Certify.Certificate.format };
      let refusal =
        Printf.sprintf {|CERT.json: header field "format" is "%s", expected "GCCERT003"|} format
      in
      Alcotest.(check (result unit string)) (format ^ ": the header is refused") (Error refusal)
        (Result.map ignore (Certify.Certificate.read_header dir));
      Alcotest.(check (pair int (list string))) (format ^ ": recheck refuses it in one line")
        (1, [ "gcmodel recheck: FAILED — " ^ refusal ])
        (Test_core.run_tool [ "recheck"; dir ]))
    [ "GCCERT002"; "GCCERT001" ]

(* Dropping a table entry past the digest (rewriting table + header
   consistently) must still fail: the entry's parent regenerates it as a
   successor and the membership probe misses.  This is the case the
   digest alone cannot catch — the semantic closure check does. *)
let test_dropped_entry =
  with_cert @@ fun dir h ->
  let table = Certify.Certificate.table_path dir in
  let entries = Store.Segment.entries (Store.Segment.load table) in
  (* drop the deepest entry: never the root, and its parent's closure
     check must regenerate it *)
  let depth (e : Store.Segment.entry) = Store.Segment.depth e.meta in
  let victim = ref 0 in
  Array.iteri (fun i e -> if depth e > depth entries.(!victim) then victim := i) entries;
  let kept = Array.of_list (List.filteri (fun i _ -> i <> !victim) (Array.to_list entries)) in
  Sys.remove table;
  let seg = Store.Segment.write ~path:table ~shard:0 ~seq:0 kept in
  Certify.Certificate.write_header ~dir
    {
      h with
      Certify.Certificate.states = Array.length kept;
      max_depth = Store.Segment.max_depth seg;
      table_digest = Certify.Certificate.digest_table dir;
    };
  expect_fail ~what:"dropped entry" ~subs:[ "closure miss" ] dir

(* -- A fault at every step of a certificate write fails closed: the
      directory holds no header (no certificate) or one that validates -- *)

let test_every_write_step_fails_closed () =
  let mode = Reduce.Mode.All in
  let _, table = Certify.Writer.explore ?reducer:(reducer_of mode) ~invariants (initial ()) in
  let entries, max_depth = ok_or_fail "certifying run" table in
  let write dir =
    Certify.Writer.write ~dir ~config_hash ~reduce:(Reduce.Mode.to_string mode)
      ~invariant_names:(List.map fst invariants) ~run_config ~max_depth entries
  in
  let root = Store.Fs.temp_dir "gccert-test" in
  Fun.protect ~finally:(fun () -> Store.Fs.rm_rf root) @@ fun () ->
  let steps = Atomic.make 0 in
  ignore
    (ok_or_fail "write"
       (Test_store.with_hook (fun _ -> Atomic.incr steps) (fun () ->
            write (Filename.concat root "whole"))));
  let refused = ref 0 and validated = ref 0 in
  for k = 0 to Atomic.get steps - 1 do
    let dir = Filename.concat root (string_of_int k) in
    Test_store.raises_injected (Printf.sprintf "fault at write step %d" k) (fun () ->
        Test_store.with_hook (Test_store.fail_nth k) (fun () -> write dir));
    match Certify.Certificate.read_header dir with
    | Error _ -> incr refused
    | Ok _ ->
      ignore (ok_or_fail (Printf.sprintf "validate after a fault at step %d" k) (validate ~mode dir));
      incr validated
  done;
  Alcotest.(check bool) "faults before the header's rename leave no certificate" true (!refused > 0);
  Alcotest.(check bool) "a fault after it leaves a valid one" true (!validated > 0)

(* -- Survivor certificates: a campaign closes an equivalent mutant by
      certificate, and recheck accepts every certificate it writes ------- *)

let test_campaign_survivor_certificates () =
  let dir = Store.Fs.temp_dir "gccert-test" in
  Fun.protect ~finally:(fun () -> Store.Fs.rm_rf dir) @@ fun () ->
  let m =
    match Mutate.Operators.by_name cfg "drop-fence:mut:hs-load-fence" with
    | Some op -> Mutate.Campaign.of_operator op
    | None -> Alcotest.fail "operator drop-fence:mut:hs-load-fence is missing"
  in
  Alcotest.(check bool) "the mutant is expected equivalent" true
    m.Mutate.Campaign.expected_equivalent;
  let obs, dump = Obs.Reporter.memory () in
  let out = Mutate.Campaign.run ~obs ~scenarios:[ sc ] ~certificates:dir ~mutants:[ m ] () in
  Obs.Reporter.close obs;
  (match out.Mutate.Campaign.entries with
  | [ { Mutate.Campaign.classification = Survived { closed = true }; _ } ] -> ()
  | _ -> Alcotest.fail "the mutant must survive with its scenario closed");
  let field name = function Obs.Json.Obj fields -> List.assoc_opt name fields | _ -> None in
  let certs =
    List.filter_map
      (fun r ->
        if field "event" r <> Some (Obs.Json.String "certificate") then None
        else
          match (field "dir" r, field "error" r) with
          | Some (Obs.Json.String d), None -> Some d
          | _, Some e -> Alcotest.failf "certificate refused: %s" (Obs.Json.to_string e)
          | _ -> Alcotest.fail "certificate record without a dir")
      (dump ())
  in
  Alcotest.(check int) "one certificate for the one scenario" 1 (List.length certs);
  let cfg' = m.Mutate.Campaign.tweak cfg in
  let sc' = { sc with Core.Scenario.cfg = cfg' } in
  List.iter
    (fun d ->
      let _, st =
        ok_or_fail "recheck"
          (Certify.Recheck.validate
             ~reducer:(Core.Reduction.reducer cfg' Reduce.Mode.All)
             ~invariants:(Core.Scenario.invariants sc') ~config_hash:(Core.Config.hash cfg') ~dir:d
             (Core.Scenario.model sc').Core.Model.system)
      in
      Alcotest.(check bool) "the certificate covers states" true (st.Certify.Recheck.states > 0);
      (* `gcmodel recheck` rebuilds the mutated instance from the run
         configuration the campaign embeds (Campaign.cert_run_config) *)
      match Test_core.run_tool_output [ "recheck"; d ] with
      | 0, out, [] ->
        Alcotest.(check bool) (d ^ ": recheck: OK") true
          (List.exists (fun l -> contains ~sub:"recheck: OK" l) out)
      | code, _, err ->
        Alcotest.failf "gcmodel recheck %s: exit %d: %s" d code (String.concat " | " err))
    certs

(* A certificate whose run configuration carries an out-of-range bound is
   refused by `gcmodel recheck` in one line naming the field, before any
   model is built. *)
let test_out_of_range_bound () =
  let dir = Store.Fs.temp_dir "gccert-test" in
  Fun.protect ~finally:(fun () -> Store.Fs.rm_rf dir) @@ fun () ->
  Alcotest.(check (pair int (list string))) "certifying explore" (0, [])
    (Test_core.run_tool [ "explore"; "--refs"; "2"; "--ops"; "1"; "--certificate"; dir ]);
  let cert = Filename.concat dir "CERT.json" in
  let original = In_channel.with_open_bin cert In_channel.input_all in
  List.iter
    (fun (field, by) ->
      let forged = Test_core.replace ~sub:(Printf.sprintf {|"%s": 1,|} field) ~by original in
      Out_channel.with_open_bin cert (fun oc -> Out_channel.output_string oc forged);
      Alcotest.(check (pair int (list string))) (field ^ " is refused")
        (1, [ "gcmodel recheck: FAILED — run configuration: missing or malformed " ^ field ])
        (Test_core.run_tool [ "recheck"; dir ]))
    [
      ("cycles", {|"cycles": -1,|});
      ("ops", {|"ops": -1,|});
      ("muts", {|"muts": -1,|});
      ("fields", {|"fields": 0,|});
    ]

let suite =
  [
    Alcotest.test_case "round-trip (store dump, reduce all)" `Quick
      (round_trip ~jobs:1 ~mode:Reduce.Mode.All);
    Alcotest.test_case "round-trip (store dump, reduce none)" `Quick
      (round_trip ~jobs:1 ~mode:Reduce.Mode.None_);
    Alcotest.test_case "round-trip (jobs=4 run, reduce all)" `Quick
      (round_trip ~jobs:4 ~mode:Reduce.Mode.All);
    Alcotest.test_case "round-trip (jobs=4 run, reduce none)" `Quick
      (round_trip ~jobs:4 ~mode:Reduce.Mode.None_);
    Alcotest.test_case "pinned header (1 mutator, reduce none)" `Quick
      (pinned ~n_muts:1 ~mode:Reduce.Mode.None_ ~config:"9c9619547ed81c40927cbb02d34d2c89"
         ~root_fp:4086465194855388184 ~digest:"c19453f97df78bad862696c4a043a6bd" ~states:2_826
         ~max_depth:102);
    Alcotest.test_case "pinned header (1 mutator, reduce all)" `Quick
      (pinned ~n_muts:1 ~mode:Reduce.Mode.All ~config:"9c9619547ed81c40927cbb02d34d2c89"
         ~root_fp:4086465194855388184 ~digest:"f6848396e743fb131f6142878239a31a" ~states:1_176
         ~max_depth:91);
    Alcotest.test_case "pinned header (2 mutators, reduce all)" `Quick
      (pinned ~n_muts:2 ~mode:Reduce.Mode.All ~config:"7b7680aa5dcfd320c7ef9d1d9bf30ca6"
         ~root_fp:1183634424940104685 ~digest:"92ed09061412cb72b18cefb26e0f28e9"
         ~states:28_656 ~max_depth:130);
    Alcotest.test_case "reduce mode is part of the claim" `Quick test_mode_is_part_of_the_claim;
    Alcotest.test_case "producers emit byte-identical tables" `Quick
      test_producers_agree_bytewise;
    Alcotest.test_case "certdiff reports header + entry deltas" `Quick
      test_certdiff_reports_differences;
    Alcotest.test_case "tamper: bit-flipped table byte" `Quick test_bit_flip;
    Alcotest.test_case "tamper: truncated table" `Quick test_truncated_table;
    Alcotest.test_case "tamper: dropped obligation" `Quick test_dropped_obligation;
    Alcotest.test_case "tamper: wrong-config header" `Quick test_wrong_config_header;
    Alcotest.test_case "a GCCERT001 certificate is refused" `Quick test_old_format;
    Alcotest.test_case "tamper: dropped entry behind a valid digest" `Quick test_dropped_entry;
    Alcotest.test_case "every step of a certificate write fails closed" `Quick
      test_every_write_step_fails_closed;
    Alcotest.test_case "campaign survivor certificates recheck" `Quick
      test_campaign_survivor_certificates;
    Alcotest.test_case "recheck refuses an out-of-range bound" `Quick test_out_of_range_bound;
  ]

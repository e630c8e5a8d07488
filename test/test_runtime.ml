(* Tests for the concrete Domains-based runtime: heap primitives, the mark
   CAS, deterministic collection of garbage vs retention of rooted
   structure, and the stress harness (including the barrier ablation, which
   must fault). *)

module H = Runtime.Rheap
module Sh = Runtime.Rshared
module M = Runtime.Rmutator
module C = Runtime.Rcollector

let test_heap_basics () =
  let h = H.make ~n_slots:4 ~n_fields:2 in
  let r = H.alloc h ~mark:true in
  Alcotest.(check bool) "allocated" true (H.is_allocated h r);
  Alcotest.(check bool) "mark installed" true (H.mark h r);
  Alcotest.(check int) "fields null" H.null (H.field h r 0);
  H.set_field h r 1 r;
  Alcotest.(check int) "field set" r (H.field h r 1);
  let e = H.epoch h r in
  H.free h r;
  Alcotest.(check bool) "freed" false (H.is_allocated h r);
  Alcotest.(check int) "epoch bumped" (e + 1) (H.epoch h r);
  Alcotest.(check int) "live count" 0 (H.live_count h)

let test_heap_exhaustion () =
  let h = H.make ~n_slots:2 ~n_fields:1 in
  let a = H.alloc h ~mark:false and b = H.alloc h ~mark:false in
  Alcotest.(check bool) "two slots" true (a <> H.null && b <> H.null && a <> b);
  Alcotest.(check int) "third alloc fails" H.null (H.alloc h ~mark:false);
  H.free h a;
  Alcotest.(check bool) "slot recycled" true (H.alloc h ~mark:false <> H.null)

let test_mark_cas () =
  let sh = Sh.make ~n_slots:4 ~n_fields:1 ~n_muts:0 () in
  let r = H.alloc sh.Sh.heap ~mark:(not (Atomic.get sh.Sh.f_m)) in
  (* phase Idle: mark must not fire *)
  Alcotest.(check (list int)) "idle: no marking" [] (Sh.mark sh r []);
  Atomic.set sh.Sh.phase Sh.Mark;
  (match Sh.mark sh r [] with
  | [ r' ] -> Alcotest.(check int) "won and greyed" r r'
  | _ -> Alcotest.fail "expected to win the CAS");
  (* second attempt: fast path, already marked *)
  Alcotest.(check (list int)) "idempotent" [] (Sh.mark sh r []);
  Alcotest.(check bool) "fast path counted" true (Atomic.get sh.Sh.barrier_fast_path > 0)

let test_mark_null_and_freed () =
  let sh = Sh.make ~n_slots:2 ~n_fields:1 ~n_muts:0 () in
  Atomic.set sh.Sh.phase Sh.Mark;
  Alcotest.(check (list int)) "null ignored" [] (Sh.mark sh H.null []);
  let r = H.alloc sh.Sh.heap ~mark:false in
  H.free sh.Sh.heap r;
  Alcotest.(check (list int)) "freed ignored" [] (Sh.mark sh r [])

(* One deterministic collection: a rooted chain survives, detached garbage
   goes, floating garbage goes one cycle later. *)
let test_cycle_retains_and_collects () =
  let sh = Sh.make ~n_slots:8 ~n_fields:1 ~n_muts:1 () in
  let h = sh.Sh.heap in
  let sense () = Atomic.get sh.Sh.f_a in
  (* rooted chain a -> b; detached d *)
  let a = H.alloc h ~mark:(sense ()) in
  let b = H.alloc h ~mark:(sense ()) in
  let d = H.alloc h ~mark:(sense ()) in
  H.set_field h a 0 b;
  let m = M.make sh 0 ~roots:[ a ] in
  let done_ = Atomic.make false in
  let gc =
    Domain.spawn (fun () ->
        C.cycle sh;
        C.cycle sh;
        Atomic.set done_ true)
  in
  while not (Atomic.get done_) do
    M.poll m;
    Domain.cpu_relax ()
  done;
  Domain.join gc;
  Alcotest.(check bool) "root survives" true (H.is_allocated h a);
  Alcotest.(check bool) "chain survives" true (H.is_allocated h b);
  Alcotest.(check bool) "garbage collected" false (H.is_allocated h d);
  Alcotest.(check int) "cycles" 2 (Atomic.get sh.Sh.cycles);
  M.validate_roots m

let test_floating_garbage_two_cycles () =
  let sh = Sh.make ~n_slots:8 ~n_fields:1 ~n_muts:1 () in
  let h = sh.Sh.heap in
  let a = H.alloc h ~mark:(Atomic.get sh.Sh.f_a) in
  let b = H.alloc h ~mark:(Atomic.get sh.Sh.f_a) in
  H.set_field h a 0 b;
  let m = M.make sh 0 ~roots:[ a ] in
  let phase = Atomic.make 0 in
  let gc =
    Domain.spawn (fun () ->
        C.cycle sh;
        Atomic.set phase 1;
        while Atomic.get phase = 1 do Domain.cpu_relax () done;
        C.cycle sh;
        C.cycle sh;
        Atomic.set phase 3)
  in
  while Atomic.get phase = 0 do M.poll m; Domain.cpu_relax () done;
  (* drop the edge to b between cycles (collector idle: no barrier fires) *)
  M.store m a 0 H.null;
  Atomic.set phase 2;
  while Atomic.get phase <> 3 do M.poll m; Domain.cpu_relax () done;
  Domain.join gc;
  Alcotest.(check bool) "a survives" true (H.is_allocated h a);
  Alcotest.(check bool) "b collected within two cycles" false (H.is_allocated h b)

(* -- the root audit, on one domain with no collector -------------------------- *)

(* A mutator holding one fresh object, [a]. *)
let solo () =
  let sh = Sh.make ~latency:false ~n_slots:8 ~n_fields:1 ~n_muts:1 () in
  let a = H.alloc sh.Sh.heap ~mark:(Atomic.get sh.Sh.f_a) in
  (sh.Sh.heap, M.make sh 0 ~roots:[ a ], a)

let check_unsafe what expected f =
  match f () with
  | () -> Alcotest.failf "%s: no report" what
  | exception M.Unsafe msg -> Alcotest.(check string) what expected msg

let freed r = Printf.sprintf "mutator 0 (cycle 0): rooted reference %d was freed" r

let test_audit_freed_root () =
  let h, m, a = solo () in
  M.safe_point m;
  H.free h a;
  check_unsafe "freed root" (freed a) (fun () -> M.safe_point m)

let test_audit_freed_and_reused () =
  let h, m, a = solo () in
  M.safe_point m;
  H.free h a;
  Alcotest.(check int) "slot reused" a (H.alloc h ~mark:false);
  check_unsafe "reused root" (freed a ^ " and reused") (fun () -> M.safe_point m)

let test_audit_dangling_load () =
  let h, m, a = solo () in
  let b = H.alloc h ~mark:false in
  H.set_field h a 0 b;
  H.free h b;
  M.safe_point m;
  let audits = M.root_audits m in
  Alcotest.(check int) "load adopts the freed slot" b (M.load m a 0);
  check_unsafe "adopted after its free" (freed b) (fun () -> M.safe_point m);
  Alcotest.(check int) "reported without a full scan" audits (M.root_audits m)

(* A free that straddles a full scan: it has begun when the scan checks
   the root, and finishes after.  The scan must leave the counters
   unequal, so the next safe point scans again and sees the free. *)
let test_audit_straddling_free () =
  let h, m, a = solo () in
  M.safe_point m;
  Atomic.incr h.H.frees_begun;
  M.safe_point m;
  Atomic.set h.H.allocated.(a) false;
  Atomic.incr h.H.epochs.(a);
  Atomic.incr h.H.frees;
  check_unsafe "free finished after the scan" (freed a) (fun () -> M.safe_point m)

let test_audit_count () =
  let h, m, _ = solo () in
  M.safe_point m;
  let n = M.root_audits m in
  Alcotest.(check int) "the first safe point scans" 1 n;
  ignore (M.alloc m);
  M.safe_point m;
  Alcotest.(check int) "no free since: no scan" n (M.root_audits m);
  H.free h (H.alloc h ~mark:false);
  M.safe_point m;
  Alcotest.(check int) "a free since: one scan" (n + 1) (M.root_audits m);
  M.safe_point m;
  Alcotest.(check int) "then none" (n + 1) (M.root_audits m)

let test_root_set () =
  let h, m, a = solo () in
  let b = H.alloc h ~mark:false in
  H.set_field h a 0 b;
  ignore (M.load m a 0);
  ignore (M.load m a 0);
  Alcotest.(check (list int)) "one entry per reference" [ b; a ] (M.root_refs m);
  M.discard m b;
  Alcotest.(check (list int)) "discarded" [ a ] (M.root_refs m);
  ignore (M.load m a 0);
  Alcotest.(check (list int)) "re-adopted" [ b; a ] (M.root_refs m);
  let c = M.alloc m in
  Alcotest.(check (list int)) "newest first" [ c; b; a ] (M.root_refs m);
  M.discard m c;
  H.free h c;
  (* a discarded root is no longer audited: this safe point passes *)
  M.safe_point m;
  let sh = Sh.make ~latency:false ~n_slots:4 ~n_fields:1 ~n_muts:1 () in
  Alcotest.(check (list int)) "make keeps the given order" [ 2; 0 ]
    (M.root_refs (M.make sh 0 ~roots:[ 2; 0 ]))

let test_refusals () =
  Alcotest.check_raises "a seed root per mutator"
    (Invalid_argument "Harness.run: n_slots = 2, needs at least n_muts = 3 (one seed root each)")
    (fun () -> ignore (Runtime.Harness.run ~n_muts:3 ~n_slots:2 ()));
  Alcotest.check_raises "a field to pick"
    (Invalid_argument "Harness.run: n_fields = 0, needs at least 1") (fun () ->
      ignore (Runtime.Harness.run ~n_fields:0 ()));
  let sh = Sh.make ~latency:false ~n_slots:4 ~n_fields:1 ~n_muts:1 () in
  Alcotest.check_raises "no null root" (Invalid_argument "Rmutator.make: null root") (fun () ->
      ignore (M.make sh 0 ~roots:[ H.null ]))

let test_stress_uniform_safe () =
  let s = Runtime.Harness.run ~n_muts:2 ~n_slots:64 ~duration:0.3 () in
  Alcotest.(check (option string)) "safe" None s.Runtime.Harness.violation;
  Alcotest.(check bool) "made progress" true (s.Runtime.Harness.cycles > 0)

let test_stress_lists_safe () =
  let s =
    Runtime.Harness.run ~n_muts:2 ~n_slots:128 ~duration:1.0 ~workload:Runtime.Rmutator.Lists
      ~trace_pause:0.0002 ()
  in
  Alcotest.(check (option string)) "safe under the adversarial workload" None
    s.Runtime.Harness.violation

let test_stress_no_barriers_faults () =
  (* the Fig. 1 attack against a barrier-less collector must fault; the
     schedule is OS-dependent, so allow a few attempts *)
  let rec attempt k =
    let s =
      Runtime.Harness.run ~n_muts:2 ~n_slots:128 ~duration:4.0 ~barriers:false
        ~workload:Runtime.Rmutator.Lists ~trace_pause:0.0002 ~seed:(42 + k) ()
    in
    match s.Runtime.Harness.violation with
    | Some _ -> ()
    | None -> if k < 3 then attempt (k + 1) else Alcotest.fail "barrier-less run stayed safe"
  in
  attempt 0

let suite =
  [
    Alcotest.test_case "heap primitives" `Quick test_heap_basics;
    Alcotest.test_case "heap exhaustion and recycling" `Quick test_heap_exhaustion;
    Alcotest.test_case "mark CAS and fast path" `Quick test_mark_cas;
    Alcotest.test_case "mark ignores null and freed" `Quick test_mark_null_and_freed;
    Alcotest.test_case "a cycle retains roots, collects garbage" `Quick test_cycle_retains_and_collects;
    Alcotest.test_case "floating garbage goes within two cycles" `Quick test_floating_garbage_two_cycles;
    Alcotest.test_case "stress: uniform workload is safe" `Quick test_stress_uniform_safe;
    Alcotest.test_case "stress: adversarial lists are safe" `Quick test_stress_lists_safe;
    Alcotest.test_case "stress: no barriers faults" `Slow test_stress_no_barriers_faults;
    Alcotest.test_case "audit: a freed root is reported" `Quick test_audit_freed_root;
    Alcotest.test_case "audit: a freed and reused root is reported" `Quick
      test_audit_freed_and_reused;
    Alcotest.test_case "audit: a dangling load is reported" `Quick test_audit_dangling_load;
    Alcotest.test_case "audit: a free that straddles a scan" `Quick test_audit_straddling_free;
    Alcotest.test_case "audit: full scans only after a free" `Quick test_audit_count;
    Alcotest.test_case "root set: one entry, re-adoption, newest first" `Quick test_root_set;
    Alcotest.test_case "harness and make refuse what they cannot run" `Quick test_refusals;
  ]

(* Discrimination tests for the invariant catalogue: every auxiliary
   invariant must be *refutable* — we build a concrete global state that
   violates it and check that the predicate says no.  (The positive
   direction — all invariants hold on every reachable state — is covered by
   the exhaustive runs in test_safety.ml; these tests guard against an
   invariant silently degenerating to [fun _ -> true].) *)

open Core.Types
module St = Core.State
module Cfg = Core.Config

let cfg = { Cfg.default with n_muts = 2; n_refs = 3 }

let shape = Gcheap.Shapes.single ~n_refs:3 ~n_fields:1

let base () = (Core.Model.make cfg shape).Core.Model.system

let pid_sys = Cfg.pid_sys cfg
let mut0 = Cfg.pid_mut cfg 0
let mut1 = Cfg.pid_mut cfg 1

(* Rebuild the system with a doctored sys_data. *)
let with_sys f sys = Cimp.System.map_data sys pid_sys (St.map_sys f)
let with_mut m f sys = Cimp.System.map_data sys (Cfg.pid_mut cfg m) (St.map_mut f)

let check_inv name sys expected =
  match Core.Invariants.find cfg name with
  | None -> Alcotest.fail ("unknown invariant " ^ name)
  | Some i -> Alcotest.(check bool) name expected (i.Core.Invariants.check sys)

let violates name f = check_inv name (with_sys f (base ())) false

let test_valid_refs_refutable () =
  (* a rooted reference with no object *)
  let sys = with_mut 0 (fun d -> { d with St.m_roots = [ 2 ] }) (base ()) in
  check_inv "valid_refs_inv" sys false

let test_no_dangling_refutable () = violates "no_dangling_access" (fun sd -> { sd with St.s_dangling = true })

let test_worklists_disjoint_refutable () =
  violates "worklists_disjoint" (fun sd -> St.set_wl (St.set_wl sd mut0 [ 0 ]) mut1 [ 0 ])

let test_worklists_dup_refutable () =
  violates "worklists_disjoint" (fun sd ->
      { sd with St.s_W = List.mapi (fun i w -> if i = mut0 then [ 0; 0 ] else w) sd.St.s_W })

let test_valid_w_refutable () =
  (* a grey whose object is unmarked, lock not held *)
  violates "valid_W_inv" (fun sd ->
      let heap = Gcheap.Heap.set_mark sd.St.s_mem.St.heap 0 (not sd.St.s_mem.St.fM) in
      St.set_wl { sd with St.s_mem = { sd.St.s_mem with St.heap } } mut0 [ 0 ])

let test_valid_w_lock_exemption () =
  (* same state but the owner holds the lock: the exemption applies *)
  let sys =
    with_sys
      (fun sd ->
        let heap = Gcheap.Heap.set_mark sd.St.s_mem.St.heap 0 (not sd.St.s_mem.St.fM) in
        { (St.set_wl { sd with St.s_mem = { sd.St.s_mem with St.heap } } mut0 [ 0 ]) with
          St.s_lock = Some mut0 })
      (base ())
  in
  (* the lock-scope invariant now fails instead (lock held outside a CAS),
     but valid_W_inv itself must accept *)
  check_inv "valid_W_inv" sys true;
  check_inv "tso_lock_scope" sys false

let test_tso_ownership_refutable () =
  violates "tso_ownership" (fun sd -> St.set_buf sd mut0 [ W_phase Ph_mark ])

let test_gc_fm_refutable () =
  violates "gc_fM_coherent" (fun sd -> { sd with St.s_mem = { sd.St.s_mem with St.fM = true } })

let test_phase_inv_refutable () =
  (* hs_type = nop1 but phase = Mark in memory *)
  violates "sys_phase_inv" (fun sd ->
      { sd with St.s_hs_type = Hs_nop1; s_mem = { sd.St.s_mem with St.phase = Ph_mark } })

let test_fa_fm_refutable () =
  (* nop4 span with differing senses and no pending write *)
  violates "fA_fM_relation" (fun sd ->
      { sd with St.s_hs_type = Hs_nop4; s_mem = { sd.St.s_mem with St.fA = true; fM = false } })

let test_no_black_refs_refutable () =
  (* nop2 span, senses differ, and a marked non-grey (= black) object *)
  violates "no_black_refs_init" (fun sd ->
      let heap = Gcheap.Heap.set_mark sd.St.s_mem.St.heap 0 true in
      { sd with St.s_hs_type = Hs_nop2; s_mem = { sd.St.s_mem with St.heap; fM = true; fA = false } })

let test_idle_uniform_refutable () =
  (* nop1 span with a grey reference *)
  violates "idle_heap_uniform" (fun sd -> St.set_wl { sd with St.s_hs_type = Hs_nop1 } mut0 [ 0 ])

let test_marked_insertions_refutable () =
  (* mutator past nop3 with an unmarked insertion in flight *)
  violates "marked_insertions" (fun sd ->
      let heap = Gcheap.Heap.alloc sd.St.s_mem.St.heap 1 ~mark:(not sd.St.s_mem.St.fM) in
      let sd = { sd with St.s_mem = { sd.St.s_mem with St.heap } } in
      let sd = St.set_buf sd mut0 [ W_field (0, 0, Some 1) ] in
      { sd with St.s_hs_mut_hs = List.mapi (fun i h -> if i = 0 then Hs_nop3 else h) sd.St.s_hs_mut_hs })

let test_marked_deletions_refutable () =
  (* black mutator overwrites a field whose current value is white *)
  violates "marked_deletions" (fun sd ->
      let heap = Gcheap.Heap.alloc sd.St.s_mem.St.heap 1 ~mark:(not sd.St.s_mem.St.fM) in
      let heap = Gcheap.Heap.set_field heap 0 0 (Some 1) in
      let sd = { sd with St.s_mem = { sd.St.s_mem with St.heap } } in
      St.set_buf sd mut0 [ W_field (0, 0, None) ])

let test_snapshot_refutable () =
  (* a black mutator reaching an unprotected white *)
  violates "reachable_snapshot_inv" (fun sd ->
      let heap = Gcheap.Heap.alloc sd.St.s_mem.St.heap 1 ~mark:(not sd.St.s_mem.St.fM) in
      let heap = Gcheap.Heap.set_field heap 0 0 (Some 1) in
      { sd with St.s_mem = { sd.St.s_mem with St.heap } })

let test_gc_w_empty_refutable () =
  (* active get-work round: completed mutator holds grey work, the waiting
     one does not, and the collector's W is empty *)
  violates "gc_W_empty_mut_inv" (fun sd ->
      let sd = { sd with St.s_hs_type = Hs_get_work; s_hs_done = [ true; false ] } in
      St.set_wl sd mut0 [ 0 ])

let test_weak_tricolor_refutable () =
  (* black -> white edge with no grey anywhere *)
  violates "weak_tricolor_inv" (fun sd ->
      let heap = Gcheap.Heap.alloc sd.St.s_mem.St.heap 1 ~mark:(not sd.St.s_mem.St.fM) in
      let heap = Gcheap.Heap.set_field heap 0 0 (Some 1) in
      { sd with St.s_mem = { sd.St.s_mem with St.heap } })

let test_weak_tricolor_accepts_protected () =
  (* the same white but grey-protected: must pass *)
  let sys =
    with_sys
      (fun sd ->
        let heap = Gcheap.Heap.alloc sd.St.s_mem.St.heap 1 ~mark:(not sd.St.s_mem.St.fM) in
        let heap = Gcheap.Heap.set_field heap 0 0 (Some 1) in
        St.set_wl { sd with St.s_mem = { sd.St.s_mem with St.heap } } mut1 [ 1 ])
      (base ())
  in
  check_inv "weak_tricolor_inv" sys true

let test_strong_tricolor_refutable () =
  (* marking span (nop4, senses equal) with a black -> white edge *)
  violates "strong_tricolor_inv" (fun sd ->
      let heap = Gcheap.Heap.alloc sd.St.s_mem.St.heap 1 ~mark:(not sd.St.s_mem.St.fM) in
      let heap = Gcheap.Heap.set_field heap 0 0 (Some 1) in
      { sd with St.s_hs_type = Hs_nop4; s_mem = { sd.St.s_mem with St.heap } })

let test_free_only_garbage_vacuous_off_label () =
  (* the at-label invariant is vacuously true away from gc:free *)
  check_inv "free_only_garbage" (base ()) true

let test_ablated_guards_disable () =
  (* with the barriers ablated, the barrier invariants go vacuous (their
     guards consult the configuration) *)
  let cfg' = { cfg with Cfg.deletion_barrier = false; insertion_barrier = false } in
  let sys = (Core.Model.make cfg' shape).Core.Model.system in
  List.iter
    (fun name ->
      match Core.Invariants.find cfg' name with
      | Some i -> Alcotest.(check bool) (name ^ " vacuous") true (i.Core.Invariants.check sys)
      | None -> Alcotest.fail name)
    [ "marked_insertions"; "marked_deletions"; "reachable_snapshot_inv"; "weak_tricolor_inv" ]

let test_catalogue_metadata () =
  let invs = Core.Invariants.all cfg in
  Alcotest.(check int) "18 invariants" 18 (List.length invs);
  Alcotest.(check int) "3 safety invariants" 3
    (List.length (List.filter (fun i -> i.Core.Invariants.safety) invs));
  (* names unique, docs non-empty *)
  let names = List.map (fun i -> i.Core.Invariants.name) invs in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter (fun i -> Alcotest.(check bool) "doc" true (String.length i.Core.Invariants.doc > 0)) invs

(* -- Verdicts pinned on a walk corpus ---------------------------------------

   The tests above build one refuting state per invariant; this one pins
   what all 18 checks say on a fixed corpus of model states, violating
   ones included, so that a change to how the checks compute cannot change
   a single verdict unnoticed.  The corpus is one seeded 1,500-state walk
   per variant and per applicable mutant, on every shape that fits, at 1
   mutator, 3 and 4 refs and buffer bound 1.  The walk keeps going past
   violations (restarting only at dead ends) and leaves every fourth
   successor un-normalised, so intermediate control points are in it too.
   The digest covers every state's verdict vector in corpus order. *)

let corpus_configs refs =
  let base = { Cfg.default with n_muts = 1; n_refs = refs; buf_bound = 1 } in
  List.map (fun v -> v.Core.Variants.tweak base) Core.Variants.all
  @ List.filter_map
      (fun m ->
        if Mutate.Operators.applies m base then Some (Mutate.Operators.tweak m base) else None)
      (Mutate.Operators.all base)

let corpus_walk_length = 1_500

(* Calls [visit] on each of the walk's states. *)
let corpus_walk ~seed ~visit system =
  let initial = Cimp.System.normalize system in
  let rng = Random.State.make [| seed |] in
  let rec go sys i =
    if i < corpus_walk_length then begin
      visit sys;
      match Cimp.System.steps sys with
      | [] -> go initial (i + 1)
      | succs ->
        let _, next = List.nth succs (Random.State.int rng (List.length succs)) in
        go (if i mod 4 = 3 then next else Cimp.System.normalize next) (i + 1)
    end
  in
  go initial 0

(* The verdict digest, the number of states and each invariant's failure
   count over the corpus. *)
let corpus_verdicts () =
  let names = List.map (fun i -> i.Core.Invariants.name) (Core.Invariants.all cfg) in
  let failures = Array.make (List.length names) 0 in
  let digests = Buffer.create 4096 in
  let states = ref 0 in
  let seed = ref 0 in
  List.iter
    (fun refs ->
      List.iter
        (fun c ->
          let checks = List.map (fun i -> i.Core.Invariants.check) (Core.Invariants.all c) in
          List.iter
            (fun s ->
              match Core.Model.make c s with
              | exception Invalid_argument _ -> ()
              | m ->
                let verdicts = Buffer.create (corpus_walk_length * List.length checks) in
                let visit sys =
                  incr states;
                  List.iteri
                    (fun k check ->
                      let ok = check sys in
                      if not ok then failures.(k) <- failures.(k) + 1;
                      Buffer.add_char verdicts (if ok then '1' else '0'))
                    checks
                in
                corpus_walk ~seed:!seed ~visit m.Core.Model.system;
                incr seed;
                Buffer.add_string digests (Digest.to_hex (Digest.string (Buffer.contents verdicts))))
            (Gcheap.Shapes.all ~n_refs:refs ~n_fields:c.Cfg.n_fields))
        (corpus_configs refs))
    [ 3; 4 ];
  ( Digest.to_hex (Digest.string (Buffer.contents digests)),
    !states,
    List.mapi (fun k name -> (name, failures.(k))) names )

let test_corpus_verdicts () =
  let digest, states, failures = corpus_verdicts () in
  Alcotest.(check int) "corpus states" 693_000 states;
  Alcotest.(check (list (pair string int))) "failures per invariant" [
      ("valid_refs_inv", 309);
      ("no_dangling_access", 0);
      ("free_only_garbage", 14);
      ("worklists_disjoint", 157);
      ("valid_W_inv", 6074);
      ("tso_ownership", 0);
      ("tso_lock_scope", 0);
      ("gc_fM_coherent", 0);
      ("sys_phase_inv", 1160);
      ("fA_fM_relation", 205);
      ("no_black_refs_init", 8623);
      ("idle_heap_uniform", 7099);
      ("marked_insertions", 902);
      ("marked_deletions", 504);
      ("reachable_snapshot_inv", 4479);
      ("gc_W_empty_mut_inv", 0);
      ("weak_tricolor_inv", 99);
      ("strong_tricolor_inv", 70);
    ] failures;
  Alcotest.(check string) "verdict digest" "24a794402467976a77f70515fd14cb7d" digest

let suite =
  [
    Alcotest.test_case "valid_refs_inv is refutable" `Quick test_valid_refs_refutable;
    Alcotest.test_case "no_dangling is refutable" `Quick test_no_dangling_refutable;
    Alcotest.test_case "worklists_disjoint: overlap" `Quick test_worklists_disjoint_refutable;
    Alcotest.test_case "worklists_disjoint: duplicates" `Quick test_worklists_dup_refutable;
    Alcotest.test_case "valid_W_inv is refutable" `Quick test_valid_w_refutable;
    Alcotest.test_case "valid_W_inv honours the lock exemption" `Quick test_valid_w_lock_exemption;
    Alcotest.test_case "tso_ownership is refutable" `Quick test_tso_ownership_refutable;
    Alcotest.test_case "gc_fM_coherent is refutable" `Quick test_gc_fm_refutable;
    Alcotest.test_case "sys_phase_inv is refutable" `Quick test_phase_inv_refutable;
    Alcotest.test_case "fA_fM_relation is refutable" `Quick test_fa_fm_refutable;
    Alcotest.test_case "no_black_refs_init is refutable" `Quick test_no_black_refs_refutable;
    Alcotest.test_case "idle_heap_uniform is refutable" `Quick test_idle_uniform_refutable;
    Alcotest.test_case "marked_insertions is refutable" `Quick test_marked_insertions_refutable;
    Alcotest.test_case "marked_deletions is refutable" `Quick test_marked_deletions_refutable;
    Alcotest.test_case "reachable_snapshot_inv is refutable" `Quick test_snapshot_refutable;
    Alcotest.test_case "gc_W_empty_mut_inv is refutable" `Quick test_gc_w_empty_refutable;
    Alcotest.test_case "weak_tricolor is refutable" `Quick test_weak_tricolor_refutable;
    Alcotest.test_case "weak_tricolor accepts grey protection" `Quick test_weak_tricolor_accepts_protected;
    Alcotest.test_case "strong_tricolor is refutable" `Quick test_strong_tricolor_refutable;
    Alcotest.test_case "free_only_garbage vacuous off-label" `Quick test_free_only_garbage_vacuous_off_label;
    Alcotest.test_case "ablated guards disable cleanly" `Quick test_ablated_guards_disable;
    Alcotest.test_case "catalogue metadata" `Quick test_catalogue_metadata;
    Alcotest.test_case "verdicts pinned on a walk corpus" `Quick test_corpus_verdicts;
  ]

(* Tests for the litmus harness over the collector's Sys process (Fig. 9):
   the catalogue's published classifications, the PSO probes, the
   atomicity of LOCK XCHG in every memory mode, and random-program
   properties that relate the three modes to each other. *)

module L = Tso.Litmus
module Cfg = Core.Config

let x = 0
let y = 1
let modes = [ ("TSO", Cfg.TSO); ("SC", Cfg.SC); ("PSO", Cfg.PSO) ]

let outcomes mode test = fst (L.outcomes ~mode test)

(* A test observing every register of every thread and both locations. *)
let observing_all threads =
  {
    L.name = "gen";
    description = "";
    mem_size = 2;
    n_regs = 2;
    threads;
    observed_regs = List.concat (List.mapi (fun t _ -> [ (t, 0); (t, 1) ]) threads);
    observed_mem = [ x; y ];
    target = [];
    allowed_tso = false;
    allowed_sc = false;
  }

(* -- Litmus catalogue ------------------------------------------------------ *)

let test_catalogue_classifications () =
  List.iter
    (fun (v : L.verdict) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s matches x86-TSO" v.L.test.L.name)
        true v.L.ok)
    (Tso.Catalog.run_all ())

let test_sb_outcome_sets () =
  let v = L.run Tso.Catalog.sb in
  (* under SC, exactly the three Dekker outcomes *)
  Alcotest.(check int) "SC outcome count" 3 (List.length v.L.sc_outcomes);
  Alcotest.(check int) "TSO outcome count" 4 (List.length v.L.tso_outcomes);
  Alcotest.(check bool) "TSO strictly richer" true
    (List.for_all (fun o -> List.mem o v.L.tso_outcomes) v.L.sc_outcomes)

let test_tso_explores_more_states () =
  let _, tso = L.outcomes ~mode:Cfg.TSO Tso.Catalog.sb in
  let _, sc = L.outcomes ~mode:Cfg.SC Tso.Catalog.sb in
  Alcotest.(check bool) "TSO state space larger" true (tso > sc)

let test_pso_classifications () =
  List.iter
    (fun (name, expect, got) ->
      Alcotest.(check bool) (name ^ " under PSO") expect got)
    (Tso.Catalog.run_pso ())

let test_pso_mp_details () =
  (* the PSO-only outcome: the message arrives before the data *)
  Alcotest.(check bool) "stale read reachable" true
    (List.mem [ 1; 0 ] (outcomes Cfg.PSO Tso.Catalog.mp));
  (* and TSO forbids exactly that one *)
  Alcotest.(check bool) "but not under TSO" false
    (List.mem [ 1; 0 ] (outcomes Cfg.TSO Tso.Catalog.mp))

let test_xchg_is_atomic () =
  (* two racing LOCK XCHGs on one cell: exactly one thread observes 0 *)
  let t = [ L.Xchg (0, x, 1) ] in
  let test =
    {
      L.name = "xchg-race";
      description = "racing atomic exchanges";
      mem_size = 1;
      n_regs = 1;
      threads = [ t; t ];
      observed_regs = [ (0, 0); (1, 0) ];
      observed_mem = [ x ];
      target = [ 0; 0; 1 ];
      allowed_tso = false;
      allowed_sc = false;
    }
  in
  Alcotest.(check (list (list int))) "exactly one winner" [ [ 0; 1; 1 ]; [ 1; 0; 1 ] ]
    (outcomes Cfg.TSO test)

(* [XCHG r0,x,1] || [x := 2]: the plain store lands wholly before or
   wholly after the exchange, in every mode.  (0,1) — the store slipping
   in between the exchange's read and write — is what x86 forbids, and
   SC mode forbids it only because its stores wait for the lock. *)
let test_xchg_vs_store () =
  let test =
    {
      L.name = "xchg+st";
      description = "a LOCK XCHG racing a plain store";
      mem_size = 1;
      n_regs = 1;
      threads = [ [ L.Xchg (0, x, 1) ]; [ L.St (x, 2) ] ];
      observed_regs = [ (0, 0) ];
      observed_mem = [ x ];
      target = [ 0; 1 ];
      allowed_tso = false;
      allowed_sc = false;
    }
  in
  List.iter
    (fun (name, mode) ->
      Alcotest.(check (list (list int))) name [ [ 0; 2 ]; [ 2; 1 ] ] (outcomes mode test))
    modes

(* -- Random programs ------------------------------------------------------- *)

(* 1-4 instructions over two locations: loads, stores of 1-3, MFENCE and
   LOCK XCHG. *)
let gen_thread =
  let open QCheck.Gen in
  let instr =
    frequency
      [
        (3, map2 (fun a v -> L.St (a, v)) (int_bound 1) (int_range 1 3));
        (3, map2 (fun r a -> L.Ld (r, a)) (int_bound 1) (int_bound 1));
        (1, return L.Mf);
        (1, map3 (fun r a v -> L.Xchg (r, a, v)) (int_bound 1) (int_bound 1) (int_range 1 3));
      ]
  in
  list_size (int_range 1 4) instr

let pp_instr = function
  | L.Ld (r, a) -> Printf.sprintf "r%d:=[%d]" r a
  | L.St (a, v) -> Printf.sprintf "[%d]:=%d" a v
  | L.Mf -> "mfence"
  | L.Xchg (r, a, v) -> Printf.sprintf "xchg(r%d,[%d],%d)" r a v

let program gen =
  QCheck.make
    ~print:(fun threads ->
      String.concat " || "
        (List.map (fun th -> "[" ^ String.concat "; " (List.map pp_instr th) ^ "]") threads))
    ~shrink:QCheck.Shrink.(list_elems list_spine)
    gen

let concurrent = program QCheck.Gen.(int_range 2 3 >>= fun n -> list_repeat n gen_thread)
let single = program QCheck.Gen.(map (fun th -> [ th ]) gen_thread)
let subset a b = List.for_all (fun o -> List.mem o b) a

(* (a) each mode admits every behaviour of the stronger one. *)
let prop_modes_nest =
  QCheck.Test.make ~name:"SC outcomes <= TSO outcomes <= PSO outcomes" ~count:300 concurrent
    (fun threads ->
      let test = observing_all threads in
      let sc = outcomes Cfg.SC test
      and tso = outcomes Cfg.TSO test
      and pso = outcomes Cfg.PSO test in
      subset sc tso && subset tso pso)

(* (b) an MFENCE after every store leaves nothing for a buffer to reorder. *)
let prop_fenced_modes_agree =
  QCheck.Test.make ~name:"fenced stores: TSO = SC = PSO" ~count:300 concurrent (fun threads ->
      let fence = List.concat_map (function L.St _ as i -> [ i; L.Mf ] | i -> [ i ]) in
      let test = observing_all (List.map fence threads) in
      let tso = outcomes Cfg.TSO test in
      outcomes Cfg.SC test = tso && outcomes Cfg.PSO test = tso)

(* (c) relaxations need concurrency to be observable. *)
let prop_single_thread_modes_agree =
  QCheck.Test.make ~name:"one thread: TSO = SC = PSO" ~count:300 single (fun threads ->
      let test = observing_all threads in
      let tso = outcomes Cfg.TSO test in
      outcomes Cfg.SC test = tso && outcomes Cfg.PSO test = tso)

let suite =
  [
    Alcotest.test_case "litmus catalogue matches x86-TSO" `Quick test_catalogue_classifications;
    Alcotest.test_case "SB outcome sets (3 vs 4)" `Quick test_sb_outcome_sets;
    Alcotest.test_case "TSO reaches more states than SC" `Quick test_tso_explores_more_states;
    Alcotest.test_case "PSO probe classifications" `Quick test_pso_classifications;
    Alcotest.test_case "PSO admits MP's stale read; TSO does not" `Quick test_pso_mp_details;
    Alcotest.test_case "LOCK XCHG is atomic" `Quick test_xchg_is_atomic;
    Alcotest.test_case "LOCK XCHG vs a plain store, every mode" `Quick test_xchg_vs_store;
    QCheck_alcotest.to_alcotest prop_modes_nest;
    QCheck_alcotest.to_alcotest prop_fenced_modes_agree;
    QCheck_alcotest.to_alcotest prop_single_thread_modes_agree;
  ]

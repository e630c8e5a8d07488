(* Unit tests for the collector model's building blocks: the Sys process's
   responses (TSO reads/writes, fences, the lock, allocation, work-lists,
   handshake ghosts), the colour interpretation, and model assembly across
   every variant. *)

open Core.Types
module St = Core.State
module Cfg = Core.Config

let cfg = { Cfg.default with n_muts = 2; n_refs = 3; n_fields = 1 }

let shape = Gcheap.Shapes.single ~n_refs:3 ~n_fields:1

let sd0 () = Core.Model.initial_sys_data cfg shape

let sys_of sd = St.L_sys sd

(* Run one response and project the new sys data and value. *)
let respond ?(cfg = cfg) sd req ~from =
  match Core.Sysproc.respond cfg from req (sys_of sd) with
  | [ (St.L_sys sd', v) ] -> (sd', v)
  | [] -> Alcotest.fail "request unexpectedly blocked"
  | _ -> Alcotest.fail "expected a single deterministic response"

let blocked sd req ~from = Core.Sysproc.respond cfg from req (sys_of sd) = []

let gc = Cfg.pid_gc
let mut0 = Cfg.pid_mut cfg 0
let mut1 = Cfg.pid_mut cfg 1

(* -- TSO reads and writes -------------------------------------------------- *)

let test_write_buffers_then_commits () =
  let sd, _ = respond (sd0 ()) (Req_write (W_mark (0, true))) ~from:mut0 in
  Alcotest.(check int) "buffered" 1 (List.length (St.buf_of sd mut0));
  Alcotest.(check (option bool)) "memory stale" (Some false) (Gcheap.Heap.mark sd.St.s_mem.St.heap 0);
  match Core.Sysproc.dequeue cfg (sys_of sd) with
  | [ St.L_sys sd' ] ->
    Alcotest.(check (option bool)) "committed" (Some true) (Gcheap.Heap.mark sd'.St.s_mem.St.heap 0);
    Alcotest.(check int) "drained" 0 (List.length (St.buf_of sd' mut0))
  | _ -> Alcotest.fail "one dequeue expected"

let test_read_forwards_own_buffer () =
  let sd, _ = respond (sd0 ()) (Req_write (W_mark (0, true))) ~from:mut0 in
  let _, v = respond sd (Req_read (L_mark 0)) ~from:mut0 in
  Alcotest.(check bool) "own buffered value" true (v = V_bool true);
  let _, v' = respond sd (Req_read (L_mark 0)) ~from:mut1 in
  Alcotest.(check bool) "other thread reads memory" true (v' = V_bool false)

let test_buffer_bound_blocks () =
  let sd, _ = respond (sd0 ()) (Req_write (W_mark (0, true))) ~from:mut0 in
  (* default bound in this cfg is 2 *)
  let sd, _ = respond sd (Req_write (W_mark (1, true))) ~from:mut0 in
  Alcotest.(check bool) "third write blocks" true
    (blocked sd (Req_write (W_mark (2, true))) ~from:mut0)

let test_mfence_requires_empty_buffer () =
  let sd = sd0 () in
  let sd', _ = respond sd (Req_write (W_fA true)) ~from:gc in
  Alcotest.(check bool) "fence blocked" true (blocked sd' Req_mfence ~from:gc);
  Alcotest.(check bool) "fence passes when empty" false (blocked sd Req_mfence ~from:gc)

let test_lock_protocol () =
  let sd, _ = respond (sd0 ()) Req_lock ~from:mut0 in
  Alcotest.(check (option int)) "held" (Some mut0) sd.St.s_lock;
  Alcotest.(check bool) "relock blocked" true (blocked sd Req_lock ~from:mut1);
  Alcotest.(check bool) "reads of others blocked" true (blocked sd (Req_read L_fA) ~from:mut1);
  Alcotest.(check bool) "holder reads fine" false (blocked sd (Req_read L_fA) ~from:mut0);
  (* unlock with pending write is blocked; drain first *)
  let sd, _ = respond sd (Req_write (W_mark (0, true))) ~from:mut0 in
  Alcotest.(check bool) "unlock needs empty buffer" true (blocked sd Req_unlock ~from:mut0);
  let sd = match Core.Sysproc.dequeue cfg (sys_of sd) with [ St.L_sys s ] -> s | _ -> Alcotest.fail "?" in
  let sd, _ = respond sd Req_unlock ~from:mut0 in
  Alcotest.(check (option int)) "released" None sd.St.s_lock

let test_lock_blocks_other_commits () =
  let sd, _ = respond (sd0 ()) (Req_write (W_mark (0, true))) ~from:mut1 in
  let sd, _ = respond sd Req_lock ~from:mut0 in
  Alcotest.(check int) "mut1's commit blocked while mut0 holds the lock" 0
    (List.length (Core.Sysproc.dequeue cfg (sys_of sd)))

let test_sc_memory_commits_at_once () =
  let cfg_sc = { cfg with Cfg.memory = Cfg.SC } in
  match Core.Sysproc.respond cfg_sc mut0 (Req_write (W_mark (0, true))) (sys_of (sd0 ())) with
  | [ (St.L_sys sd', V_unit) ] ->
    Alcotest.(check (option bool)) "visible" (Some true) (Gcheap.Heap.mark sd'.St.s_mem.St.heap 0);
    Alcotest.(check int) "no buffering" 0 (List.length (St.buf_of sd' mut0))
  | _ -> Alcotest.fail "single response expected"

(* An SC store commits at once, so like a commit it waits while another
   process holds the lock: a LOCK'd exchange stays atomic. *)
let test_sc_write_waits_for_lock () =
  let cfg_sc = { cfg with Cfg.memory = Cfg.SC } in
  let sd, _ = respond (sd0 ()) Req_lock ~from:mut0 in
  let write = Req_write (W_mark (0, true)) in
  Alcotest.(check int) "blocked while mut0 holds the lock" 0
    (List.length (Core.Sysproc.respond cfg_sc mut1 write (sys_of sd)));
  Alcotest.(check int) "the holder writes" 1
    (List.length (Core.Sysproc.respond cfg_sc mut0 write (sys_of sd)))

let field_write v = W_field (0, 0, Some v)

let test_forwarding_newest_wins () =
  let sd, _ = respond (sd0 ()) (Req_write (field_write 1)) ~from:mut0 in
  let sd, _ = respond sd (Req_write (field_write 2)) ~from:mut0 in
  let _, v = respond sd (Req_read (L_field (0, 0))) ~from:mut0 in
  Alcotest.(check bool) "newest buffered write wins" true (v = V_ref (Some 2))

(* The commits Sys offers for a buffer of three writes: two to field 0.f0,
   then one to f_A. *)
let commits mode =
  let cfg = { cfg with Cfg.memory = mode; buf_bound = 3 } in
  let sd =
    List.fold_left
      (fun sd w -> fst (respond ~cfg sd (Req_write w) ~from:mut0))
      (sd0 ())
      [ field_write 1; field_write 2; W_fA true ]
  in
  List.map
    (fun s ->
      let m = (St.sys s).St.s_mem in
      (Gcheap.Heap.field m.St.heap 0 0, m.St.fA))
    (Core.Sysproc.dequeue cfg (sys_of sd))

let test_fifo_commit_order () =
  Alcotest.(check (list (pair (option int) bool))) "TSO commits only the oldest write"
    [ (Some 1, false) ] (commits Cfg.TSO)

let test_pso_commit_order () =
  Alcotest.(check (list (pair (option int) bool)))
    "PSO may commit f_A early, never the newer write to 0.f0"
    [ (None, true); (Some 1, false) ]
    (List.sort compare (commits Cfg.PSO))

(* The memory mode renders as two flags, the form that configuration
   hashes and stored certificate headers hash. *)
let test_memory_modes_describe () =
  List.iter
    (fun (name, sc, pso) ->
      let v = Option.get (Core.Variants.by_name name) in
      Alcotest.(check string) name
        (Printf.sprintf
           "muts=1;refs=3;fields=1;buf=2;sc=%d;pso=%d;del=1;ins=1;o2=0;allocw=0;hsf=1;o1=0;cas=1;load=1;store=1;alloc=1;discard=1;mfence=1;cycles=0;ops=0;mutation=-"
           sc pso)
        (Cfg.describe (v.Core.Variants.tweak Cfg.default)))
    [ ("paper", 0, 0); ("sc-memory", 1, 0); ("pso-memory", 0, 1) ]

let test_dangling_access_flagged () =
  let sd, v = respond (sd0 ()) (Req_read (L_mark 2)) ~from:mut0 in
  Alcotest.(check bool) "default value" true (v = V_bool false);
  Alcotest.(check bool) "dangling recorded" true sd.St.s_dangling

(* -- Allocation and free ---------------------------------------------------- *)

let test_alloc_nondet_over_free_refs () =
  let sd = sd0 () in
  let succs = Core.Sysproc.respond cfg mut0 (Req_alloc true) (sys_of sd) in
  (* refs 1 and 2 are free in the "single" shape *)
  Alcotest.(check int) "one successor per free ref" 2 (List.length succs);
  List.iter
    (fun (s, v) ->
      match (s, v) with
      | St.L_sys sd', V_ref (Some r) ->
        Alcotest.(check bool) "installed" true (Gcheap.Heap.valid_ref sd'.St.s_mem.St.heap r);
        Alcotest.(check (option bool)) "mark" (Some true) (Gcheap.Heap.mark sd'.St.s_mem.St.heap r)
      | _ -> Alcotest.fail "alloc shape")
    succs

let test_alloc_full_heap_returns_null () =
  let sd = sd0 () in
  let sd = { sd with St.s_mem = { sd.St.s_mem with St.heap = (Gcheap.Shapes.chain ~n_refs:3 ~n_fields:1 3).Gcheap.Shapes.heap } } in
  let _, v = respond sd (Req_alloc false) ~from:mut0 in
  Alcotest.(check bool) "NULL on exhaustion" true (v = V_ref None)

let test_free_removes () =
  let sd, _ = respond (sd0 ()) (Req_free 0) ~from:gc in
  Alcotest.(check bool) "gone" false (Gcheap.Heap.valid_ref sd.St.s_mem.St.heap 0)

(* -- Work-lists and ghost honorary grey ------------------------------------- *)

let test_wl_add_dedup_and_ghg_clear () =
  let sd = St.set_ghg (sd0 ()) mut0 (Some 0) in
  let sd, _ = respond sd (Req_wl_add 0) ~from:mut0 in
  let sd, _ = respond sd (Req_wl_add 0) ~from:mut0 in
  Alcotest.(check (list int)) "deduplicated" [ 0 ] (St.wl_of sd mut0);
  Alcotest.(check (option int)) "ghg retired" None (St.ghg_of sd mut0)

let test_wl_transfer_is_atomic_union () =
  let sd = St.set_wl (St.set_wl (sd0 ()) mut0 [ 1; 2 ]) gc [ 0 ] in
  let sd, _ = respond sd Req_wl_transfer ~from:mut0 in
  Alcotest.(check (list int)) "collector union" [ 0; 1; 2 ] (St.wl_of sd gc);
  Alcotest.(check (list int)) "mutator emptied" [] (St.wl_of sd mut0)

let test_wl_pick_nondet_no_removal () =
  let sd = St.set_wl (sd0 ()) gc [ 1; 2 ] in
  let succs = Core.Sysproc.respond cfg gc Req_wl_pick (sys_of sd) in
  Alcotest.(check int) "one pick per grey" 2 (List.length succs);
  List.iter
    (fun (s, _) ->
      match s with
      | St.L_sys sd' -> Alcotest.(check (list int)) "no removal" [ 1; 2 ] (St.wl_of sd' gc)
      | _ -> Alcotest.fail "sys state expected")
    succs;
  let _, v = respond (St.set_wl (sd0 ()) gc []) Req_wl_pick ~from:gc in
  Alcotest.(check bool) "empty pick is None" true (v = V_ref None)

let test_wl_remove_blackens () =
  let sd = St.set_wl (sd0 ()) gc [ 1; 2 ] in
  let sd, _ = respond sd (Req_wl_remove 1) ~from:gc in
  Alcotest.(check (list int)) "removed" [ 2 ] (St.wl_of sd gc)

let test_write_ghg_atomic () =
  let sd, _ = respond (sd0 ()) (Req_write_ghg (W_mark (0, true), 0)) ~from:mut0 in
  Alcotest.(check (option int)) "ghg set with the store" (Some 0) (St.ghg_of sd mut0);
  Alcotest.(check int) "store buffered" 1 (List.length (St.buf_of sd mut0))

(* -- Handshake ghost structure ---------------------------------------------- *)

let test_handshake_ghosts () =
  let sd = sd0 () in
  Alcotest.(check bool) "initially done" true (St.hs_done sd 0 && St.hs_done sd 1);
  let sd, _ = respond sd (Req_hs_begin Hs_nop1) ~from:gc in
  Alcotest.(check bool) "begin clears done" false (St.hs_done sd 0 || St.hs_done sd 1);
  let sd, _ = respond sd (Req_hs_set 0) ~from:gc in
  Alcotest.(check bool) "bit up" true (St.hs_bit sd 0);
  let _, v = respond sd Req_hs_poll ~from:gc in
  Alcotest.(check bool) "poll sees pending" true (v = V_bool true);
  let _, v = respond sd Req_hs_read ~from:mut0 in
  Alcotest.(check bool) "mutator reads type+bit" true (v = V_hs (Hs_nop1, true));
  let sd, _ = respond sd Req_hs_done ~from:mut0 in
  Alcotest.(check bool) "bit down" false (St.hs_bit sd 0);
  Alcotest.(check bool) "done recorded" true (St.hs_done sd 0);
  Alcotest.(check bool) "mut0 now in hp_Idle" true (St.mut_hp sd 0 = Hp_idle);
  Alcotest.(check bool) "mut1 still pre-round" true (St.mut_hp sd 1 = Hp_idle_mark_sweep);
  let sd, _ = respond sd (Req_hs_set 1) ~from:gc in
  let sd, _ = respond sd Req_hs_done ~from:mut1 in
  let _, v = respond sd Req_hs_poll ~from:gc in
  Alcotest.(check bool) "poll clear after both" true (v = V_bool false)

let test_mut_black_transitions () =
  let sd = sd0 () in
  Alcotest.(check bool) "initially black (pre-cycle)" true (St.mut_black sd 0);
  let sd, _ = respond sd (Req_hs_begin Hs_nop1) ~from:gc in
  let sd, _ = respond sd (Req_hs_set 0) ~from:gc in
  let sd, _ = respond sd Req_hs_done ~from:mut0 in
  Alcotest.(check bool) "white after idle sync" false (St.mut_black sd 0);
  let sd, _ = respond sd (Req_hs_begin Hs_get_roots) ~from:gc in
  let sd, _ = respond sd (Req_hs_set 0) ~from:gc in
  Alcotest.(check bool) "still white mid-round" false (St.mut_black sd 0);
  let sd, _ = respond sd Req_hs_done ~from:mut0 in
  Alcotest.(check bool) "black after roots sampled" true (St.mut_black sd 0)

(* -- Colours ----------------------------------------------------------------- *)

let test_colour_interpretation () =
  let sd = sd0 () in
  (* object 0 exists with mark=false, fM=false: marked, not grey => black *)
  Alcotest.(check bool) "black" true (Core.Color.is_black cfg sd 0);
  let sd = St.set_wl sd mut0 [ 0 ] in
  Alcotest.(check bool) "greyed by the work-list" true (Core.Color.is_grey cfg sd 0);
  Alcotest.(check bool) "no longer black" false (Core.Color.is_black cfg sd 0);
  (* flip the sense: 0 becomes white while still grey — the CAS window *)
  let sd = { sd with St.s_mem = { sd.St.s_mem with St.fM = true } } in
  Alcotest.(check bool) "white" true (Core.Color.is_white sd 0);
  Alcotest.(check bool) "white and grey overlap" true (Core.Color.is_grey cfg sd 0)

let test_ghg_counts_as_grey () =
  let sd = St.set_ghg (sd0 ()) mut1 (Some 0) in
  Alcotest.(check bool) "honorary grey" true (Core.Color.is_grey cfg sd 0);
  Alcotest.(check (list int)) "in the grey set" [ 0 ] (Core.Color.greys cfg sd)

let test_grey_protection_in_colours () =
  (* heap: grey 0 -> white 1; white 2 unprotected *)
  let heap = (Gcheap.Shapes.chain ~n_refs:3 ~n_fields:1 2).Gcheap.Shapes.heap in
  let heap = Gcheap.Heap.alloc heap 2 ~mark:false in
  let heap = Gcheap.Heap.set_mark heap 0 true in
  let sd = sd0 () in
  let sd = { sd with St.s_mem = { sd.St.s_mem with St.heap; St.fM = true } } in
  let sd = St.set_wl sd gc [ 0 ] in
  Alcotest.(check bool) "1 protected" true (Core.Color.is_grey_protected cfg sd 1);
  Alcotest.(check bool) "2 not protected" false (Core.Color.is_grey_protected cfg sd 2)

(* -- Buffered insertions/deletions ------------------------------------------ *)

let test_buffered_deletions_with_overrides () =
  (* heap: 0.f0 = 1 committed.  Buffer: write 0.f0 := 2 then 0.f0 := NULL.
     Deletions: 1 (overwritten by the first write) and 2 (overwritten by
     the second, after the first's effect). *)
  let heap = (Gcheap.Shapes.single ~n_refs:3 ~n_fields:1).Gcheap.Shapes.heap in
  let heap = Gcheap.Heap.alloc (Gcheap.Heap.alloc heap 1 ~mark:false) 2 ~mark:false in
  let heap = Gcheap.Heap.set_field heap 0 0 (Some 1) in
  let sd = sd0 () in
  let sd = { sd with St.s_mem = { sd.St.s_mem with St.heap } } in
  let sd = St.set_buf sd mut0 [ W_field (0, 0, Some 2); W_field (0, 0, None) ] in
  Alcotest.(check (list int)) "both deletions seen" [ 1; 2 ]
    (Core.Invariants.buffered_deletions sd mut0);
  Alcotest.(check (list int)) "insertion seen" [ 2 ] (Core.Invariants.buffered_insertions sd mut0)

(* -- Model assembly ----------------------------------------------------------- *)

let test_model_builds_for_all_variants () =
  List.iter
    (fun (v : Core.Variants.t) ->
      let c = v.Core.Variants.tweak { cfg with Cfg.n_muts = 2 } in
      let m = Core.Model.make c shape in
      Alcotest.(check int)
        (v.Core.Variants.name ^ " process count")
        4
        (Cimp.System.n_procs m.Core.Model.system))
    Core.Variants.all

(* No request names its sender, so the mutator program is built once and
   every mutator slot runs it. *)
let test_mutators_share_one_program () =
  let c = { cfg with Cfg.n_muts = 3 } in
  let sys = (Core.Model.make c shape).Core.Model.system in
  let head p = List.hd (Cimp.System.proc sys p).Cimp.Com.stack in
  let mut m = head (Cfg.pid_mut c m) in
  Alcotest.(check bool) "mut1 runs mut0's program" true (mut 1 == mut 0);
  Alcotest.(check bool) "mut2 runs mut0's program" true (mut 2 == mut 0);
  Alcotest.(check bool) "the collector runs its own" false (head Cfg.pid_gc == mut 0)

let test_initial_invariants_hold_on_all_shapes () =
  List.iter
    (fun (s : Gcheap.Shapes.t) ->
      let c = { cfg with Cfg.n_refs = 4 } in
      let m = Core.Model.make c s in
      List.iter
        (fun (i : Core.Invariants.t) ->
          Alcotest.(check bool)
            (s.Gcheap.Shapes.name ^ " / " ^ i.Core.Invariants.name)
            true
            (i.Core.Invariants.check m.Core.Model.system))
        (Core.Invariants.all c))
    (Gcheap.Shapes.all ~n_refs:4 ~n_fields:1)

let test_dangling_root_caught () =
  (* a shape whose mutator roots point at nothing must violate safety *)
  let s = Gcheap.Shapes.empty ~n_refs:3 ~n_fields:1 in
  let s = { s with Gcheap.Shapes.roots = [ [ 1 ] ] } in
  let m = Core.Model.make { cfg with Cfg.n_muts = 1 } s in
  let v = Core.Invariants.valid_refs_inv { cfg with Cfg.n_muts = 1 } in
  Alcotest.(check bool) "violation detected" false (v.Core.Invariants.check m.Core.Model.system)

(* -- Shapes must fit the reference universe ----------------------------------- *)

let misfit_message refs name =
  let c = { cfg with Cfg.n_refs = refs } in
  match Gcheap.Shapes.by_name ~n_refs:refs ~n_fields:1 name with
  | None -> Alcotest.fail ("no shape " ^ name)
  | Some s -> (
    match Core.Model.make c s with
    | _ -> None
    | exception Invalid_argument msg -> Some msg)

let test_misfit_shapes_rejected () =
  (* shared allocates ref 2 and points refs 0 and 1 at it; a 2-ref heap
     drops that allocation but keeps the fields, a spurious dangling
     pointer that made the paper's collector look unsafe *)
  Alcotest.(check (option string)) "shared at 2 refs"
    (Some "Model.make: shape shared needs 3 refs, but the configuration has 2")
    (misfit_message 2 "shared");
  Alcotest.(check (option string)) "fig1 at 2 refs"
    (Some "Model.make: shape fig1 needs 4 refs, but the configuration has 2")
    (misfit_message 2 "fig1");
  Alcotest.(check (option string)) "fig1 at 3 refs"
    (Some "Model.make: shape fig1 needs 4 refs, but the configuration has 3")
    (misfit_message 3 "fig1");
  Alcotest.(check (option string)) "shared fits 3 refs" None (misfit_message 3 "shared");
  Alcotest.(check (option string)) "fig1 fits 4 refs" None (misfit_message 4 "fig1")

(* [s] with its first [sub] replaced by [by]. *)
let replace ~sub ~by s =
  let n = String.length sub in
  let rec at i =
    if i + n > String.length s then Alcotest.failf "%s not found" sub
    else if String.sub s i n = sub then i
    else at (i + 1)
  in
  let i = at 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

(* Run a built tool of bin/ (gcmodel.exe by default): its exit code,
   stdout lines and stderr lines. *)
let run_tool_output ?(exe = "gcmodel.exe") args =
  let build_dir = Filename.dirname (Filename.dirname Sys.executable_name) in
  let tool = Filename.concat (Filename.concat build_dir "bin") exe in
  let out = Filename.temp_file "gcmodel" ".out" and err = Filename.temp_file "gcmodel" ".err" in
  let code = Sys.command (Filename.quote_command tool ~stdout:out ~stderr:err args) in
  let lines file = In_channel.with_open_text file In_channel.input_lines in
  let out_lines = lines out and err_lines = lines err in
  Sys.remove out;
  Sys.remove err;
  (code, out_lines, err_lines)

(* Its exit code and stderr lines. *)
let run_tool ?exe args =
  let code, _, err = run_tool_output ?exe args in
  (code, err)

(* The command line turns the rejection into one line on stderr and a
   non-zero exit, for `explore --shape shared --refs 2` and
   `--shape fig1 --refs 2` alike.  So it does for every other flag value
   the model cannot take, naming the value or the bound's field, for a
   --jobs outside 1..64, a --checkpoint-every below 1, a walk --steps or
   harness --muts below 0 and a campaign --budget or --muts below 1,
   naming the flag, and for a disk failure, naming the path; each exits
   1.  cimpc and litmus refuse an unknown
   example, source file or test the same way. *)
let test_cli_misfit_shapes () =
  List.iter
    (fun (shape, needs) ->
      let code, lines = run_tool [ "explore"; "--shape"; shape; "--refs"; "2" ] in
      Alcotest.(check bool) (shape ^ ": non-zero exit") true (code <> 0);
      Alcotest.(check (list string)) (shape ^ ": one-line error")
        [
          Printf.sprintf
            "gcmodel: Model.make: shape %s needs %d refs, but the configuration has 2" shape needs;
        ]
        lines)
    [ ("shared", 3); ("fig1", 4) ];
  let contains ~sub s =
    let n = String.length sub in
    let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
    at 0
  in
  let refused ?exe args bad =
    let what = String.concat " " args in
    match run_tool ?exe args with
    | 1, [ line ] ->
      Alcotest.(check bool) (Printf.sprintf "%s: %S names %s" what line bad) true
        (contains ~sub:bad line)
    | code, lines ->
      Alcotest.failf "%s: exit %d with %d stderr lines, expected exit 1 and one line" what code
        (List.length lines)
  in
  List.iter
    (fun (args, bad) -> refused args bad)
    [
      ([ "explore"; "--variant"; "papr" ], "papr");
      ([ "walk"; "--disable"; "lod" ], "lod");
      ([ "explore"; "--mutant"; "nope" ], "nope");
      ([ "crosscheck"; "--reduce"; "none" ], "none");
      ([ "program"; "bogus" ], "bogus");
      ([ "campaign"; "--operators"; "bogus" ], "bogus");
      ([ "explain"; "--trace"; "/nonexistent/trace.json" ], "/nonexistent/trace.json");
      ([ "explore"; "--buf"; "0" ], "buf");
      ([ "walk"; "--fields"; "0" ], "fields");
      ([ "explore"; "--jobs"; "0" ], "--jobs");
      ([ "explore"; "--jobs"; "65" ], "--jobs");
      ([ "walk"; "--jobs"; "0" ], "--jobs");
      ([ "crosscheck"; "--jobs"; "65" ], "--jobs");
      ([ "resume"; "/nonexistent"; "--jobs"; "0" ], "--jobs");
      ([ "campaign"; "--jobs"; "100" ], "--jobs");
      ([ "explore"; "--checkpoint-every"; "0" ], "--checkpoint-every");
      (* a negative bound would shrink the model until known-unsafe
         variants pass, or fail inside a shape constructor *)
      ([ "explore"; "--variant"; "no-deletion-barrier"; "--cycles=-1" ], "max_cycles");
      ( [ "walk"; "--muts"; "2"; "--refs"; "2"; "--variant"; "no-cas"; "--cycles=-1" ],
        "max_cycles" );
      ( [ "explore"; "--variant"; "no-insertion-barrier"; "--refs"; "2"; "--ops=-1" ],
        "max_mut_ops" );
      ([ "explore"; "--muts=-1" ], "n_muts");
      ([ "explore"; "--fields=-1" ], "n_fields");
      ([ "explore"; "--refs=-2" ], "n_refs");
      ([ "walk"; "--steps=-10" ], "--steps");
      ([ "campaign"; "--budget=-1"; "--operators"; "variant" ], "--budget");
      ([ "campaign"; "--budget=0" ], "--budget");
      ([ "campaign"; "--muts=0" ], "--muts");
      ([ "harness"; "--muts=-1" ], "--muts");
    ];
  refused ~exe:"cimpc.exe" [ "run"; "-e"; "counter-race"; "--jobs"; "0" ] "--jobs";
  refused ~exe:"cimpc.exe" [ "run"; "-e"; "nope" ] "nope";
  refused ~exe:"cimpc.exe" [ "check"; "/nonexistent/p.cimp" ] "/nonexistent/p.cimp";
  refused ~exe:"litmus_main.exe" [ "NOPE" ] "NOPE";
  let with_file ext text f =
    let file = Filename.temp_file "gcmodel" ext in
    Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
    Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc text);
    f file
  in
  (* a malformed source names the file, and the position where lexing or
     parsing stopped; pp does not typecheck *)
  List.iter
    (fun (text, cmds, where) ->
      with_file ".cimp" text (fun file ->
          List.iter (fun cmd -> refused ~exe:"cimpc.exe" [ cmd; file ] (file ^ where)) cmds))
    [
      ("process p { var x := ; }\n", [ "check"; "pp"; "run" ], ":1:22: expected expression");
      ("process p { var x := 1 $ }\n", [ "check"; "pp"; "run" ], ":1:24: unexpected character");
      ("process p { var x := true; x := x + 1; }\n", [ "check"; "run" ], ": expected int");
    ];
  (* explain --trace checks the verdict it replays: the invariant must be
     in the catalogue and fail on the final state *)
  let explain file = [ "explain"; "--muts"; "2"; "--refs"; "2"; "--variant"; "no-cas"; "--trace"; file ] in
  with_file ".json" {|{"broken":"x","schedule":[]}|} (fun file ->
      refused (explain file) (file ^ ": invariant x is not in"));
  with_file ".jsonl" "" (fun obs ->
      let code, _ =
        run_tool
          [ "walk"; "--muts"; "2"; "--refs"; "2"; "--steps"; "200000"; "--variant"; "no-cas"; "--obs=json:" ^ obs ]
      in
      Alcotest.(check int) "no-cas walk" 0 code;
      let record =
        List.find
          (contains ~sub:{|"event":"violation"|})
          (In_channel.with_open_bin obs In_channel.input_lines)
      in
      with_file ".json" record (fun file ->
          Alcotest.(check int) "the recorded verdict replays" 0 (fst (run_tool (explain file))));
      let forged =
        replace ~sub:{|"broken":"valid_W_inv"|} ~by:{|"broken":"valid_refs_inv"|} record
      in
      with_file ".json" forged (fun file ->
          refused (explain file) (file ^ ": invariant valid_refs_inv holds after the 173")));
  (* a spill directory under a regular file cannot be created *)
  let file = Filename.temp_file "gcmodel" ".file" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let spill = Filename.concat file "spill" in
  refused
    [ "explore"; "--refs"; "2"; "--ops"; "1"; "--mem-budget"; "8k"; "--spill-dir"; spill ]
    spill

(* `resume` reads the checkpoint's run configuration fail-closed: a
   mistyped or unknown field is refused in one line naming it, with exit
   1, never read as a default; the untouched checkpoint still resumes. *)
let test_cli_resume_config_refused () =
  let dir = Store.Fs.temp_dir "gcmodel-cli" in
  Fun.protect ~finally:(fun () -> Store.Fs.rm_rf dir) @@ fun () ->
  let code, _ =
    run_tool [ "explore"; "--refs"; "2"; "--ops"; "1"; "--reduce"; "none"; "--checkpoint"; dir ]
  in
  Alcotest.(check int) "checkpointed explore" 0 code;
  let manifest = Filename.concat dir "MANIFEST.json" in
  let original = In_channel.with_open_bin manifest In_channel.input_all in
  let write s = Out_channel.with_open_bin manifest (fun oc -> Out_channel.output_string oc s) in
  List.iter
    (fun (field, sub, by) ->
      write (replace ~sub ~by original);
      let code, lines = run_tool [ "resume"; dir ] in
      Alcotest.(check int) (field ^ ": exit 1") 1 code;
      Alcotest.(check (list string)) (field ^ ": one line naming the field")
        [ "gcmodel resume: run configuration: missing or malformed " ^ field ]
        lines)
    [
      ("safety_only", {|"safety_only":false|}, {|"safety_only":"yes"|});
      ("variant", {|"variant":"paper"|}, {|"variant":"papr"|});
      ("variant", {|"variant":"paper",|}, "");
      ("jobs", {|"jobs":1|}, {|"jobs":65|});
      ("checkpoint_every", {|"checkpoint_every":50000|}, {|"checkpoint_every":0|});
      ("muts", {|"muts":1|}, {|"muts":-1|});
      ("refs", {|"refs":2|}, {|"refs":-2|});
      ("fields", {|"fields":1|}, {|"fields":0|});
      ("buf", {|"buf":1|}, {|"buf":0|});
      ("cycles", {|"cycles":1|}, {|"cycles":-1|});
      ("ops", {|"ops":1|}, {|"ops":-1|});
    ];
  write original;
  Alcotest.(check (pair int (list string))) "the untouched checkpoint resumes" (0, [])
    (run_tool [ "resume"; dir ])

let test_hp_mapping () =
  Alcotest.(check bool) "nop1 -> Idle" true (hp_of_hs Hs_nop1 = Hp_idle);
  Alcotest.(check bool) "nop2 -> IdleInit" true (hp_of_hs Hs_nop2 = Hp_idle_init);
  Alcotest.(check bool) "nop3 -> InitMark" true (hp_of_hs Hs_nop3 = Hp_init_mark);
  Alcotest.(check bool) "roots -> IdleMarkSweep" true (hp_of_hs Hs_get_roots = Hp_idle_mark_sweep);
  (* pred walks the cycle of Fig. 3 backwards *)
  Alcotest.(check bool) "pred nop1 = get-work (cycle wrap)" true (hs_pred Hs_nop1 = Hs_get_work);
  Alcotest.(check bool) "pred nop2 = nop1" true (hs_pred Hs_nop2 = Hs_nop1);
  Alcotest.(check bool) "pred nop3 = nop2" true (hs_pred Hs_nop3 = Hs_nop2);
  Alcotest.(check bool) "pred nop4 = nop3" true (hs_pred Hs_nop4 = Hs_nop3);
  Alcotest.(check bool) "pred roots = nop4" true (hs_pred Hs_get_roots = Hs_nop4)

let suite =
  [
    Alcotest.test_case "writes buffer then commit" `Quick test_write_buffers_then_commits;
    Alcotest.test_case "reads forward from the own buffer" `Quick test_read_forwards_own_buffer;
    Alcotest.test_case "bounded buffers block" `Quick test_buffer_bound_blocks;
    Alcotest.test_case "mfence waits for the buffer" `Quick test_mfence_requires_empty_buffer;
    Alcotest.test_case "lock protocol (Fig. 9)" `Quick test_lock_protocol;
    Alcotest.test_case "lock blocks other commits" `Quick test_lock_blocks_other_commits;
    Alcotest.test_case "SC ablation commits at once" `Quick test_sc_memory_commits_at_once;
    Alcotest.test_case "SC writes wait for another's lock" `Quick test_sc_write_waits_for_lock;
    Alcotest.test_case "forwarding: newest store wins" `Quick test_forwarding_newest_wins;
    Alcotest.test_case "buffers commit in FIFO order" `Quick test_fifo_commit_order;
    Alcotest.test_case "PSO commits per-location FIFO" `Quick test_pso_commit_order;
    Alcotest.test_case "memory modes keep their describe" `Quick test_memory_modes_describe;
    Alcotest.test_case "dangling access is flagged" `Quick test_dangling_access_flagged;
    Alcotest.test_case "allocation is nondeterministic over free refs" `Quick test_alloc_nondet_over_free_refs;
    Alcotest.test_case "allocation returns NULL when full" `Quick test_alloc_full_heap_returns_null;
    Alcotest.test_case "free removes from the domain" `Quick test_free_removes;
    Alcotest.test_case "wl-add dedups and retires the ghg" `Quick test_wl_add_dedup_and_ghg_clear;
    Alcotest.test_case "wl-transfer is an atomic union" `Quick test_wl_transfer_is_atomic_union;
    Alcotest.test_case "wl-pick is nondeterministic, no removal" `Quick test_wl_pick_nondet_no_removal;
    Alcotest.test_case "wl-remove blackens" `Quick test_wl_remove_blackens;
    Alcotest.test_case "the marking store sets ghg atomically" `Quick test_write_ghg_atomic;
    Alcotest.test_case "handshake bits and ghosts" `Quick test_handshake_ghosts;
    Alcotest.test_case "mutators blacken at get-roots" `Quick test_mut_black_transitions;
    Alcotest.test_case "colour interpretation incl. overlap" `Quick test_colour_interpretation;
    Alcotest.test_case "honorary greys are grey" `Quick test_ghg_counts_as_grey;
    Alcotest.test_case "grey protection" `Quick test_grey_protection_in_colours;
    Alcotest.test_case "buffered deletions respect FIFO overrides" `Quick test_buffered_deletions_with_overrides;
    Alcotest.test_case "every variant assembles" `Quick test_model_builds_for_all_variants;
    Alcotest.test_case "every mutator slot runs one program" `Quick test_mutators_share_one_program;
    Alcotest.test_case "initial states satisfy the catalogue" `Quick test_initial_invariants_hold_on_all_shapes;
    Alcotest.test_case "dangling roots violate valid_refs_inv" `Quick test_dangling_root_caught;
    Alcotest.test_case "handshake-phase mapping" `Quick test_hp_mapping;
    Alcotest.test_case "shapes that do not fit are rejected" `Quick test_misfit_shapes_rejected;
    Alcotest.test_case "gcmodel refuses misfit shapes in one line" `Quick test_cli_misfit_shapes;
    Alcotest.test_case "gcmodel resume refuses a malformed run configuration" `Quick
      test_cli_resume_config_refused;
  ]

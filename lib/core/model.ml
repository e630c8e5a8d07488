(* Assembly of the full model:  GC || M1 || ... || Mn || Sys  (Section 3.1).

   The initial state places the collector at the top of its loop (about to
   run the idle-sync handshake of Fig. 2 lines 3-4), the mutators at their
   top-of-loop GC-safe points, and Sys with: the shape's heap (all objects
   marked with the current sense, i.e. black), f_A = f_M, phase = Idle,
   empty buffers and work-lists, no lock, and the ghost handshake state
   recording a just-completed termination round — exactly the paper's
   steady idle configuration ("the collector is idle to begin with ...
   at this point the entire heap is black"). *)

open Types

type sys = (req, value, State.t) Cimp.System.t

type t = { cfg : Config.t; shape : Gcheap.Shapes.t; system : sys }

(* No request names its sender, so every mutator slot runs one program. *)
let programs cfg =
  let mutator = Mutator.process cfg in
  [ Collector.process cfg ] @ List.init cfg.Config.n_muts (fun _ -> mutator) @ [ Sysproc.process cfg ]

(* Labels must be unique within each process for control fingerprinting;
   a program shared by several slots is checked once. *)
let check_labels cfg coms =
  List.iteri
    (fun p com ->
      let shared = List.exists (( == ) com) (List.filteri (fun q _ -> q < p) coms) in
      match if shared then [] else Cimp.Com.duplicate_labels com with
      | [] -> ()
      | dups ->
        invalid_arg
          (Fmt.str "Model: duplicate labels in %s: %a" (Config.proc_name cfg p)
             Fmt.(list ~sep:comma Cimp.Label.pp)
             dups))
    coms

let initial_sys_data cfg (shape : Gcheap.Shapes.t) =
  let n_soft = Config.n_software cfg in
  {
    State.s_mem = { State.fA = false; fM = false; phase = Ph_idle; heap = shape.Gcheap.Shapes.heap };
    s_bufs = List.init n_soft (fun _ -> []);
    s_lock = None;
    s_hs_type = Hs_get_work;
    s_hs_pending = List.init cfg.Config.n_muts (fun _ -> false);
    s_hs_done = List.init cfg.Config.n_muts (fun _ -> true);
    s_hs_mut_hs = List.init cfg.Config.n_muts (fun _ -> Hs_get_work);
    s_W = List.init n_soft (fun _ -> []);
    s_ghg = List.init n_soft (fun _ -> None);
    s_dangling = false;
  }

(* A shape fits the configuration when every reference its roots and
   fields mention lies in [0, n_refs): a shape built over too small a heap
   silently drops its out-of-range allocations (Heap.alloc is a no-op
   there) but keeps the fields pointing at them, and the reference masks
   of the invariant layer assume an in-universe state. *)
let check_fits cfg (shape : Gcheap.Shapes.t) =
  let heap = shape.Gcheap.Shapes.heap in
  let fields r =
    match Gcheap.Heap.get heap r with Some o -> Gcheap.Obj.children o | None -> []
  in
  let refs =
    List.concat shape.Gcheap.Shapes.roots
    @ List.concat_map fields (List.init (Gcheap.Heap.n_refs heap) Fun.id)
  in
  let n = cfg.Config.n_refs in
  match List.filter (fun r -> r < 0 || r >= n) refs with
  | [] ->
    if Gcheap.Heap.n_refs heap <> n then invalid_arg "Model.make: shape/config n_refs mismatch"
  | outside ->
    let needed = List.fold_left (fun m r -> max m (r + 1)) n outside in
    invalid_arg
      (Printf.sprintf "Model.make: shape %s needs %d refs, but the configuration has %d"
         shape.Gcheap.Shapes.name needed n)

(* A store buffer that holds nothing blocks every write, and objects with
   no field leave no pointer to store: every invariant would hold
   vacuously.  A negative cycle or operation bound shrinks the model until
   known-unsafe variants pass, and a negative count of mutators or refs
   fails deep inside a shape or program constructor. *)
let check_bounds cfg =
  List.iter
    (fun (what, n, least) ->
      if n < least then
        invalid_arg (Fmt.str "Model.make: %s = %d, needs at least %d" what n least))
    Config.
      [
        ("n_muts", cfg.n_muts, 0);
        ("n_refs", cfg.n_refs, 0);
        ("n_fields", cfg.n_fields, 1);
        ("buf_bound", cfg.buf_bound, 1);
        ("max_cycles", cfg.max_cycles, 0);
        ("max_mut_ops", cfg.max_mut_ops, 0);
      ]

let make cfg (shape : Gcheap.Shapes.t) : t =
  check_bounds cfg;
  check_fits cfg shape;
  let coms = programs cfg in
  check_labels cfg coms;
  let data p =
    if p = Config.pid_gc then State.L_gc State.gc_data0
    else if p = Config.pid_sys cfg then State.L_sys (initial_sys_data cfg shape)
    else State.L_mut (State.mut_data0 (Gcheap.Shapes.roots_for shape (p - 1)))
  in
  let procs = Array.of_list (List.mapi (fun p com -> Cimp.Com.make [ com ] (data p)) coms) in
  let names = Array.init (Config.n_procs cfg) (Config.proc_name cfg) in
  { cfg; shape; system = Cimp.System.make names procs }

(* -- Projections used by the invariants and the experiment drivers ------- *)

let sys_data (sys : sys) cfg = State.sys (Cimp.System.proc sys (Config.pid_sys cfg)).Cimp.Com.data
let gc_data (sys : sys) = State.gc (Cimp.System.proc sys Config.pid_gc).Cimp.Com.data
let mut_data (sys : sys) cfg m =
  State.mut (Cimp.System.proc sys (Config.pid_mut cfg m)).Cimp.Com.data

(* Is process p's control inside a label whose name starts with [prefix]? *)
let at_prefix (sys : sys) p prefix =
  Cimp.Com.exists_at
    (fun l -> String.starts_with ~prefix (Cimp.Label.name l))
    (Cimp.System.proc sys p)

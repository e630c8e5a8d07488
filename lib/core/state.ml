(* Local data states of the three process kinds (Section 3.1: "The local
   states of the software components abstractly represent the program
   counters, the registers, and the stacks that are thread-local"), plus
   the Sys state that encapsulates TSO, allocation, handshakes, work-lists
   and ghost state.

   CIMP's system semantics uses one data-state type for every process, so
   the three records are injected into the sum [t]. *)

open Types

(* Registers for one inlined expansion of the [mark] sequence (Fig. 5).
   Each software process has one set; mark expansions never nest. *)
type mark_regs = {
  mk_ref : rf option;  (* the reference being marked (None: skip) *)
  mk_fM : bool;  (* f_M as loaded at Fig. 5 line 2 *)
  mk_flag : bool;  (* the last-loaded mark flag *)
  mk_phase : phase;  (* phase as loaded at line 4 *)
  mk_winner : bool;  (* did we win the CAS? *)
}

let mark_regs0 =
  { mk_ref = None; mk_fM = false; mk_flag = false; mk_phase = Ph_idle; mk_winner = false }

type gc_data = {
  g_fM : bool;  (* the collector owns f_M and keeps its value locally *)
  g_src : rf option;  (* mark loop: the grey object being scanned *)
  g_fld : int;  (* mark loop: current field index *)
  g_sweep : rf list;  (* sweep: remaining snapshot of the heap domain *)
  g_ref : rf option;  (* sweep: current candidate *)
  g_flag : bool;  (* sweep: its loaded flag *)
  g_hs_m : int;  (* handshake: next mutator to signal *)
  g_any_pending : bool;  (* handshake: result of the last poll *)
  g_w_empty : bool;  (* mark loop: result of the last W-emptiness test *)
  g_cycles : int;  (* completed mark-sweep cycles (for bounded runs) *)
  g_mark : mark_regs;
}

let gc_data0 =
  {
    g_fM = false;
    g_src = None;
    g_fld = 0;
    g_sweep = [];
    g_ref = None;
    g_flag = false;
    g_hs_m = 0;
    g_any_pending = false;
    g_w_empty = true;
    g_cycles = 0;
    g_mark = mark_regs0;
  }

type mut_data = {
  m_roots : rf list;  (* sorted set: the mutator's roots (stack/registers) *)
  m_src : rf option;  (* chosen source object for Load/Store *)
  m_dst : rf option;  (* chosen reference to store *)
  m_fld : int;  (* chosen field *)
  m_loaded : rf option;  (* result of a Load / old value for the deletion barrier *)
  m_fA : bool;  (* f_A as loaded before an allocation *)
  m_hs_pending : bool;  (* own handshake bit as last read *)
  m_hs_type : hs;  (* handshake type as last read *)
  m_rooted : bool;  (* passed get-roots this cycle (drives O2's extra branch) *)
  m_todo : rf list;  (* roots still to mark during the get-roots handshake *)
  m_ops : int;  (* heap operations performed (for bounded runs) *)
  m_mark : mark_regs;
}

let mut_data0 roots =
  {
    m_roots = List.sort_uniq compare roots;
    m_src = None;
    m_dst = None;
    m_fld = 0;
    m_loaded = None;
    m_fA = false;
    m_hs_pending = false;
    m_hs_type = Hs_get_work;
    m_rooted = true;  (* pre-cycle: as if the previous cycle sampled them *)
    m_todo = [];
    m_ops = 0;
    m_mark = mark_regs0;
  }

(* TSO-visible shared memory. *)
type mem = { fA : bool; fM : bool; phase : phase; heap : Gcheap.Heap.t }

type sys_data = {
  s_mem : mem;
  s_bufs : write list list;  (* store buffer per software pid, oldest first *)
  s_lock : int option;  (* pid holding the TSO lock *)
  s_hs_type : hs;  (* type of the current/most recent handshake round *)
  s_hs_pending : bool list;  (* per mutator: bit set by GC, cleared by mutator *)
  s_hs_done : bool list;
    (* ghost, per mutator: completed the current round (cleared at hs-begin,
       set at the mutator's hs-done) — the executable form of the paper's
       per-mutator handshake counters *)
  s_hs_mut_hs : hs list;
    (* ghost, per mutator: type of the round it most recently completed;
       determines its handshake phase along the bottom of Fig. 3 *)
  s_W : rf list list;  (* work-list per software pid (0 = the collector's W) *)
  s_ghg : rf option list;  (* ghost_honorary_grey per software pid *)
  s_dangling : bool;  (* ghost: a memory access hit a freed cell *)
}

(* [L_regs] holds a litmus client's registers (lib/tso); it comes last so
   the others keep the block tags that fingerprints and certificates hash. *)
type t = L_gc of gc_data | L_mut of mut_data | L_sys of sys_data | L_regs of int list

(* Partial projections; misuse is a programming error in the model. *)
let gc = function L_gc d -> d | _ -> invalid_arg "State.gc"
let mut = function L_mut d -> d | _ -> invalid_arg "State.mut"
let sys = function L_sys d -> d | _ -> invalid_arg "State.sys"
let regs = function L_regs r -> r | _ -> invalid_arg "State.regs"

let map_gc f = function L_gc d -> L_gc (f d) | _ -> invalid_arg "State.map_gc"
let map_mut f = function L_mut d -> L_mut (f d) | _ -> invalid_arg "State.map_mut"
let map_sys f = function L_sys d -> L_sys (f d) | _ -> invalid_arg "State.map_sys"

(* -- Memory operations (the do-write-action / read of Fig. 9) ------------ *)

let do_write mem = function
  | W_fA b -> ({ mem with fA = b }, true)
  | W_fM b -> ({ mem with fM = b }, true)
  | W_phase p -> ({ mem with phase = p }, true)
  | W_mark (r, b) ->
    if Gcheap.Heap.valid_ref mem.heap r then
      ({ mem with heap = Gcheap.Heap.set_mark mem.heap r b }, true)
    else (mem, false)  (* dangling commit: recorded by the caller *)
  | W_field (r, f, v) ->
    if Gcheap.Heap.valid_ref mem.heap r then
      ({ mem with heap = Gcheap.Heap.set_field mem.heap r f v }, true)
    else (mem, false)

(* Read a location from memory (no buffer forwarding; see [read] below).
   Reads of freed cells yield a default and are flagged as dangling. *)
let mem_read mem = function
  | L_fA -> (V_bool mem.fA, true)
  | L_fM -> (V_bool mem.fM, true)
  | L_phase -> (V_phase mem.phase, true)
  | L_mark r -> (
    match Gcheap.Heap.mark mem.heap r with
    | Some b -> (V_bool b, true)
    | None -> (V_bool false, false))
  | L_field (r, f) ->
    if Gcheap.Heap.valid_ref mem.heap r then (V_ref (Gcheap.Heap.field mem.heap r f), true)
    else (V_ref None, false)

(* The value a buffered write would install, for forwarding. *)
let value_of_write = function
  | W_fA b | W_fM b | W_mark (_, b) -> V_bool b
  | W_phase p -> V_phase p
  | W_field (_, _, v) -> V_ref v

(* TSO read with store-buffer forwarding: the most recent write to this
   location in the reader's own buffer wins, else shared memory. *)
let read sd p loc =
  let buf = List.nth sd.s_bufs p in
  let forwarded =
    List.fold_left (fun acc w -> if loc_of_write w = loc then Some w else acc) None buf
  in
  match forwarded with
  | Some w -> (value_of_write w, true)
  | None -> mem_read sd.s_mem loc

let buf_of sd p = List.nth sd.s_bufs p
let set_buf sd p b = { sd with s_bufs = List.mapi (fun i x -> if i = p then b else x) sd.s_bufs }

let wl_of sd p = List.nth sd.s_W p
let set_wl sd p w = { sd with s_W = List.mapi (fun i x -> if i = p then w else x) sd.s_W }

let ghg_of sd p = List.nth sd.s_ghg p
let set_ghg sd p g = { sd with s_ghg = List.mapi (fun i x -> if i = p then g else x) sd.s_ghg }

let hs_bit sd m = List.nth sd.s_hs_pending m
let set_hs_bit sd m b =
  { sd with s_hs_pending = List.mapi (fun i x -> if i = m then b else x) sd.s_hs_pending }

(* A software process is blocked while another holds the TSO lock. *)
let not_blocked sd p = match sd.s_lock with None -> true | Some q -> q = p

(* -- Ghost handshake-phase relation (Fig. 3, bottom row) ----------------- *)

(* The collector's handshake phase: determined by the round it initiated
   most recently. *)
let gc_hp sd = hp_of_hs sd.s_hs_type

let hs_done sd m = List.nth sd.s_hs_done m
let set_hs_done sd m b =
  { sd with s_hs_done = List.mapi (fun i x -> if i = m then b else x) sd.s_hs_done }

(* Mutator m's handshake phase: the round it most recently completed. *)
let mut_hp sd m = hp_of_hs (List.nth sd.s_hs_mut_hs m)

(* Has mutator m's root snapshot been taken this cycle (making it "black")? *)
let mut_black sd m =
  match List.nth sd.s_hs_mut_hs m with
  | Hs_get_roots | Hs_get_work -> true
  | Hs_nop1 | Hs_nop2 | Hs_nop3 | Hs_nop4 -> false

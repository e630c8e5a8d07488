(* Litmus-test harness over the collector's own memory system.

   A test gives one straight-line program per thread in terms of
   architecture-level instructions, a set of observables (registers and
   final memory), and a target relaxed outcome with its expected
   admissibility under x86-TSO and under SC.  Each thread runs as a CIMP
   client of the Sys process of Fig. 9 ([Core.Sysproc]), in its TSO, SC or
   PSO mode: the memory system the collector is checked against.
   [outcomes] enumerates every reachable final state exhaustively, so the
   reported sets are exact for the model — mirroring how x86-TSO's
   adequacy was established observationally in Sewell et al. *)

open Core.Types

type addr = int
type reg = int
type tid = int

type instr =
  | Ld of reg * addr
  | St of addr * int
  | Mf
  | Xchg of reg * addr * int
    (* LOCK XCHG: atomically load into the register and store the value *)

type test = {
  name : string;
  description : string;
  mem_size : int;
  n_regs : int;
  threads : instr list list;
  observed_regs : (tid * reg) list;
  observed_mem : addr list;
  target : int list;  (* the candidate relaxed outcome, as observables *)
  allowed_tso : bool;
  allowed_sc : bool;
}

(* Locations are the fields of the object at reference 0.  A value v is
   stored as a reference to v, and 0 as null, so the heap's universe is
   sized to hold every value a test stores. *)
let encode v = if v = 0 then None else Some v
let decode = function V_ref r -> Option.value r ~default:0 | _ -> invalid_arg "Litmus.decode"

(* Thread [t] as a CIMP client: one request per access, and a LOCK XCHG
   as Lock/Read/Write/Unlock, Fig. 9's treatment of a LOCK'd CMPXCHG.
   Thread t runs in slot t, which the rendezvous hands to Sys. *)
let client t instrs =
  let req i kind m k =
    Cimp.Com.Request (Cimp.Label.v (Fmt.str "t%d:%d:%s" t i kind), (fun _ -> m), k)
  in
  let ack _ s = s in
  let set r v = List.mapi (fun j x -> if j = r then decode v else x) in
  let load r v s = Core.State.L_regs (set r v (Core.State.regs s)) in
  let read a = Req_read (L_field (0, a)) and write a v = Req_write (W_field (0, a, encode v)) in
  List.concat
    (List.mapi
       (fun i -> function
         | Ld (r, a) -> [ req i "ld" (read a) (load r) ]
         | St (a, v) -> [ req i "st" (write a v) ack ]
         | Mf -> [ req i "mfence" Req_mfence ack ]
         | Xchg (r, a, v) ->
           [
             req i "lock" Req_lock ack;
             req i "read" (read a) (load r);
             req i "write" (write a v) ack;
             req i "unlock" Req_unlock ack;
           ])
       instrs)

(* Threads 0..n-1 are the software pids of a configuration with n-1
   mutators, and Sys is pid n.  A thread buffers at most one write per
   instruction, so no buffer ever fills. *)
let system ~mode test =
  let fold f = List.fold_left (List.fold_left f) 0 test.threads in
  let top = fold (fun m -> function St (_, v) | Xchg (_, _, v) -> max m v | Ld _ | Mf -> m) in
  let cfg =
    { Core.Config.default with n_muts = List.length test.threads - 1; n_refs = top + 1;
      n_fields = test.mem_size; buf_bound = fold (fun n _ -> n + 1); memory = mode }
  in
  let heap = Gcheap.Heap.(alloc (make ~n_refs:(top + 1) ~n_fields:test.mem_size) 0 ~mark:false) in
  let shape = { Gcheap.Shapes.name = test.name; heap; roots = [] } in
  let regs = Core.State.L_regs (List.init test.n_regs (fun _ -> 0)) in
  let sys = Core.State.L_sys (Core.Model.initial_sys_data cfg shape) in
  Cimp.System.make
    (Array.of_list (List.mapi (fun t _ -> Fmt.str "t%d" t) test.threads @ [ "sys" ]))
    (Array.of_list
       (List.mapi (fun t instrs -> Cimp.Com.make (client t instrs) regs) test.threads
       @ [ Cimp.Com.make [ Core.Sysproc.process cfg ] sys ]))

let observe test s =
  let data p = (Cimp.System.proc s p).Cimp.Com.data in
  let heap = (Core.State.sys (data (List.length test.threads))).s_mem.heap in
  List.map (fun (t, r) -> List.nth (Core.State.regs (data t)) r) test.observed_regs
  @ List.map (fun a -> decode (V_ref (Gcheap.Heap.field heap 0 a))) test.observed_mem

(* Memoised DFS over the normalised system.  A state is final when it has
   no successor and every thread has terminated (so every buffer has
   drained: Sys could still commit otherwise). *)
let outcomes ?(mode = Core.Config.TSO) test =
  let seen = Check.Fingerprint.Table.create 4096 and finals = ref [] in
  let rec go = function
    | [] -> ()
    | s :: rest ->
      let fp = Check.Fingerprint.of_system s in
      if Check.Fingerprint.Table.mem seen fp then go rest
      else begin
        Check.Fingerprint.Table.add seen fp ();
        let succs = Cimp.System.steps s in
        let ended t _ = Cimp.Com.terminated (Cimp.System.proc s t) in
        if succs = [] && List.for_all Fun.id (List.mapi ended test.threads) then
          finals := observe test s :: !finals;
        go (List.rev_append (List.map (fun (_, s') -> Cimp.System.normalize s') succs) rest)
      end
  in
  go [ Cimp.System.normalize (system ~mode test) ];
  (List.sort_uniq compare !finals, Check.Fingerprint.Table.length seen)

type verdict = {
  test : test;
  tso_outcomes : int list list;
  sc_outcomes : int list list;
  tso_states : int;
  sc_states : int;
  tso_observed : bool;  (* target outcome reachable under TSO *)
  sc_observed : bool;
  ok : bool;  (* matches the published x86-TSO classification *)
}

let run test =
  let tso_outcomes, tso_states = outcomes ~mode:Core.Config.TSO test in
  let sc_outcomes, sc_states = outcomes ~mode:Core.Config.SC test in
  let tso_observed = List.mem test.target tso_outcomes in
  let sc_observed = List.mem test.target sc_outcomes in
  let ok = tso_observed = test.allowed_tso && sc_observed = test.allowed_sc in
  { test; tso_outcomes; sc_outcomes; tso_states; sc_states; tso_observed; sc_observed; ok }

let pp_outcome ppf o =
  Fmt.pf ppf "(%s)" (String.concat "," (List.map string_of_int o))

let pp_verdict ppf v =
  Fmt.pf ppf "%-12s target=%a  TSO:%s(%d states)  SC:%s(%d states)  %s" v.test.name pp_outcome
    v.test.target
    (if v.tso_observed then "observed " else "forbidden")
    v.tso_states
    (if v.sc_observed then "observed " else "forbidden")
    v.sc_states
    (if v.ok then "OK" else "MISMATCH")

(* Executable renditions of the paper's invariant catalogue (Sections 2.1
   and 3.2).  Each invariant is a predicate over a global CIMP state; the
   checker evaluates all of them at every reachable state, replacing the
   Isabelle induction with exhaustive evaluation on bounded instances.

   The first three are the *safety* properties (the headline theorem and
   its direct operational manifestations); the rest are the auxiliary
   invariants the proof composes, each guarded exactly as the paper guards
   them (by handshake phase, by pending-write status, etc.).  Guards that
   only hold for the unablated algorithm consult the configuration: e.g.
   the phase-protocol invariants presume the handshake fences.

   Besides the boolean [check] (the checker's hot path, evaluated at every
   state), every invariant carries a [witness] function producing
   structured failure evidence — which conjunct failed, on which
   references and processes, and a one-sentence account.  [witness] is
   only ever evaluated on the single violating state (by [lib/explain]
   and the [gcmodel explain] subcommand), so it may recompute freely; by
   construction it returns [[]] exactly when [check] holds.

   The checks compute over reference masks (Gcheap.Heap: bit r is
   reference r): reachability, colours, roots and buffered writes are
   each one int, and a check is a handful of mask operations.  The
   witnesses read the list views of the same masks (Color.blacks,
   Reach.reachable_set, ...), so both share one implementation. *)

open Types
open State

type witness = {
  conjunct : string;  (* the failing conjunct of the invariant *)
  refs : rf list;  (* heap references witnessing the failure *)
  pids : int list;  (* processes involved *)
  detail : string;  (* one sentence naming the witness *)
}

type t = {
  name : string;
  doc : string;
  safety : bool;  (* part of the headline safety statement? *)
  paper : string;  (* the paper's name/section for this invariant *)
  conjuncts : (string * string) list;
    (* every conjunct name this invariant's witnesses can carry, with a
       one-line informal statement — the source of truth for
       docs/INVARIANTS.md (gcmodel doc) and the columns of the
       campaign kill-matrix *)
  check : Model.sys -> bool;
  witness : Model.sys -> witness list;
}

let w ?(refs = []) ?(pids = []) conjunct detail = { conjunct; refs; pids; detail }

let witness_to_json wit =
  Obs.Json.Obj
    [
      ("conjunct", Obs.Json.String wit.conjunct);
      ("refs", Obs.Json.List (List.map (fun r -> Obs.Json.Int r) wit.refs));
      ("pids", Obs.Json.List (List.map (fun p -> Obs.Json.Int p) wit.pids));
      ("detail", Obs.Json.String wit.detail);
    ]

let pp_witness ppf wit =
  Fmt.pf ppf "@[<h>[%s]%a%a %s@]" wit.conjunct
    (fun ppf -> function [] -> () | rs -> Fmt.pf ppf " refs=%a" Fmt.(Dump.list int) rs)
    wit.refs
    (fun ppf -> function [] -> () | ps -> Fmt.pf ppf " pids=%a" Fmt.(Dump.list int) ps)
    wit.pids wit.detail

(* Seal a check with a witness function, enforcing the contract that a
   witness list is produced exactly on violating states: [details] is
   consulted only when [check] fails, and a degenerate [details] that
   returns nothing still yields a generic conjunct. *)
let witnessed ~name ~doc ~safety ?(paper = "") ?(conjuncts = []) check details =
  let witness sys =
    if check sys then []
    else
      match details sys with
      | [] -> [ w name ("the invariant \"" ^ doc ^ "\" fails, with no finer conjunct attribution") ]
      | ws -> ws
  in
  { name; doc; safety; paper; conjuncts; check; witness }

(* -- Root sets ------------------------------------------------------------ *)

(* Buffered insertions: references being written into objects by pending
   field writes (Section 3.2 "Initialization"). *)
let buffered_insertions sd p =
  List.filter_map (function W_field (_, _, Some r) -> Some r | _ -> None) (buf_of sd p)

let add m r = m lor Gcheap.Heap.bit r

(* Buffered deletions for process p's buffer: for each pending field
   write, the value it will overwrite — the committed heap value as
   updated by the *earlier* writes to the same field in p's own (FIFO)
   buffer. *)
let deletions_mask heap buf =
  let rec overwritten r f = function
    | [] -> Gcheap.Heap.field heap r f
    | W_field (r', f', v) :: _ when r' = r && f' = f -> v
    | _ :: earlier -> overwritten r f earlier
  in
  let rec go earlier m = function
    | [] -> m
    | (W_field (r, f, _) as w) :: rest ->
      let m = match overwritten r f earlier with Some d -> add m d | None -> m in
      go (w :: earlier) m rest
    | (W_fA _ | W_fM _ | W_phase _ | W_mark _) :: rest -> go earlier m rest
  in
  go [] 0 buf land Gcheap.Heap.universe heap

let buffered_deletions sd p =
  Gcheap.Heap.refs_of_mask (deletions_mask sd.s_mem.heap (buf_of sd p))

(* The mutators' (handshake-phase, store buffer) pairs: s_bufs lists the
   collector's buffer first, then one per mutator. *)
let fold_muts f acc sd = List.fold_left2 f acc sd.s_hs_mut_hs (List.tl sd.s_bufs)

(* Label tests for [Cimp.Com.exists_at], without String.starts_with's
   per-call closure: does [sub] occur in [s] at offset [i] / at or after
   offset [i]? *)
let rec same_from s sub i j =
  j = String.length sub || (s.[i + j] = sub.[j] && same_from s sub i (j + 1))

let occurs_at s sub i = i + String.length sub <= String.length s && same_from s sub i 0

let rec occurs_from s sub i = occurs_at s sub i || (i < String.length s && occurs_from s sub (i + 1))

(* Control inside an in-flight deletion barrier, whose loaded register
   holds the reference being deleted. *)
let deleting lbl =
  let s = Cimp.Label.name lbl in
  occurs_at s "mut:bar-del" 0 || occurs_at s "mut:del-target" 0

(* The extended root set of Section 3.2: mutator roots, grey references
   (work-lists and ghost honorary greys), references pending in TSO store
   buffers, and the reference held by an in-flight deletion barrier.  A
   mutator's loaded register keeps its last value, so it is set in most
   states; its label test runs only when the reference is not a root
   already. *)
let extended_roots_mask cfg sys sd =
  let buffered m = function W_field (_, _, Some r) | W_mark (r, _) -> add m r | _ -> m in
  let rec muts m i =
    if i = cfg.Config.n_muts then m
    else
      let d = Model.mut_data sys cfg i in
      let m = List.fold_left add m d.m_roots in
      match d.m_loaded with
      | Some r
        when m land Gcheap.Heap.bit r = 0
             && Cimp.Com.exists_at deleting (Cimp.System.proc sys (Config.pid_mut cfg i)) ->
        muts (add m r) (i + 1)
      | Some _ | None -> muts m (i + 1)
  in
  let m = List.fold_left (List.fold_left buffered) (Color.grey_mask cfg sd) sd.s_bufs in
  muts m 0 land Gcheap.Heap.universe sd.s_mem.heap

let extended_roots cfg sys =
  Gcheap.Heap.refs_of_mask (extended_roots_mask cfg sys (Model.sys_data sys cfg))

let reachable_mask cfg sys sd = Gcheap.Reach.reach sd.s_mem.heap (extended_roots_mask cfg sys sd)

let reachable_from_roots cfg sys =
  Gcheap.Heap.refs_of_mask (reachable_mask cfg sys (Model.sys_data sys cfg))

(* -- Safety --------------------------------------------------------------- *)

(* The headline theorem: [] (forall r. reachable r --> valid_ref r). *)
let valid_refs_inv cfg =
  let check sys =
    let sd = Model.sys_data sys cfg in
    reachable_mask cfg sys sd land lnot (Gcheap.Heap.valid_mask sd.s_mem.heap) = 0
  in
  witnessed ~name:"valid_refs_inv"
    ~doc:"every reference reachable from the (extended) roots denotes a heap object"
    ~safety:true
    ~paper:"valid_refs_inv — the headline theorem, Section 2.1 (Theorem 1) and Section 3.2"
    ~conjuncts:
      [
        ( "reachable-implies-valid",
          "every reference reachable from the extended roots denotes an allocated heap object" );
      ]
    check (fun sys ->
      let sd = Model.sys_data sys cfg in
      List.filter_map
        (fun r ->
          if Gcheap.Heap.valid_ref sd.s_mem.heap r then None
          else
            Some
              (w "reachable-implies-valid" ~refs:[ r ]
                 (Fmt.str
                    "reference %d is reachable from the extended roots but denotes no heap \
                     object (it has been freed)"
                    r)))
        (reachable_from_roots cfg sys))

(* Operational manifestation: no load/store/commit ever touched a freed
   cell (the Sys process records such accesses in ghost state). *)
let no_dangling cfg =
  let check sys = not (Model.sys_data sys cfg).s_dangling in
  witnessed ~name:"no_dangling_access" ~doc:"no memory access or commit has hit a freed cell"
    ~safety:true
    ~paper:"operational corollary of the headline theorem, Section 2.1"
    ~conjuncts:
      [ ("no-dangling-access", "no load, store or store-buffer commit has ever hit a freed cell") ]
    check (fun _ ->
      [
        w "no-dangling-access"
          "a load, store or commit has touched a freed cell (the Sys process's ghost \
           s_dangling flag is set)";
      ])

(* Fig. 2 lines 41-44: when the collector is about to free [ref], the
   object is white and unreachable. *)
let free_only_garbage cfg =
  let at_free = Cimp.Label.v "gc:free" in
  let check sys =
    if not (Cimp.System.at sys Config.pid_gc at_free) then true
    else begin
      let sd = Model.sys_data sys cfg in
      match (Model.gc_data sys).g_ref with
      | None -> false
      | Some r ->
        let b = Gcheap.Heap.bit r in
        Color.white_mask sd land b <> 0 && reachable_mask cfg sys sd land b = 0
    end
  in
  witnessed ~name:"free_only_garbage"
    ~doc:"at the free statement, the victim is white and unreachable" ~safety:true
    ~paper:"the sweep-safety clause, Section 2.1 / Fig. 2 lines 41-44"
    ~conjuncts:
      [
        ("victim-chosen", "the collector at gc:free has actually chosen a candidate reference");
        ("victim-white", "the candidate's committed mark disagrees with f_M (it is white)");
        ("victim-unreachable", "the candidate is unreachable from the extended roots");
      ]
    check
    (fun sys ->
      let sd = Model.sys_data sys cfg in
      match (Model.gc_data sys).g_ref with
      | None ->
        [
          w "victim-chosen" ~pids:[ Config.pid_gc ]
            "the collector is at gc:free with no candidate reference in g_ref";
        ]
      | Some r ->
        (if Color.is_white sd r then []
         else
           [
             w "victim-white" ~refs:[ r ] ~pids:[ Config.pid_gc ]
               (Fmt.str "the collector is about to free reference %d, which is not white \
                         (its committed mark agrees with f_M)" r);
           ])
        @
        if not (List.mem r (reachable_from_roots cfg sys)) then []
        else
          [
            w "victim-unreachable" ~refs:[ r ] ~pids:[ Config.pid_gc ]
              (Fmt.str
                 "the collector is about to free reference %d, which is still reachable \
                  from the extended roots"
                 r);
          ])

(* -- valid_W_inv (Section 3.2 "Marking") ---------------------------------- *)

let worklists_disjoint cfg =
  let sets sd =
    let n = Config.n_software cfg in
    List.init n (fun p -> (p, wl_of sd p @ (match ghg_of sd p with Some r -> [ r ] | None -> [])))
  in
  (* No duplicate within one set and no reference in two sets: every entry
     of every set is distinct.  [fresh] adds an entry to the mask of those
     seen, or yields -1 (absorbing: every bit set) on a repeat. *)
  let fresh seen r =
    let b = Gcheap.Heap.bit r in
    if seen land b <> 0 then -1 else seen lor b
  in
  let check sys =
    let sd = Model.sys_data sys cfg in
    let n = Config.n_software cfg in
    let rec go p seen wls ghgs =
      match (wls, ghgs) with
      | wl :: wls, g :: ghgs when p < n ->
        let seen = List.fold_left fresh seen wl in
        go (p + 1) (match g with Some r -> fresh seen r | None -> seen) wls ghgs
      | _ -> seen <> -1
    in
    go 0 0 sd.s_W sd.s_ghg
  in
  witnessed ~name:"worklists_disjoint"
    ~doc:"grey ownership is exclusive: work-lists (and honorary greys) are pairwise disjoint"
    ~safety:false
    ~paper:"the disjointness half of valid_W_inv, Section 3.2 \"Marking\""
    ~conjuncts:
      [
        ("no-duplicate-grey", "no reference appears twice in one process's grey set");
        ( "grey-ownership-exclusive",
          "no reference is grey for two different processes at once (the LOCK'd CAS \
           guarantees a unique winner)" );
      ]
    check (fun sys ->
      let sd = Model.sys_data sys cfg in
      let sets = sets sd in
      let dups =
        List.concat_map
          (fun (p, s) ->
            let rec find = function
              | [] -> []
              | r :: rest -> if List.mem r rest then [ (p, r) ] else find rest
            in
            find s)
          sets
      in
      let overlaps =
        List.concat_map
          (fun (p, s) ->
            List.concat_map
              (fun (q, s') ->
                if q <= p then []
                else List.filter_map (fun r -> if List.mem r s' then Some (p, q, r) else None) s)
              sets)
          sets
      in
      List.map
        (fun (p, r) ->
          w "no-duplicate-grey" ~refs:[ r ] ~pids:[ p ]
            (Fmt.str "reference %d appears twice in process %d's grey set" r p))
        dups
      @ List.map
          (fun (p, q, r) ->
            w "grey-ownership-exclusive" ~refs:[ r ] ~pids:[ p; q ]
              (Fmt.str "reference %d is grey for both process %d and process %d" r p q))
          overlaps)

let valid_w_inv cfg =
  let greys_of sd p = wl_of sd p @ (match ghg_of sd p with Some r -> [ r ] | None -> []) in
  let check sys =
    let sd = Model.sys_data sys cfg in
    let n = Config.n_software cfg in
    let marked = Color.marked_mask sd in
    let is_marked r = marked land Gcheap.Heap.bit r <> 0 in
    let locked p = match sd.s_lock with Some q -> q = p | None -> false in
    let marks_use_fM = function W_mark (_, b) -> b = sd.s_mem.fM | _ -> true in
    let rec go p wls ghgs bufs =
      match (wls, ghgs, bufs) with
      | wl :: wls, g :: ghgs, buf :: bufs when p < n ->
        (locked p
        || (List.for_all is_marked wl && match g with Some r -> is_marked r | None -> true))
        && List.for_all marks_use_fM buf && go (p + 1) wls ghgs bufs
      | _ -> true
    in
    go 0 sd.s_W sd.s_ghg sd.s_bufs
  in
  witnessed ~name:"valid_W_inv"
    ~doc:
      "work-list/ghg entries are marked on the heap unless their owner holds the TSO lock; \
       pending mark writes use f_M"
    ~safety:false
    ~paper:"valid_W_inv, Section 3.2 \"Marking\" / Fig. 5"
    ~conjuncts:
      [
        ( "greys-marked-unless-locked",
          "every grey reference is marked on the committed heap, except while its owner is \
           inside the CAS critical section" );
        ( "pending-marks-use-fM",
          "every mark write in flight in a store buffer carries the current f_M sense" );
      ]
    check (fun sys ->
      let sd = Model.sys_data sys cfg in
      let n = Config.n_software cfg in
      List.concat_map
        (fun p ->
          let unmarked =
            if sd.s_lock = Some p then []
            else List.filter (fun r -> not (Color.is_marked sd r)) (greys_of sd p)
          in
          let bad_marks =
            List.filter_map
              (function W_mark (r, b) when b <> sd.s_mem.fM -> Some r | _ -> None)
              (buf_of sd p)
          in
          List.map
            (fun r ->
              w "greys-marked-unless-locked" ~refs:[ r ] ~pids:[ p ]
                (Fmt.str
                   "reference %d is grey for process %d but unmarked on the committed heap, \
                    and process %d does not hold the TSO lock"
                   r p p))
            unmarked
          @ List.map
              (fun r ->
                w "pending-marks-use-fM" ~refs:[ r ] ~pids:[ p ]
                  (Fmt.str "process %d has a pending mark of %d with the wrong sense (not f_M)"
                     p r))
              bad_marks)
        (List.init n Fun.id))

(* -- Coarse TSO invariants ------------------------------------------------ *)

let tso_ownership cfg =
  let gc_ok = function W_fA _ | W_fM _ | W_phase _ | W_mark _ -> true | W_field _ -> false in
  let mut_ok = function W_mark _ | W_field _ -> true | W_fA _ | W_fM _ | W_phase _ -> false in
  let check sys =
    match (Model.sys_data sys cfg).s_bufs with
    | gc_buf :: mut_bufs ->
      List.for_all gc_ok gc_buf && List.for_all (List.for_all mut_ok) mut_bufs
    | [] -> true
  in
  witnessed ~name:"tso_ownership"
    ~doc:"only the collector has control-variable writes in flight; mutators only write marks and fields"
    ~safety:false
    ~paper:"write-ownership discipline of the Sys encoding, Section 3.1"
    ~conjuncts:
      [
        ( "collector-writes-no-fields",
          "the collector's store buffer only ever holds f_A, f_M, phase and mark writes" );
        ( "mutators-write-no-control-vars",
          "a mutator's store buffer only ever holds field and mark writes" );
      ]
    check (fun sys ->
      let sd = Model.sys_data sys cfg in
      let offending p ok conjunct who =
        List.filter_map
          (fun wr ->
            if ok wr then None
            else
              Some
                (w conjunct ~pids:[ p ]
                   (Fmt.str "%s (pid %d) has %a pending in its store buffer" who p pp_write wr)))
          (buf_of sd p)
      in
      offending Config.pid_gc gc_ok "collector-writes-no-fields" "the collector"
      @ List.concat_map
          (fun m ->
            offending (Config.pid_mut cfg m) mut_ok "mutators-write-no-control-vars"
              (Fmt.str "mutator %d" m))
          (List.init cfg.Config.n_muts Fun.id))

let cas_section_label lbl =
  let s = Cimp.Label.name lbl in
  occurs_from s ":cas-" 0 || occurs_from s ":unlock" 0

let tso_lock_scope cfg =
  let in_cas_section sys p =
    p < Config.n_software cfg && Cimp.Com.exists_at cas_section_label (Cimp.System.proc sys p)
  in
  let check sys =
    let sd = Model.sys_data sys cfg in
    match sd.s_lock with None -> true | Some p -> in_cas_section sys p
  in
  witnessed ~name:"tso_lock_scope"
    ~doc:"the TSO lock is only ever held inside a mark operation's CAS section" ~safety:false
    ~paper:"the LOCK'd CMPXCHG scope, Section 3.1 / Fig. 5 lines 5-11"
    ~conjuncts:
      [
        ( "lock-only-in-cas",
          "whenever a process holds the TSO bus lock its control point is inside a mark \
           operation's CAS section" );
      ]
    check (fun sys ->
      let sd = Model.sys_data sys cfg in
      match sd.s_lock with
      | None -> []
      | Some p ->
        [
          w "lock-only-in-cas" ~pids:[ p ]
            (Fmt.str "process %d holds the TSO lock while at %a, outside any CAS section" p
               Fmt.(Dump.list string)
               (if p < Cimp.System.n_procs sys then
                  List.map Cimp.Label.name (Cimp.Com.at_labels (Cimp.System.proc sys p))
                else []));
        ])

let gc_fm_coherent cfg =
  let pending_fM sd =
    List.fold_left
      (fun acc wr -> match wr with W_fM b -> Some b | _ -> acc)
      None (buf_of sd Config.pid_gc)
  in
  let check sys =
    let sd = Model.sys_data sys cfg in
    let g = Model.gc_data sys in
    (match pending_fM sd with Some b -> b = g.g_fM | None -> sd.s_mem.fM = g.g_fM)
    (* between the local flip (Fig. 2 line 5's register update) and the
       issuing of the store, the collector is at the write itself *)
    || Model.at_prefix sys Config.pid_gc "gc:write-fM"
  in
  witnessed ~name:"gc_fM_coherent"
    ~doc:"the collector's local f_M agrees with memory, modulo its own pending write"
    ~safety:false
    ~paper:"the collector's view of the sense flip, Section 3.2 \"Initialization\" / Fig. 2 line 5"
    ~conjuncts:
      [
        ( "gc-fM-coherent",
          "the collector's register copy of f_M equals its pending f_M write if one is in \
           flight, else the committed f_M" );
      ]
    check (fun sys ->
      let sd = Model.sys_data sys cfg in
      let g = Model.gc_data sys in
      [
        w "gc-fM-coherent" ~pids:[ Config.pid_gc ]
          (Fmt.str
             "the collector's local f_M is %b but memory has f_M=%b and its pending f_M \
              write is %s"
             g.g_fM sd.s_mem.fM
             (match pending_fM sd with None -> "absent" | Some b -> string_of_bool b));
      ])

(* -- The phase protocol (Fig. 3 / sys_phase_inv) -------------------------- *)

let pending_phase_writes sd =
  List.filter_map (function W_phase p -> Some p | _ -> None) (buf_of sd Config.pid_gc)

let pending_fA sd =
  List.exists (function W_fA _ -> true | _ -> false) (buf_of sd Config.pid_gc)

(* Phase values consistent with each handshake span, taking the collector's
   pending writes into account.  Presumes the handshake fences. *)
let phase_inv cfg =
  let check sys =
    if not cfg.Config.handshake_fences then true
    else begin
      let sd = Model.sys_data sys cfg in
      let mem_phase = sd.s_mem.phase in
      let pend = pending_phase_writes sd in
      let round_active = List.exists not sd.s_hs_done in
      match sd.s_hs_type with
      | Hs_nop1 ->
        if cfg.Config.skip_init_handshakes then
          (* O1: all the initialization writes happen during this span *)
          (mem_phase = Ph_idle || mem_phase = Ph_init || mem_phase = Ph_mark)
          && List.for_all (fun p -> p = Ph_init || p = Ph_mark) pend
        else mem_phase = Ph_idle && pend = []
      | Hs_nop2 ->
        (mem_phase = Ph_idle || mem_phase = Ph_init)
        && List.for_all (fun p -> p = Ph_init) pend
      | Hs_nop3 ->
        (mem_phase = Ph_init || mem_phase = Ph_mark)
        && List.for_all (fun p -> p = Ph_mark) pend
      | Hs_nop4 -> mem_phase = Ph_mark && pend = []
      | Hs_get_roots | Hs_get_work ->
        (* The mark loop can terminate with zero get-work rounds (an
           empty snapshot, Fig. 2 line 25), so sweep's phase writes can
           already be in flight while the last round's type is still
           current.  During an active round, though, phase is stable. *)
        if round_active then mem_phase = Ph_mark && pend = []
        else List.for_all (fun p -> p = Ph_sweep || p = Ph_idle) pend
    end
  in
  witnessed ~name:"sys_phase_inv"
    ~doc:"the phase variable (memory + pending writes) tracks the handshake structure of Fig. 3"
    ~safety:false
    ~paper:"sys_phase_inv / handshake_phase_inv, Section 3.2 / Fig. 3"
    ~conjuncts:
      [
        ( "phase-span-nop1",
          "during the idle-sync span memory has phase Idle and no phase write is in flight" );
        ( "phase-span-nop2",
          "during the nop2 span the phase is Idle or Init, with only Init writes in flight" );
        ( "phase-span-nop3",
          "during the nop3 span the phase is Init or Mark, with only Mark writes in flight" );
        ( "phase-span-nop4",
          "during the nop4 span memory has phase Mark and no phase write is in flight" );
        ( "phase-span-get-roots",
          "during an active root handshake the phase is a committed Mark; once the round is \
           over only Sweep/Idle writes may be in flight" );
        ( "phase-span-get-work",
          "during an active termination handshake the phase is a committed Mark; once the \
           round is over only Sweep/Idle writes may be in flight" );
      ]
    check (fun sys ->
      let sd = Model.sys_data sys cfg in
      [
        w
          (Fmt.str "phase-span-%a" pp_hs sd.s_hs_type)
          ~pids:[ Config.pid_gc ]
          (Fmt.str
             "during the %a handshake span memory has phase=%a with pending phase writes \
              [%a], which the Fig. 3 protocol forbids"
             pp_hs sd.s_hs_type pp_phase sd.s_mem.phase
             Fmt.(list ~sep:comma pp_phase)
             (pending_phase_writes sd));
      ])

let fa_fm_relation cfg =
  let check sys =
    if not cfg.Config.handshake_fences then true
    else begin
      let sd = Model.sys_data sys cfg in
      match sd.s_hs_type with
      | Hs_nop2 ->
        (* the sense flip committed before this round began; fA is
           rewritten only at line 12, much later *)
        (not (pending_fA sd)) && sd.s_mem.fA <> sd.s_mem.fM
      | Hs_nop3 ->
        (* the fA := fM write happens within this span: the senses agree
           only once it has committed *)
        not (sd.s_mem.fA = sd.s_mem.fM && pending_fA sd)
      | Hs_nop4 | Hs_get_roots | Hs_get_work ->
        (not (pending_fA sd)) && sd.s_mem.fA = sd.s_mem.fM
      | Hs_nop1 -> true (* the flip lands mid-span: both values legitimate *)
    end
  in
  witnessed ~name:"fA_fM_relation"
    ~doc:"f_A tracks f_M per handshake span: distinct across initialization, equal from nop4 on"
    ~safety:false
    ~paper:"fA_fM_relation (allocation-sense protocol), Section 3.2 / Fig. 2 lines 5-12"
    ~conjuncts:
      [
        ( "fA-fM-span-nop1",
          "the sense flip lands mid-span: both relations are legitimate (never a witness)" );
        ( "fA-fM-span-nop2",
          "the flip committed before the round began: f_A and f_M differ in memory and no \
           f_A write is in flight" );
        ( "fA-fM-span-nop3",
          "the f_A := f_M write happens within this span: the senses agree in memory only \
           once it has committed" );
        ( "fA-fM-span-nop4",
          "from nop4 on the senses agree in memory with no f_A write in flight" );
        ( "fA-fM-span-get-roots",
          "from nop4 on the senses agree in memory with no f_A write in flight" );
        ( "fA-fM-span-get-work",
          "from nop4 on the senses agree in memory with no f_A write in flight" );
      ]
    check (fun sys ->
      let sd = Model.sys_data sys cfg in
      [
        w
          (Fmt.str "fA-fM-span-%a" pp_hs sd.s_hs_type)
          ~pids:[ Config.pid_gc ]
          (Fmt.str
             "during the %a span memory has fA=%b fM=%b with %s pending fA write, violating \
              the allocation-sense protocol"
             pp_hs sd.s_hs_type sd.s_mem.fA sd.s_mem.fM
             (if pending_fA sd then "a" else "no"));
      ])

(* -- Colour structure per phase ------------------------------------------ *)

(* hp_IdleInit / hp_InitMark: no black references until the write to f_A is
   committed (mutator allocate white until then). *)
let no_black_refs_init cfg =
  let check sys =
    if not cfg.Config.handshake_fences then true
    else begin
      let sd = Model.sys_data sys cfg in
      match sd.s_hs_type with
      | Hs_nop2 | Hs_nop3 ->
        if sd.s_mem.fA <> sd.s_mem.fM then Color.black_mask cfg sd = 0 else true
      | Hs_nop1 | Hs_nop4 | Hs_get_roots | Hs_get_work -> true
    end
  in
  witnessed ~name:"no_black_refs_init"
    ~doc:"between the sense flip and the commit of fA := fM there are no black references"
    ~safety:false
    ~paper:"hp_IdleInit / hp_InitMark colour structure, Section 3.2 \"Initialization\""
    ~conjuncts:
      [
        ( "no-black-before-fA-commit",
          "while f_A and f_M still differ during initialization, no reference is black \
           (allocation still produces white)" );
      ]
    check (fun sys ->
      let sd = Model.sys_data sys cfg in
      List.map
        (fun r ->
          w "no-black-before-fA-commit" ~refs:[ r ]
            (Fmt.str "reference %d is black before the fA := fM write has committed" r))
        (Color.blacks cfg sd))

(* hp_Idle: the heap is uniformly black (before the flip commits) or
   uniformly white (after), and there are no greys. *)
let idle_heap_uniform cfg =
  let check sys =
    if (not cfg.Config.handshake_fences) || cfg.Config.skip_init_handshakes then
      (* under O1 the barriers can already fire during the nop1 span *)
      true
    else begin
      let sd = Model.sys_data sys cfg in
      match sd.s_hs_type with
      | Hs_nop1 ->
        Color.grey_mask cfg sd = 0
        &&
        let uniform =
          if sd.s_mem.fA = sd.s_mem.fM then Color.marked_mask sd else Color.white_mask sd
        in
        Gcheap.Heap.valid_mask sd.s_mem.heap land lnot uniform = 0
      | Hs_nop2 | Hs_nop3 | Hs_nop4 | Hs_get_roots | Hs_get_work -> true
    end
  in
  witnessed ~name:"idle_heap_uniform"
    ~doc:"during the idle-sync span the heap is uniformly coloured and grey-free" ~safety:false
    ~paper:"hp_Idle colour structure, Section 3.2 \"Initialization\""
    ~conjuncts:
      [
        ("idle-grey-free", "no reference is grey during the idle-sync span");
        ( "idle-uniform-colour",
          "during the idle-sync span the heap is uniformly black (before the flip commits) \
           or uniformly white (after)" );
      ]
    check (fun sys ->
      let sd = Model.sys_data sys cfg in
      let greys = Color.greys cfg sd in
      let dom = Gcheap.Heap.domain sd.s_mem.heap in
      let off =
        if sd.s_mem.fA = sd.s_mem.fM then
          List.filter (fun r -> not (Color.is_marked sd r)) dom
        else List.filter (fun r -> not (Color.is_white sd r)) dom
      in
      List.map
        (fun r ->
          w "idle-grey-free" ~refs:[ r ]
            (Fmt.str "reference %d is grey during the idle-sync span" r))
        greys
      @ List.map
          (fun r ->
            w "idle-uniform-colour" ~refs:[ r ]
              (Fmt.str "reference %d breaks the idle span's uniform heap colouring" r))
          off)

(* -- Write-barrier invariants (mutator_phase_inv) ------------------------- *)

let marked_insertions cfg =
  let check sys =
    if not (cfg.Config.insertion_barrier && cfg.Config.handshake_fences) then true
    else begin
      let sd = Model.sys_data sys cfg in
      let inserted m hs buf =
        match hp_of_hs hs with
        | Hp_init_mark | Hp_idle_mark_sweep ->
          List.fold_left (fun m -> function W_field (_, _, Some r) -> add m r | _ -> m) m buf
        | Hp_idle | Hp_idle_init -> m
      in
      let ins = fold_muts inserted 0 sd land Gcheap.Heap.universe sd.s_mem.heap in
      ins = 0 || ins land lnot (Color.marked_mask sd lor Color.grey_mask cfg sd) = 0
    end
  in
  witnessed ~name:"marked_insertions"
    ~doc:"mutators past the insertion-barrier handshake have only marked references in flight"
    ~safety:false
    ~paper:"the insertion half of mutator_phase_inv, Section 3.2 / Fig. 6 line 9"
    ~conjuncts:
      [
        ( "insertions-marked",
          "every reference a post-initialization mutator is inserting (a pending field \
           write) is already marked or grey" );
      ]
    check (fun sys ->
      let sd = Model.sys_data sys cfg in
      List.concat_map
        (fun m ->
          match mut_hp sd m with
          | Hp_init_mark | Hp_idle_mark_sweep ->
            List.filter_map
              (fun r ->
                if Color.is_marked sd r || Color.is_grey cfg sd r then None
                else
                  Some
                    (w "insertions-marked" ~refs:[ r ] ~pids:[ Config.pid_mut cfg m ]
                       (Fmt.str
                          "mutator %d has the unmarked reference %d in a pending field \
                           write past the insertion-barrier handshake"
                          m r)))
              (buffered_insertions sd (Config.pid_mut cfg m))
          | Hp_idle | Hp_idle_init -> [])
        (List.init cfg.Config.n_muts Fun.id))

let marked_deletions cfg =
  let check sys =
    if not (cfg.Config.deletion_barrier && cfg.Config.handshake_fences) then true
    else begin
      let sd = Model.sys_data sys cfg in
      let deleted m hs buf =
        match hp_of_hs hs with
        | Hp_idle_mark_sweep -> m lor deletions_mask sd.s_mem.heap buf
        | Hp_idle | Hp_idle_init | Hp_init_mark -> m
      in
      let dels = fold_muts deleted 0 sd in
      dels = 0 || dels land lnot (Color.marked_mask sd lor Color.grey_mask cfg sd) = 0
    end
  in
  witnessed ~name:"marked_deletions"
    ~doc:"mutators past the snapshot handshakes only overwrite marked references" ~safety:false
    ~paper:"the deletion half of mutator_phase_inv, Section 3.2 / Fig. 6 line 8"
    ~conjuncts:
      [
        ( "deletions-marked",
          "every reference a post-snapshot mutator is overwriting (deleted by a pending \
           field write) is already marked or grey" );
      ]
    check (fun sys ->
      let sd = Model.sys_data sys cfg in
      List.concat_map
        (fun m ->
          match mut_hp sd m with
          | Hp_idle_mark_sweep ->
            List.filter_map
              (fun r ->
                if Color.is_marked sd r || Color.is_grey cfg sd r then None
                else
                  Some
                    (w "deletions-marked" ~refs:[ r ] ~pids:[ Config.pid_mut cfg m ]
                       (Fmt.str
                          "mutator %d is overwriting the unmarked reference %d (a pending \
                           field write deletes it) past the snapshot handshake"
                          m r)))
              (buffered_deletions sd (Config.pid_mut cfg m))
          | Hp_idle | Hp_idle_init | Hp_init_mark -> [])
        (List.init cfg.Config.n_muts Fun.id))

(* -- The snapshot invariant (Section 3.2 "Initialization") ---------------- *)

(* For every mutator whose roots have been sampled this cycle ("black"
   mutators), everything reachable from its roots is black, grey, or a
   grey-protected white. *)
let reachable_snapshot_inv cfg =
  let guard =
    cfg.Config.deletion_barrier && cfg.Config.insertion_barrier && cfg.Config.handshake_fences
    && not cfg.Config.alloc_white
  in
  let check sys =
    if not guard then true
    else begin
      let sd = Model.sys_data sys cfg in
      let heap = sd.s_mem.heap in
      (* the union over black mutators: each one's reach is covered iff
         the union's is *)
      let rec roots m i =
        if i = cfg.Config.n_muts then m
        else if mut_black sd i then
          roots (List.fold_left add m (Model.mut_data sys cfg i).m_roots) (i + 1)
        else roots m (i + 1)
      in
      let roots = roots 0 0 land Gcheap.Heap.universe heap in
      roots = 0
      || Gcheap.Reach.reach heap roots
         land lnot (Color.marked_mask sd lor Color.grey_mask cfg sd lor Color.protected_mask cfg sd)
         = 0
    end
  in
  witnessed ~name:"reachable_snapshot_inv"
    ~doc:"black mutators only reach black, grey, or grey-protected white objects" ~safety:false
    ~paper:"the snapshot invariant, Section 3.2 \"Initialization\" / Fig. 2 lines 15-20"
    ~conjuncts:
      [
        ( "snapshot-reachable-protected",
          "everything reachable from a root-sampled (black) mutator is black, grey, or a \
           white protected by a grey chain" );
      ]
    check (fun sys ->
      let sd = Model.sys_data sys cfg in
      let protected_whites = Color.grey_protected_whites cfg sd in
      List.concat_map
        (fun m ->
          if not (mut_black sd m) then []
          else
            let roots = (Model.mut_data sys cfg m).m_roots in
            List.filter_map
              (fun r ->
                if
                  Color.is_marked sd r || Color.is_grey cfg sd r
                  || List.mem r protected_whites
                then None
                else
                  Some
                    (w "snapshot-reachable-protected" ~refs:[ r ]
                       ~pids:[ Config.pid_mut cfg m ]
                       (Fmt.str
                          "black mutator %d reaches reference %d, which is an unprotected \
                           white (neither marked, grey, nor grey-protected)"
                          m r)))
              (Gcheap.Reach.reachable_set sd.s_mem.heap roots))
        (List.init cfg.Config.n_muts Fun.id))

(* -- Mark-loop termination (gc_W_empty_mut_inv) --------------------------- *)

let gc_w_empty_mut_inv cfg =
  let guard =
    cfg.Config.deletion_barrier && cfg.Config.insertion_barrier && cfg.Config.handshake_fences
    && not cfg.Config.alloc_white
  in
  let check sys =
    if not guard then true
    else begin
      let sd = Model.sys_data sys cfg in
      let round_active = List.exists not sd.s_hs_done in
      match sd.s_hs_type with
      | (Hs_get_roots | Hs_get_work) when round_active ->
        (* The paper notes this predicate "is only invariant over those
           handshakes, when the collector's W is known to start empty":
           outside a round the collector itself drains W while barriers
           may grey new work.  Grey work includes an in-flight honorary
           grey (its owner is about to publish it). *)
        if wl_of sd Config.pid_gc <> [] then true
        else begin
          let muts = List.init cfg.Config.n_muts Fun.id in
          let grey_work m =
            wl_of sd (Config.pid_mut cfg m) <> []
            || ghg_of sd (Config.pid_mut cfg m) <> None
          in
          let offender = List.exists (fun m -> hs_done sd m && grey_work m) muts in
          (not offender) || List.exists (fun m -> (not (hs_done sd m)) && grey_work m) muts
        end
      | Hs_get_roots | Hs_get_work | Hs_nop1 | Hs_nop2 | Hs_nop3 | Hs_nop4 -> true
    end
  in
  witnessed ~name:"gc_W_empty_mut_inv"
    ~doc:
      "over root/termination handshakes: a completed mutator with leftover grey work implies \
       some yet-to-complete mutator also holds grey work"
    ~safety:false
    ~paper:"gc_W_empty_mut_inv (mark-loop termination), Section 3.2 / Fig. 2 lines 24-34"
    ~conjuncts:
      [
        ( "grey-work-accounted",
          "when the collector's W is empty mid-round, any grey work still held by a \
           completed mutator is covered by a yet-to-complete one" );
      ]
    check (fun sys ->
      let sd = Model.sys_data sys cfg in
      let muts = List.init cfg.Config.n_muts Fun.id in
      let grey_work m =
        wl_of sd (Config.pid_mut cfg m) @ (match ghg_of sd (Config.pid_mut cfg m) with Some r -> [ r ] | None -> [])
      in
      List.filter_map
        (fun m ->
          let work = grey_work m in
          if hs_done sd m && work <> [] then
            Some
              (w "grey-work-accounted" ~refs:work ~pids:[ Config.pid_mut cfg m ]
                 (Fmt.str
                    "mutator %d completed the %a round but still holds grey work, and no \
                     yet-to-complete mutator holds any"
                    m pp_hs sd.s_hs_type))
          else None)
        muts)

(* -- Tricolor invariants (Section 2.1) ------------------------------------ *)

(* Weak tricolor over the heap: any white object referred to by a black
   object is grey-protected (Fig. 1).  Holds unconditionally for the real
   collector. *)
let weak_tricolor cfg =
  let guard =
    cfg.Config.deletion_barrier && cfg.Config.insertion_barrier && cfg.Config.handshake_fences
    && not cfg.Config.alloc_white
  in
  let check sys =
    if not guard then true
    else begin
      let sd = Model.sys_data sys cfg in
      let pointed = Gcheap.Heap.children_mask sd.s_mem.heap (Color.black_mask cfg sd) in
      let white_pointed = pointed land Color.white_mask sd in
      white_pointed = 0 || white_pointed land lnot (Color.protected_mask cfg sd) = 0
    end
  in
  witnessed ~name:"weak_tricolor_inv"
    ~doc:"white objects pointed to by black objects are grey-protected" ~safety:false
    ~paper:"the weak tricolor invariant, Section 2.1 / Fig. 1"
    ~conjuncts:
      [
        ( "black-to-white-protected",
          "every white object directly pointed to by a black object is protected by a grey \
           chain" );
      ]
    check
    (fun sys ->
      let sd = Model.sys_data sys cfg in
      let protected_whites = Color.grey_protected_whites cfg sd in
      List.concat_map
        (fun b ->
          match Gcheap.Heap.get sd.s_mem.heap b with
          | None -> []
          | Some o ->
            List.filter_map
              (fun c ->
                if (not (Color.is_white sd c)) || List.mem c protected_whites then None
                else
                  Some
                    (w "black-to-white-protected" ~refs:[ b; c ]
                       (Fmt.str
                          "black object %d points to white object %d, which no grey chain \
                           protects"
                          b c)))
              (Gcheap.Obj.children o))
        (Color.blacks cfg sd))

(* Strong tricolor over the heap, on the spans where the paper claims it:
   from the commit of fA := fM through the end of the cycle. *)
let strong_tricolor cfg =
  let guard =
    cfg.Config.insertion_barrier && cfg.Config.handshake_fences
    && (not cfg.Config.alloc_white)
    && not cfg.Config.insertion_skip_after_roots
  in
  let check sys =
    if not guard then true
    else begin
      let sd = Model.sys_data sys cfg in
      match sd.s_hs_type with
      | Hs_nop4 | Hs_get_roots | Hs_get_work ->
        sd.s_mem.fA <> sd.s_mem.fM
        || Gcheap.Heap.children_mask sd.s_mem.heap (Color.black_mask cfg sd)
           land Color.white_mask sd
           = 0
      | Hs_nop1 | Hs_nop2 | Hs_nop3 -> true
    end
  in
  witnessed ~name:"strong_tricolor_inv"
    ~doc:"no black-to-white heap edges from the fA commit through the cycle's end"
    ~safety:false
    ~paper:"the strong tricolor invariant, Section 2.1"
    ~conjuncts:
      [
        ( "no-black-to-white-after-fA-commit",
          "from the f_A := f_M commit through the cycle's end there is no black-to-white \
           heap edge at all" );
      ]
    check (fun sys ->
      let sd = Model.sys_data sys cfg in
      List.concat_map
        (fun b ->
          match Gcheap.Heap.get sd.s_mem.heap b with
          | None -> []
          | Some o ->
            List.filter_map
              (fun c ->
                if not (Color.is_white sd c) then None
                else
                  Some
                    (w "no-black-to-white-after-fA-commit" ~refs:[ b; c ]
                       (Fmt.str
                          "black object %d points to white object %d after the fA := fM \
                           commit"
                          b c)))
              (Gcheap.Obj.children o))
        (Color.blacks cfg sd))

(* -- Catalogue ------------------------------------------------------------ *)

let safety_invariants cfg = [ valid_refs_inv cfg; no_dangling cfg; free_only_garbage cfg ]

let auxiliary_invariants cfg =
  [
    worklists_disjoint cfg;
    valid_w_inv cfg;
    tso_ownership cfg;
    tso_lock_scope cfg;
    gc_fm_coherent cfg;
    phase_inv cfg;
    fa_fm_relation cfg;
    no_black_refs_init cfg;
    idle_heap_uniform cfg;
    marked_insertions cfg;
    marked_deletions cfg;
    reachable_snapshot_inv cfg;
    gc_w_empty_mut_inv cfg;
    weak_tricolor cfg;
    strong_tricolor cfg;
  ]

let all cfg = safety_invariants cfg @ auxiliary_invariants cfg

let find cfg name = List.find_opt (fun i -> i.name = name) (all cfg)

(* Tests for the state-space reduction subsystem (lib/reduce and its
   Core.Reduction instantiation): symmetry canonicalization, the POR
   independence argument on concrete reachable states, differential
   reduced-vs-unreduced verdicts over the closing scenarios, and the
   cross-check harness itself. *)

let witness name = Core.Scenario.witness_for (Option.get (Core.Variants.by_name name))

(* Collect up to [limit] distinct reachable normal-form states by BFS —
   raw material for the property tests below — then the new states along
   [walks] seeded random walks of 150 steps from the root, which reach
   deeper than a BFS prefix of the same size. *)
let collect ?(limit = 4_000) ?(walks = 0) sc =
  let sys0 = Cimp.System.normalize (Core.Scenario.model sc).Core.Model.system in
  let seen = Check.Fingerprint.Table.create 1024 in
  let q = Queue.create () in
  let out = ref [] in
  let visit s =
    let fp = Check.Fingerprint.of_system s in
    if not (Check.Fingerprint.Table.mem seen fp) then begin
      Check.Fingerprint.Table.add seen fp ();
      Queue.add s q;
      out := s :: !out
    end
  in
  visit sys0;
  while (not (Queue.is_empty q)) && Check.Fingerprint.Table.length seen < limit do
    let s = Queue.pop q in
    List.iter (fun (_e, s') -> visit (Cimp.System.normalize s')) (Cimp.System.steps s)
  done;
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to walks do
    let s = ref sys0 in
    for _ = 1 to 150 do
      match Cimp.System.steps !s with
      | [] -> ()
      | succs ->
        let _, s' = List.nth succs (Random.State.int rng (List.length succs)) in
        s := Cimp.System.normalize s';
        visit !s
    done
  done;
  List.rev !out

(* -- Mode parsing --------------------------------------------------------- *)

let test_mode_roundtrip () =
  List.iter
    (fun m ->
      Alcotest.(check bool)
        ("roundtrip " ^ Reduce.Mode.to_string m)
        true
        (Reduce.Mode.of_string (Reduce.Mode.to_string m) = Ok m))
    Reduce.Mode.all_modes;
  match Reduce.Mode.of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "of_string accepted \"bogus\""

let test_permutations () =
  let ps = Reduce.Symmetry.permutations [ 0; 1; 2 ] in
  Alcotest.(check int) "3! permutations" 6 (List.length ps);
  Alcotest.(check int) "all distinct" 6 (List.length (List.sort_uniq compare ps));
  List.iter
    (fun p -> Alcotest.(check (list int)) "is a permutation" [ 0; 1; 2 ] (List.sort compare p))
    ps

(* Elements are removed by position, so repeats are permuted too: every
   result has the input's length and multiset. *)
let test_permutations_repeats () =
  let ps = Reduce.Symmetry.permutations [ 0; 0; 1 ] in
  Alcotest.(check int) "3! permutations" 6 (List.length ps);
  List.iter
    (fun p -> Alcotest.(check (list int)) "same multiset" [ 0; 0; 1 ] (List.sort compare p))
    ps;
  Alcotest.(check (list (list int)))
    "distinct arrangements" [ [ 0; 0; 1 ]; [ 0; 1; 0 ]; [ 1; 0; 0 ] ]
    (List.sort_uniq compare ps)

(* -- Symmetry: canonical fingerprint is a permutation invariant ------------ *)

let sym_scenario n_muts =
  Core.Scenario.make ~label:"sym-prop" ~n_muts ~n_refs:2 ~shape:"single" ~max_mut_ops:1 ()

(* A permutation [pi] of the mutator indices as a pid map, identity off
   the symmetric pids. *)
let pid_perm spec pi =
  let sym = Array.of_list spec.Reduce.Symmetry.sym_pids and pi = Array.of_list pi in
  fun p -> match Array.find_index (( = ) p) sym with Some m -> sym.(pi.(m)) | None -> p

(* For every reachable state outside the handshake signal window and every
   permutation pi of the mutator indices, the canonical fingerprint of the
   state and of its pi-image coincide — this is exactly what makes
   dedup-by-canonical-fingerprint collapse the orbit. *)
let sym_invariance n_muts () =
  let sc = sym_scenario n_muts in
  let cfg = sc.Core.Scenario.cfg in
  let spec = Core.Reduction.spec cfg in
  let canon_fp s =
    let fp, _, _ = Reduce.Symmetry.canonical_fingerprint spec s in
    fp
  in
  let perms = Reduce.Symmetry.permutations (List.init n_muts Fun.id) in
  let states = collect ~limit:4_000 sc in
  let tested = ref 0 and buffered = ref 0 and permuted = ref 0 in
  List.iter
    (fun s ->
      if spec.Reduce.Symmetry.permute_ok s then begin
        incr tested;
        let sd = Core.State.sys (Cimp.System.proc s (Core.Config.pid_sys cfg)).Cimp.Com.data in
        let bufs =
          List.init n_muts (fun m -> Core.State.buf_of sd (Core.Config.pid_mut cfg m))
        in
        (* distinct non-empty store buffers are the delicate case: the
           per-pid Sys slices must travel with the permutation *)
        if List.exists (fun b -> b <> []) bufs && List.length (List.sort_uniq compare bufs) > 1
        then incr buffered;
        let fp = canon_fp s in
        (let _, moved, _ = Reduce.Symmetry.canonical_fingerprint spec s in
         if moved then incr permuted);
        List.iter
          (fun p ->
            let s' = Reduce.Symmetry.permute spec (pid_perm spec p) s in
            if not (Check.Fingerprint.equal fp (canon_fp s')) then
              Alcotest.fail
                (Fmt.str "canonical fingerprint not invariant under %a"
                   Fmt.(brackets (list ~sep:semi int))
                   p))
          perms
      end)
    states;
  Alcotest.(check bool) "sampled permutable states" true (!tested > 100);
  Alcotest.(check bool) "covered distinct non-empty buffers" true (!buffered > 0);
  Alcotest.(check bool) "the sort actually moves processes" true (!permuted > 0)

let test_sym_invariance_2 () = sym_invariance 2 ()
let test_sym_invariance_3 () = sym_invariance 3 ()

(* -- Symmetry: a mutator permutation is an automorphism -------------------- *)

let rename_event perm = function
  | Cimp.System.Tau (p, l) -> Cimp.System.Tau (perm p, l)
  | Cimp.System.Rendezvous r ->
    Cimp.System.Rendezvous { r with requester = perm r.requester; responder = perm r.responder }

(* Does [xs] equal [ys] as a multiset under [same]? *)
let same_multiset same xs ys =
  let rec remove x = function
    | [] -> None
    | y :: ys -> if same x y then Some ys else Option.map (List.cons y) (remove x ys)
  in
  let rec go xs ys =
    match xs with
    | [] -> ys = []
    | x :: xs -> ( match remove x ys with Some ys -> go xs ys | None -> false)
  in
  go xs ys

(* The premises the symmetry reduction rests on, executed rather than
   argued, for every reachable state of the sample and every
   non-identity permutation pi of the mutators:
   P1 (where [permute_ok] holds) the pi-image of a state has exactly the
      pi-images of its transitions: the same events with renamed pids,
      to the permuted successors;
   P2 (where [permute_ok] holds) every invariant gives the pi-image the
      verdict it gives the state;
   P3 (every state) the canonical fingerprint is the plain fingerprint of
      a runnable orbit member, some permutation of [canon_state].
   Inside the signal window P1 must fail somewhere, or [permute_ok]
   would exclude states for nothing.  Outside it the sample must offer
   [mut:hs-done] edges, the one step that writes the per-mutator
   handshake slice [s_hs_mut_hs]: a BFS prefix at three mutators holds
   none, so the random walks' deeper states supply them. *)
let sym_automorphism n_muts ~limit () =
  let sc = sym_scenario n_muts in
  let cfg = sc.Core.Scenario.cfg in
  let spec = Core.Reduction.spec cfg in
  let invariants = Core.Invariants.all cfg in
  let all_perms = Reduce.Symmetry.permutations (List.init n_muts Fun.id) in
  let perms = List.filter (fun pi -> pi <> List.init n_muts Fun.id) all_perms in
  let fp s = Check.Fingerprint.of_system (Cimp.System.normalize s) in
  let same (e, f) (e', f') = e = e' && Check.Fingerprint.equal f f' in
  let outside = ref 0 and edges = ref 0 and inside = ref 0 and inside_failed = ref 0 in
  let hs_done = ref 0 in
  let is_hs_done = function
    | Cimp.System.Rendezvous { req_label; _ } -> Cimp.Label.name req_label = "mut:hs-done"
    | Cimp.System.Tau _ -> false
  in
  let pp_pi = Fmt.(brackets (list ~sep:semi int)) in
  let states = collect ~limit ~walks:20 sc in
  let refused perm =
    match Reduce.Symmetry.permute spec perm (List.hd states) with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "permute refuses to move the collector" true
    (refused (fun p -> if p < 2 then 1 - p else p));
  Alcotest.(check bool) "permute refuses a map that is not one-to-one" true
    (refused (fun p -> if p = 2 then 1 else p));
  List.iter
    (fun s ->
      let ok = spec.Reduce.Symmetry.permute_ok s in
      let succs = Cimp.System.steps s in
      List.iter
        (fun pi ->
          let perm = pid_perm spec pi in
          let t = Reduce.Symmetry.permute spec perm s in
          let expected =
            List.map
              (fun (e, s') -> (rename_event perm e, fp (Reduce.Symmetry.permute spec perm s')))
              succs
          in
          let actual = List.map (fun (e, t') -> (e, fp t')) (Cimp.System.steps t) in
          let p1 = same_multiset same expected actual in
          if ok then begin
            incr outside;
            edges := !edges + List.length expected;
            hs_done := !hs_done + List.length (List.filter (fun (e, _) -> is_hs_done e) succs);
            if not p1 then Alcotest.failf "P1: transitions not permuted by %a" pp_pi pi;
            List.iter
              (fun (i : Core.Invariants.t) ->
                if i.check s <> i.check t then
                  Alcotest.failf "P2: %s tells a state from its image under %a" i.name pp_pi pi)
              invariants
          end
          else begin
            incr inside;
            if not p1 then incr inside_failed
          end)
        perms;
      let canon, _, _ = Reduce.Symmetry.canonical_fingerprint spec s in
      let rep = Reduce.Symmetry.canon_state spec s in
      if
        not
          (List.exists
             (fun pi ->
               Check.Fingerprint.equal canon
                 (Check.Fingerprint.of_system (Reduce.Symmetry.permute spec (pid_perm spec pi) rep)))
             all_perms)
      then Alcotest.fail "P3: a canonical fingerprint belongs to no runnable orbit member")
    states;
  Alcotest.(check bool)
    (Fmt.str "P1/P2 covered >= 1000 pairs outside the window (%d, %d edges)" !outside !edges)
    true (!outside >= 1_000);
  Alcotest.(check bool)
    (Fmt.str "P1 covered >= 100 mut:hs-done edges outside the window (%d)" !hs_done)
    true (!hs_done >= 100);
  Alcotest.(check bool)
    (Fmt.str "P1 fails inside the window (%d of %d pairs)" !inside_failed !inside)
    true (!inside_failed > 0)

let test_sym_automorphism_2 () = sym_automorphism 2 ~limit:4_000 ()
let test_sym_automorphism_3 () = sym_automorphism 3 ~limit:3_000 ()

(* -- Symmetry: the typed order and the in-place mix, against lists ---------- *)

(* The mutator order's oracle: the seven components of [pid] as one
   tuple, compared polymorphically, which is how the canonical order was
   keyed before its typed comparator.  The typed order must be exactly
   this one, or the orbit representatives, and with them every reduced
   count and certificate, move. *)
let key_tuple cfg sys ~canon pid =
  let sd = Core.Model.sys_data sys cfg in
  let m = pid - 1 in
  Stdlib.Obj.repr
    ( Cimp.Com.stack_labels (Cimp.System.proc sys pid).Cimp.Com.stack,
      Core.State.mut canon.(pid),
      Core.State.buf_of sd pid,
      Core.State.wl_of sd pid,
      Core.State.ghg_of sd pid,
      (Core.State.hs_bit sd m, Core.State.hs_done sd m, List.nth sd.Core.State.s_hs_mut_hs m),
      sd.Core.State.s_lock = Some pid )

(* The key's nine fields, the handshake triple flattened: [compare] on
   the tuple is lexicographic over them. *)
let key_fields k =
  let field = Stdlib.Obj.field in
  let hs = field k 5 in
  [|
    field k 0; field k 1; field k 2; field k 3; field k 4; field hs 0; field hs 1; field hs 2;
    field k 6;
  |]

let n_fields = 9

let canon_payloads spec sys =
  Array.init (Cimp.System.n_procs sys) (fun p ->
      let c = Cimp.System.proc sys p in
      spec.Reduce.Symmetry.canon_local sys ~pid:p ~stack:c.Cimp.Com.stack c.Cimp.Com.data)

let any_nulled sys canon =
  let nulled = ref false in
  Array.iteri (fun p c -> if c != (Cimp.System.proc sys p).Cimp.Com.data then nulled := true) canon;
  !nulled

(* The canonical fingerprint assembled as [of_parts] takes it: spine
   lists, the stable sort on [key_tuple], renamed payloads; with whether
   the sort moved a process and whether a register was nulled. *)
let listed_canonical cfg spec sys =
  let n = Cimp.System.n_procs sys in
  let canon = canon_payloads spec sys in
  let sym = Array.of_list spec.Reduce.Symmetry.sym_pids in
  let src = Array.init n Fun.id in
  if Array.length sym > 1 && spec.Reduce.Symmetry.permute_ok sys then begin
    let order = Array.map (fun p -> (key_tuple cfg sys ~canon p, p)) sym in
    Array.stable_sort (fun (k, _) (k', _) -> compare k k') order;
    Array.iteri (fun i (_, p) -> src.(sym.(i)) <- p) order
  end;
  let moved = Array.exists Fun.id (Array.mapi (fun q p -> p <> q) src) in
  let perm = Array.make n 0 in
  Array.iteri (fun q p -> perm.(p) <- q) src;
  let payload q =
    let d = canon.(src.(q)) in
    if moved then spec.Reduce.Symmetry.rename_shared ~perm:(Array.get perm) ~pid:q d else d
  in
  let control =
    List.init n (fun q -> Cimp.Com.stack_labels (Cimp.System.proc sys src.(q)).Cimp.Com.stack)
  in
  let data = List.init n (fun q -> Stdlib.Obj.repr (payload q)) in
  (Check.Fingerprint.of_parts ~control ~data, moved, any_nulled sys canon)

(* The sample of both tests: the BFS prefix and walk states of [collect]
   with every mutator permutation of each, so states inside the signal
   window, states with dead registers to null and states the sort must
   move all occur. *)
let order_sample n_muts =
  let sc = sym_scenario n_muts in
  let cfg = sc.Core.Scenario.cfg in
  let spec = Core.Reduction.spec cfg in
  let perms = Reduce.Symmetry.permutations (List.init n_muts Fun.id) in
  let states =
    List.concat_map
      (fun s -> List.map (fun pi -> Reduce.Symmetry.permute spec (pid_perm spec pi) s) perms)
      (collect ~limit:2_000 ~walks:20 sc)
  in
  (cfg, spec, states)

(* [s] with the Sys slice behind key field [j] (2 to 8) set so that
   mutator [lo] holds a value below mutator [hi]'s. *)
let set_slice cfg s j ~lo ~hi =
  let open Core.State in
  let nth_set l i x = List.mapi (fun k y -> if k = i then x else y) l in
  let set sd =
    match j with
    | 2 -> set_buf (set_buf sd lo []) hi [ Core.Types.W_fA true ]
    | 3 -> set_wl (set_wl sd lo []) hi [ 0 ]
    | 4 -> set_ghg (set_ghg sd lo None) hi (Some 0)
    | 5 -> set_hs_bit (set_hs_bit sd (lo - 1) false) (hi - 1) true
    | 6 -> set_hs_done (set_hs_done sd (lo - 1) false) (hi - 1) true
    | 7 ->
      let l = nth_set sd.s_hs_mut_hs (lo - 1) Core.Types.Hs_nop1 in
      { sd with s_hs_mut_hs = nth_set l (hi - 1) Core.Types.Hs_get_work }
    | _ -> { sd with s_lock = Some hi }
  in
  Cimp.System.map_data s (Core.Config.pid_sys cfg) (map_sys set)

(* For every sampled state and every ordered pair of mutators, the typed
   comparator has the sign of [compare] on the two key tuples.  The
   sample must make each of the key's nine fields decide some pair, and
   every two fields differ with opposite signs in some pair, so that
   dropping, negating or reordering any field's comparison shows.  On
   reachable states the later fields seldom decide (mutators whose
   spines and data tie mostly tie on every Sys slice), so each pair of
   the first [perturb] states is also checked with later Sys slices set
   against the field that decides it, and a tying pair with every two
   Sys slices set against each other, and each on its own. *)
let typed_order n_muts ~perturb () =
  let cfg, spec, states = order_sample n_muts in
  let sym = spec.Reduce.Symmetry.sym_pids in
  let window = ref 0 and nulled = ref 0 and pairs = ref 0 in
  let decided = Array.make (n_fields + 1) 0 in
  let opposed = Array.make_matrix n_fields n_fields 0 in
  (* checks every ordered pair of [s]; the field deciding each pair of
     distinct mutators, and its sign ([n_fields] and 0 for a tie) *)
  let check_pairs s =
    let canon = canon_payloads spec s in
    List.concat_map
      (fun p ->
        List.filter_map
          (fun q ->
            incr pairs;
            let k = key_tuple cfg s ~canon p and k' = key_tuple cfg s ~canon q in
            let want = compare (compare k k') 0 in
            let got = compare (spec.Reduce.Symmetry.compare_pids s ~canon p q) 0 in
            if want <> got then
              Alcotest.failf "mutators %d and %d: typed order %d, key tuples %d" p q got want;
            let signs =
              Array.map2 (fun a b -> compare (compare a b) 0) (key_fields k) (key_fields k')
            in
            let first = ref n_fields in
            for i = n_fields - 1 downto 0 do
              if signs.(i) <> 0 then first := i
            done;
            if (if !first = n_fields then 0 else signs.(!first)) <> want then
              Alcotest.fail "key_fields is not the tuple's order";
            decided.(!first) <- decided.(!first) + 1;
            for i = 0 to n_fields - 1 do
              for j = i + 1 to n_fields - 1 do
                if signs.(i) * signs.(j) < 0 then opposed.(i).(j) <- opposed.(i).(j) + 1
              done
            done;
            if p = q then None else Some (p, q, !first, want))
          sym)
      sym
  in
  List.iteri
    (fun n s ->
      if not (spec.Reduce.Symmetry.permute_ok s) then incr window;
      if any_nulled s (canon_payloads spec s) then incr nulled;
      let decisions = check_pairs s in
      if n < perturb then
        List.iter
          (fun (p, q, first, sign) ->
            if first < n_fields then
              for j = max 2 (first + 1) to n_fields - 1 do
                (* field [j] against the deciding one *)
                let s' =
                  if sign < 0 then set_slice cfg s j ~lo:q ~hi:p else set_slice cfg s j ~lo:p ~hi:q
                in
                ignore (check_pairs s')
              done
            else
              for i = 2 to n_fields - 1 do
                let s' = set_slice cfg s i ~lo:p ~hi:q in
                ignore (check_pairs s');
                for j = i + 1 to n_fields - 1 do
                  ignore (check_pairs (set_slice cfg s' j ~lo:q ~hi:p))
                done
              done)
          decisions)
    states;
  Alcotest.(check bool)
    (Fmt.str "sampled signal-window states (%d) and nulled states (%d)" !window !nulled)
    true
    (!window > 0 && !nulled > 0);
  Alcotest.(check bool)
    (Fmt.str "each field decides some of the %d pairs, and some tie (%a)" !pairs
       Fmt.(brackets (array ~sep:semi int))
       decided)
    true
    (Array.for_all (fun n -> n > 0) decided);
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j n ->
          if j > i && n = 0 then
            Alcotest.failf "no pair has fields %d and %d differ with opposite signs" i j)
        row)
    opposed

let test_typed_order_2 () = typed_order 2 ~perturb:400 ()
let test_typed_order_3 () = typed_order 3 ~perturb:150 ()

(* The Sys payload renamed by copying every per-process list: the
   reference for [rename_shared], which hands back a list whose moved
   elements are all physically equal, and a payload all of whose lists
   and lock came back so, as they are. *)
let copied_rename ~perm (sd : Core.State.sys_data) =
  let move permi l =
    let out = Array.of_list l in
    List.iteri (fun j x -> out.(permi j) <- x) l;
    Array.to_list out
  in
  let perm_m m = perm (m + 1) - 1 in
  {
    sd with
    s_bufs = move perm sd.s_bufs;
    s_W = move perm sd.s_W;
    s_ghg = move perm sd.s_ghg;
    s_hs_pending = move perm_m sd.s_hs_pending;
    s_hs_done = move perm_m sd.s_hs_done;
    s_hs_mut_hs = move perm_m sd.s_hs_mut_hs;
    s_lock = Option.map perm sd.s_lock;
  }

(* Mixed in place, a fingerprint is [of_parts] of the lists it stands
   for: the plain one of the system's spines and payloads, the canonical
   one of [listed_canonical], hash and key both; the canonical one
   agrees on both counters too, and [canon_state] leaves a state with
   nothing to null physically unchanged.  Under every non-identity
   mutator permutation, renaming the Sys payload gives [copied_rename]'s
   payload, returned as it is on some states and rebuilt on others. *)
let mixed_in_place n_muts () =
  let cfg, spec, states = order_sample n_muts in
  let id = List.init n_muts Fun.id in
  let perms =
    List.filter_map
      (fun pi -> if pi = id then None else Some (pid_perm spec pi))
      (Reduce.Symmetry.permutations id)
  in
  let moved = ref 0 and kept = ref 0 and rebuilt = ref 0 in
  let same what fp fp' =
    if Check.Fingerprint.hash fp <> Check.Fingerprint.hash fp' then
      Alcotest.failf "%s: hash %d, of_parts %d" what (Check.Fingerprint.hash fp)
        (Check.Fingerprint.hash fp');
    if not (Check.Fingerprint.equal fp fp') then Alcotest.failf "%s: keys differ" what
  in
  List.iter
    (fun s ->
      let n = Cimp.System.n_procs s in
      same "plain" (Check.Fingerprint.of_system s)
        (Check.Fingerprint.of_parts ~control:(Cimp.System.control_fingerprint s)
           ~data:(List.init n (fun p -> Stdlib.Obj.repr (Cimp.System.proc s p).Cimp.Com.data)));
      let fp, permuted, nulled = Reduce.Symmetry.canonical_fingerprint spec s in
      let fp', permuted', nulled' = listed_canonical cfg spec s in
      same "canonical" fp fp';
      Alcotest.(check (pair bool bool)) "permuted, nulled" (permuted', nulled') (permuted, nulled);
      if permuted then incr moved;
      Alcotest.(check bool) "canon_state is the state itself iff nothing is nulled" (not nulled)
        (Reduce.Symmetry.canon_state spec s == s);
      let pid = Core.Config.pid_sys cfg in
      match (Cimp.System.proc s pid).Cimp.Com.data with
      | Core.State.L_sys sd as d ->
        List.iter
          (fun perm ->
            let d' = spec.Reduce.Symmetry.rename_shared ~perm ~pid d in
            if d' <> Core.State.L_sys (copied_rename ~perm sd) then
              Alcotest.fail "rename_shared: Sys payload differs from the copied renaming";
            incr (if d' == d then kept else rebuilt))
          perms
      | _ -> Alcotest.fail "no Sys payload at pid_sys")
    states;
  Alcotest.(check bool) (Fmt.str "the sort moved some states (%d)" !moved) true (!moved > 0);
  Alcotest.(check bool)
    (Fmt.str "Sys payloads renamed as they are (%d) and rebuilt (%d)" !kept !rebuilt)
    true
    (!kept > 0 && !rebuilt > 0)

let test_mixed_in_place_2 () = mixed_in_place 2 ()
let test_mixed_in_place_3 () = mixed_in_place 3 ()

(* -- Slot memos and settling in place --------------------------------------- *)

(* The sample of both tests: [collect]'s states at two mutators, each
   with its successors as [System.steps] builds them, before they are
   settled. *)
let with_successors () =
  let sc = sym_scenario 2 in
  let states = collect ~limit:2_000 ~walks:20 sc in
  (sc.Core.Scenario.cfg, List.map (fun s -> (s, List.map snd (Cimp.System.steps s))) states)

(* [s] settled the reference way: every process run to rest, into a new
   process array. *)
let settled_copy s =
  let rec settle c = match Cimp.Com.definite_tau c with Some c -> settle c | None -> c in
  let n = Cimp.System.n_procs s in
  Cimp.System.make
    (Array.init n (Cimp.System.name s))
    (Array.init n (fun p -> settle (Cimp.System.proc s p)))

let has_definite_step s =
  List.exists
    (fun p -> Option.is_some (Cimp.Com.definite_tau (Cimp.System.proc s p)))
    (List.init (Cimp.System.n_procs s) Fun.id)

(* [normalize] is [settled_copy] under [Fingerprint.equal], and returns
   its argument exactly when no process has a definite step.  The
   sampled states are settled already; most successors are not. *)
let test_normalize_in_place () =
  let _, sample = with_successors () in
  let kept = ref 0 and settled = ref 0 in
  List.iter
    (fun (s, succs) ->
      List.iter
        (fun x ->
          let n = Cimp.System.normalize x in
          if (n == x) = has_definite_step x then
            Alcotest.failf "normalize returned %s though %s process has a definite step"
              (if n == x then "its argument" else "a copy")
              (if n == x then "a" else "no");
          if
            not
              (Check.Fingerprint.equal (Check.Fingerprint.of_system n)
                 (Check.Fingerprint.of_system (settled_copy x)))
          then Alcotest.fail "normalize differs from settling every process into a copy";
          incr (if n == x then kept else settled))
        (s :: succs))
    sample;
  Alcotest.(check bool)
    (Fmt.str "states returned as they are (%d) and settled (%d)" !kept !settled)
    true
    (!kept > 0 && !settled > 0)

(* Every slot memo holds its configuration's fresh hash, and [of_system]
   is [of_parts] of freshly built lists: first with the memos as they
   come (cold on every configuration a rebuild made), then warm.  The
   sampled states and their successors are checked, and so is the output
   of every path that rebuilds a configuration from a warm one: [map_data]
   (each slot given the next state's payload for it), [canon_state],
   [permute] and [normalize].  A rebuilt configuration that kept its
   source's memo would carry the hash of a payload it no longer holds. *)
let test_slot_memos () =
  let cfg, sample = with_successors () in
  let spec = Core.Reduction.spec cfg in
  let swap = pid_perm spec [ 1; 0 ] in
  let check what s =
    let n = Cimp.System.n_procs s in
    for _ = 1 to 2 do
      let fp = Check.Fingerprint.of_system s in
      let fp' =
        Check.Fingerprint.of_parts ~control:(Cimp.System.control_fingerprint s)
          ~data:(List.init n (fun p -> Stdlib.Obj.repr (Cimp.System.proc s p).Cimp.Com.data))
      in
      if Check.Fingerprint.hash fp <> Check.Fingerprint.hash fp' then
        Alcotest.failf "%s: of_system %d, of_parts %d" what (Check.Fingerprint.hash fp)
          (Check.Fingerprint.hash fp');
      for p = 0 to n - 1 do
        let c = Cimp.System.proc s p in
        let memo = Check.Fingerprint.slot_hash c
        and fresh = Check.Fingerprint.fresh_slot_hash c.Cimp.Com.stack c.Cimp.Com.data in
        if memo <> fresh then Alcotest.failf "%s: slot %d memo %d, fresh %d" what p memo fresh
      done
    done
  in
  let rebuilt =
    List.map (fun what -> (what, ref 0)) [ "map_data"; "canon_state"; "permute"; "normalize" ]
  in
  let count what s r = if r != s then incr (List.assoc what rebuilt) in
  let rotate = function [] -> [] | x :: rest -> rest @ [ x ] in
  List.iter2
    (fun (s, succs) (next, _) ->
      check "sampled state" s;
      let n = Cimp.System.n_procs s in
      for p = 0 to n - 1 do
        let r = Cimp.System.map_data s p (fun _ -> (Cimp.System.proc next p).Cimp.Com.data) in
        count "map_data" s r;
        check "map_data" r
      done;
      let r = Reduce.Symmetry.canon_state spec s in
      count "canon_state" s r;
      check "canon_state" r;
      let r = Reduce.Symmetry.permute spec swap s in
      count "permute" s r;
      check "permute" r;
      List.iter
        (fun x ->
          check "successor" x;
          let r = Cimp.System.normalize x in
          count "normalize" x r;
          check "normalize" r)
        succs)
    sample (rotate sample);
  List.iter
    (fun (what, k) ->
      Alcotest.(check bool) (Fmt.str "%s rebuilt states (%d)" what !k) true (!k > 0))
    rebuilt

(* -- POR: deferrable transitions commute on reachable states --------------- *)

(* Wherever [ample] defers, the selected fence must commute (execution
   oracle, both orders, normalized) with every other enabled transition —
   the C1 base case, validated concretely rather than assumed. *)
let test_por_commutation () =
  let sc = Core.Scenario.two_mutators in
  let states = collect ~limit:4_000 sc in
  let checked = ref 0 in
  List.iter
    (fun s ->
      let succs = Cimp.System.steps s in
      (* Por.ample finds each owner's transitions in one scan, so it needs
         them grouped by owner in ascending pid: an owner split in two
         would pass for a single-transition owner and could be deferred *)
      ignore
        (List.fold_left
           (fun prev (e, _) ->
             let p = Cimp.System.event_owner e in
             if p < prev then
               Alcotest.failf "System.steps lists owner %d after owner %d: not grouped" p prev;
             p)
           (-1) succs);
      let ample, deferred = Reduce.Por.ample Core.Reduction.por_policy succs in
      if deferred > 0 then begin
        incr checked;
        if ample = [] || List.length ample >= List.length succs then
          Alcotest.fail "deferred > 0 but the ample set is not a strict non-empty subset";
        (* the persistent set is the union of deferrable singletons: every
           member must be policy-deferrable and commute with every other
           enabled transition — other ample members included (pairwise
           independence is part of C1 for a multi-owner set) *)
        List.iter
          (fun (f, _) ->
            Alcotest.(check bool) "policy marks every ample event deferrable" true
              (Core.Reduction.por_policy.Reduce.Por.deferrable f);
            List.iter
              (fun (e, _) ->
                if e <> f then
                  Alcotest.(check bool) "fence commutes with concurrent transition" true
                    (Reduce.Independence.commute_at s f e))
              succs)
          ample
      end)
    states;
  Alcotest.(check bool) "found deferral points in the sample" true (!checked > 10)

let test_disjoint_footprints () =
  (* footprint disjointness on events straight out of the model *)
  let sc = Core.Scenario.two_mutators in
  let s = Cimp.System.normalize (Core.Scenario.model sc).Core.Model.system in
  let events = List.map fst (Cimp.System.steps s) in
  List.iter
    (fun e1 ->
      List.iter
        (fun e2 ->
          let expect =
            not
              (List.exists
                 (fun p -> List.mem p (Cimp.System.event_pids e2))
                 (Cimp.System.event_pids e1))
          in
          Alcotest.(check bool) "disjoint agrees with event_pids" expect
            (Reduce.Independence.disjoint e1 e2))
        events)
    events

(* -- Differential: reduced and unreduced agree on every closing scenario --- *)

let differential_modes = [ Reduce.Mode.Sym; Reduce.Mode.Por; Reduce.Mode.All ]

let differential ?safety_only ?(max_states = 5_000_000) name sc =
  let full = Core.Scenario.explore ~max_states ?safety_only sc in
  Alcotest.(check bool) (name ^ ": full run closes") false full.Check.Explore.truncated;
  let verdict o = Option.map (fun tr -> tr.Check.Trace.broken) o.Check.Explore.violation in
  let ce_length o =
    Option.map (fun tr -> List.length tr.Check.Trace.steps) o.Check.Explore.violation
  in
  List.iter
    (fun m ->
      let red = Core.Scenario.explore ~max_states ?safety_only ~reduce:m sc in
      let tag = name ^ "/" ^ Reduce.Mode.to_string m in
      Alcotest.(check bool) (tag ^ ": closes") false red.Check.Explore.truncated;
      Alcotest.(check bool) (tag ^ ": visits no more states") true
        (red.Check.Explore.states <= full.Check.Explore.states);
      Alcotest.(check (option string)) (tag ^ ": same verdict") (verdict full) (verdict red);
      Alcotest.(check (option int))
        (tag ^ ": same counterexample length")
        (ce_length full) (ce_length red))
    differential_modes

let test_diff_baseline () = differential "baseline" Core.Scenario.baseline
let test_diff_two_cycles () = differential "two-cycles" Core.Scenario.two_cycles
let test_diff_two_mutators () = differential "two-mutators" Core.Scenario.two_mutators
let test_diff_fig1 () = differential "fig1" Core.Scenario.fig1
let test_diff_chain () = differential "chain3" Core.Scenario.chain
let test_diff_deep_buffers () = differential "deep-buffers" Core.Scenario.deep_buffers

let test_diff_witnesses () =
  (* violating instances: the reduced run must find the same broken
     invariant by an equally short counterexample *)
  List.iter
    (fun name -> differential ~safety_only:true name (witness name))
    [ "no-deletion-barrier"; "no-insertion-barrier"; "no-barriers"; "alloc-white" ]

(* -- The cross-check harness ----------------------------------------------- *)

let test_crosscheck_two_mutators () =
  let r = Core.Scenario.crosscheck Core.Scenario.two_mutators in
  Alcotest.(check (list string)) "no mismatches" [] (Reduce.Crosscheck.errors r);
  (* the headline acceptance number: >= 50% of distinct states saved *)
  Alcotest.(check bool) "saves at least half the states" true
    (2 * r.Reduce.Crosscheck.reduced.Reduce.Crosscheck.states
    <= r.Reduce.Crosscheck.full.Reduce.Crosscheck.states)

(* Every leg at jobs 2 under an 8 KiB budget (most states spill): the
   harness must run them all, and the resume leg must have rebuilt a
   frontier from its mid-run snapshot. *)
let every_leg_agrees r =
  Alcotest.(check (list string)) "no mismatches" [] (Reduce.Crosscheck.errors r);
  Alcotest.(check (list string)) "every leg ran"
    [
      "jobs=1 unreduced";
      "jobs=1 reduced";
      "jobs=2 unreduced";
      "jobs=2 reduced";
      "spill jobs=1 budget=8192";
      "spill jobs=4 budget=8192";
      "resume budget=8192";
    ]
    (List.map Reduce.Crosscheck.leg_name r.Reduce.Crosscheck.legs);
  match List.rev r.Reduce.Crosscheck.legs with
  | { Reduce.Crosscheck.kind = Resume { frontier; _ }; _ } :: _ ->
    Alcotest.(check bool) "the resume leg rebuilt frontier states" true (frontier > 0)
  | _ -> Alcotest.fail "no resume leg"

let test_crosscheck_clean () =
  let sc = Core.Scenario.make ~label:"crosscheck" ~n_refs:2 ~shape:"single" ~max_mut_ops:1 () in
  let r = Core.Scenario.crosscheck ~jobs:2 ~mem_budget:8192 sc in
  every_leg_agrees r;
  Alcotest.(check bool) "clean" true (r.Reduce.Crosscheck.full.Reduce.Crosscheck.violation = None)

let test_crosscheck_violation () =
  let r =
    Core.Scenario.crosscheck ~safety_only:true ~jobs:2 ~mem_budget:8192
      (witness "no-deletion-barrier")
  in
  every_leg_agrees r;
  Alcotest.(check bool) "found the violation" true
    (r.Reduce.Crosscheck.full.Reduce.Crosscheck.violation <> None);
  Alcotest.(check bool) "kept the reduced counterexample" true
    (r.Reduce.Crosscheck.counterexample <> None)

let test_crosscheck_flags_mismatches () =
  (* the harness itself: fabricated disagreements must be reported *)
  let open Reduce.Crosscheck in
  let full =
    { violation = Some ("inv", 7); states = 100; transitions = 300; depth = 12; truncated = false }
  in
  let ok =
    {
      reduce = "all";
      full;
      reduced = { full with states = 40; transitions = 100 };
      legs = [];
      aborted = [];
      counterexample = None;
    }
  in
  Alcotest.(check (list string)) "clean result passes" [] (errors ok);
  let count r = List.length (errors r) in
  let reduced s = { ok with reduced = s } in
  Alcotest.(check bool) "verdict mismatch flagged" true
    (count (reduced { ok.reduced with violation = None }) > 0);
  Alcotest.(check bool) "different invariant flagged" true
    (count (reduced { ok.reduced with violation = Some ("other", 7) }) > 0);
  Alcotest.(check bool) "state blow-up flagged" true
    (count (reduced { ok.reduced with states = 101 }) > 0);
  Alcotest.(check bool) "longer counterexample flagged" true
    (count (reduced { ok.reduced with violation = Some ("inv", 9) }) > 0);
  Alcotest.(check bool) "shorter counterexample never tolerated" true
    (count (reduced { ok.reduced with violation = Some ("inv", 5) }) > 0);
  Alcotest.(check bool) "vacuous (truncated full) run flagged" true
    (count { ok with full = { full with truncated = true } } > 0);
  Alcotest.(check bool) "truncated reduced run flagged" true
    (count (reduced { ok.reduced with truncated = true }) > 0);
  (* legs, against a clean, closed reference pair *)
  let clean =
    { ok with full = { full with violation = None }; reduced = { ok.reduced with violation = None } }
  in
  let leg kind jobs signature = { kind; jobs; signature } in
  let with_legs legs = { clean with legs } in
  let engine reduced = Engine { reduced } in
  Alcotest.(check (list string)) "agreeing legs pass" []
    (errors
       (with_legs
          [
            leg (engine false) 1 clean.full;
            leg (engine true) 1 clean.reduced;
            leg (engine false) 2 clean.full;
            leg (Spill { budget = 8192 }) 4 clean.full;
            leg (Resume { budget = 8192; snapshot = 1; frontier = 5 }) 1 clean.full;
          ]));
  Alcotest.(check (list string)) "reduced counts at 2 workers are not compared" []
    (errors
       (with_legs
          [
            leg (engine true) 2 { clean.reduced with states = 41; transitions = 99; depth = 13 };
          ]));
  List.iter
    (fun (kind, jobs) ->
      let l = leg kind jobs { clean.full with depth = 13 } in
      Alcotest.(check bool) (leg_name l ^ ": a wrong depth flagged") true
        (count (with_legs [ l ]) > 0))
    [
      (engine false, 2);
      (Spill { budget = 8192 }, 4);
      (Resume { budget = 8192; snapshot = 1; frontier = 5 }, 1);
    ];
  let mismatched = errors (with_legs [ leg (engine false) 2 { clean.full with states = 99 } ]) in
  Alcotest.(check bool)
    (Fmt.str "a mismatching engine leg is reported by name (%a)" Fmt.(Dump.list string) mismatched)
    true
    (List.exists (String.starts_with ~prefix:"jobs=2 unreduced:") mismatched);
  Alcotest.(check bool) "reduced counts at 1 worker are compared" true
    (count (with_legs [ leg (engine true) 1 { clean.reduced with transitions = 101 } ]) > 0);
  Alcotest.(check bool) "a leg's verdict is compared at any jobs" true
    (count (with_legs [ leg (engine true) 2 { clean.reduced with violation = Some ("inv", 3) } ])
    > 0);
  Alcotest.(check bool) "a resume leg with an empty frontier flagged" true
    (count (with_legs [ leg (Resume { budget = 8192; snapshot = 1; frontier = 0 }) 1 clean.full ])
    > 0);
  Alcotest.(check (list string)) "an aborted leg is reported" [ "resume: no snapshot" ]
    (errors { clean with aborted = [ "resume: no snapshot" ] })

let test_reducer_counters () =
  (* the observability counters move when the reducers do *)
  let sc =
    Core.Scenario.make ~label:"tiny2" ~n_muts:2 ~n_refs:2 ~shape:"single"
      ~tweak:(fun c ->
        { c with Core.Config.mut_load = false; mut_store = false; mut_alloc = false; mut_discard = false })
      ()
  in
  let reducer = Option.get (Core.Reduction.reducer sc.Core.Scenario.cfg Reduce.Mode.All) in
  let o =
    Check.Explore.run ~max_states:1_000_000 ~reducer
      ~invariants:(Core.Scenario.invariants sc)
      (Core.Scenario.model sc).Core.Model.system
  in
  Alcotest.(check bool) "clean" true (o.Check.Explore.violation = None);
  Alcotest.(check bool) "closed" false o.Check.Explore.truncated;
  Alcotest.(check bool) "permutations happened" true
    (Atomic.get reducer.Check.Reducer.sym_permuted > 0);
  Alcotest.(check bool) "registers were nulled" true
    (Atomic.get reducer.Check.Reducer.reg_nulled > 0);
  Alcotest.(check bool) "transitions were deferred" true
    (Atomic.get reducer.Check.Reducer.deferred > 0)

let test_sequential_parallel_agree () =
  (* same reducer semantics on both paths: verdicts and closure agree
     (exact state counts may differ — orbit representatives are chosen
     by arrival order, and canonicalization pauses in the handshake
     signal window) *)
  let sc = Core.Scenario.two_mutators in
  let seq = Core.Scenario.explore ~reduce:Reduce.Mode.All sc in
  let par = Core.Scenario.explore ~jobs:2 ~reduce:Reduce.Mode.All sc in
  Alcotest.(check bool) "seq closes" false seq.Check.Explore.truncated;
  Alcotest.(check bool) "par closes" false par.Check.Explore.truncated;
  Alcotest.(check bool) "same verdict" true
    (Option.map (fun tr -> tr.Check.Trace.broken) seq.Check.Explore.violation
    = Option.map (fun tr -> tr.Check.Trace.broken) par.Check.Explore.violation)

(* -- The headline reach extension ------------------------------------------ *)

(* README.md's `--reduce` table repeats what `gcmodel explore --muts 2
   --refs 2 --ops 1 --reduce M` prints at one worker.  Its sub-second
   rows, `sym` and `all`, are rerun here: each must read the run's state
   count, and its saving against the table's own `none` row. *)
let test_readme_shrink_table () =
  let readme = String.split_on_char '\n' (Test_mutate.read_repo_file "README.md") in
  let row mode =
    match
      List.find_map
        (fun line ->
          match List.map String.trim (String.split_on_char '|' line) with
          | [ ""; m; states; saved; "" ] when m = mode -> Some (states, saved)
          | _ -> None)
        readme
    with
    | Some r -> r
    | None -> Alcotest.failf "README.md has no --reduce row for %s" mode
  in
  let count cell = int_of_string (String.concat "" (String.split_on_char ' ' cell)) in
  let none = count (fst (row "none")) in
  List.iter
    (fun mode ->
      let code, out, _ =
        Test_core.run_tool_output
          [ "explore"; "--muts"; "2"; "--refs"; "2"; "--ops"; "1"; "--reduce"; mode ]
      in
      let states =
        List.find_map (fun line -> Scanf.sscanf_opt line "states=%d " Fun.id) out
        |> Option.value ~default:(-1)
      in
      Alcotest.(check int) (mode ^ ": explore exits 0") 0 code;
      let states_cell, saved_cell = row mode in
      Alcotest.(check (pair int string))
        (mode ^ ": README row is the run's count and saving")
        (states, Printf.sprintf "%.1f%%" (100. *. (1. -. (float states /. float none))))
        (count states_cell, saved_cell))
    [ "sym"; "all" ]

let test_three_mutators_closes () =
  (* beyond the seed checker at the default cap (measured: >10M states,
     truncated); closes reduced in ~1.2M *)
  let o = Core.Scenario.explore ~max_states:2_000_000 ~reduce:Reduce.Mode.All
      Core.Scenario.three_mutators
  in
  Alcotest.(check bool) "closes" false o.Check.Explore.truncated;
  Alcotest.(check bool) "clean" true (o.Check.Explore.violation = None)

let suite =
  [
    Alcotest.test_case "mode: parse/print roundtrip" `Quick test_mode_roundtrip;
    Alcotest.test_case "permutations: 3! distinct" `Quick test_permutations;
    Alcotest.test_case "permutations: repeated elements kept" `Quick test_permutations_repeats;
    Alcotest.test_case "sym: canonical fp invariant (2 mutators)" `Quick test_sym_invariance_2;
    Alcotest.test_case "sym: canonical fp invariant (3 mutators)" `Quick test_sym_invariance_3;
    Alcotest.test_case "sym: mutator permutation is an automorphism (2 mutators)" `Quick
      test_sym_automorphism_2;
    Alcotest.test_case "sym: mutator permutation is an automorphism (3 mutators)" `Quick
      test_sym_automorphism_3;
    Alcotest.test_case "sym: typed order is the key tuples' compare (2 mutators)" `Quick
      test_typed_order_2;
    Alcotest.test_case "sym: typed order is the key tuples' compare (3 mutators)" `Quick
      test_typed_order_3;
    Alcotest.test_case "fingerprint: mixed in place = of_parts (2 mutators)" `Quick
      test_mixed_in_place_2;
    Alcotest.test_case "fingerprint: mixed in place = of_parts (3 mutators)" `Quick
      test_mixed_in_place_3;
    Alcotest.test_case "fingerprint: slot memos hold fresh hashes" `Quick test_slot_memos;
    Alcotest.test_case "normalize: settles in place" `Quick test_normalize_in_place;
    Alcotest.test_case "por: deferred fences commute (oracle)" `Quick test_por_commutation;
    Alcotest.test_case "por: disjointness matches footprints" `Quick test_disjoint_footprints;
    Alcotest.test_case "differential: baseline" `Slow test_diff_baseline;
    Alcotest.test_case "differential: two cycles" `Slow test_diff_two_cycles;
    Alcotest.test_case "differential: two mutators" `Slow test_diff_two_mutators;
    Alcotest.test_case "differential: fig1" `Slow test_diff_fig1;
    Alcotest.test_case "differential: chain" `Quick test_diff_chain;
    Alcotest.test_case "differential: deep buffers" `Slow test_diff_deep_buffers;
    Alcotest.test_case "differential: ablation witnesses" `Quick test_diff_witnesses;
    Alcotest.test_case "crosscheck: two mutators, >= 50% saved" `Slow test_crosscheck_two_mutators;
    Alcotest.test_case "crosscheck: every leg agrees on a clean instance" `Quick
      test_crosscheck_clean;
    Alcotest.test_case "crosscheck: violating instance" `Slow test_crosscheck_violation;
    Alcotest.test_case "crosscheck: harness flags mismatches" `Quick test_crosscheck_flags_mismatches;
    Alcotest.test_case "reducer: counters move" `Quick test_reducer_counters;
    Alcotest.test_case "reducer: sequential and parallel agree" `Slow test_sequential_parallel_agree;
    Alcotest.test_case "reach: three mutators close under reduction" `Slow test_three_mutators_closes;
    Alcotest.test_case "README: the --reduce table's sym and all rows" `Quick
      test_readme_shrink_table;
  ]

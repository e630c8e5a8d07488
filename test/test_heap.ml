(* Tests for the heap substrate: objects, the bounded heap, reachability
   (including white-chain reachability for grey protection), and the
   initial shapes. *)

module H = Gcheap.Heap
module O = Gcheap.Obj
module R = Gcheap.Reach
module S = Gcheap.Shapes

let mk ?(n_refs = 4) ?(n_fields = 2) () = H.make ~n_refs ~n_fields

let test_obj_fields () =
  let o = O.make ~mark:false ~n_fields:3 in
  Alcotest.(check int) "arity" 3 (O.n_fields o);
  Alcotest.(check (list int)) "children empty" [] (O.children o);
  let o = O.set_field o 1 (Some 7) in
  Alcotest.(check (option int)) "field set" (Some 7) (O.field o 1);
  Alcotest.(check (option int)) "others untouched" None (O.field o 0);
  Alcotest.(check (list int)) "children" [ 7 ] (O.children o);
  let o = O.set_field o 1 None in
  Alcotest.(check (option int)) "field cleared" None (O.field o 1)

let test_obj_mark () =
  let o = O.make ~mark:false ~n_fields:1 in
  Alcotest.(check bool) "initial" false o.O.mark;
  Alcotest.(check bool) "set" true (O.set_mark o true).O.mark

let test_heap_alloc_free () =
  let h = mk () in
  Alcotest.(check (list int)) "all free" [ 0; 1; 2; 3 ] (H.free_refs h);
  let h = H.alloc h 2 ~mark:true in
  Alcotest.(check bool) "valid" true (H.valid_ref h 2);
  Alcotest.(check bool) "others invalid" false (H.valid_ref h 1);
  Alcotest.(check (list int)) "domain" [ 2 ] (H.domain h);
  Alcotest.(check (option bool)) "mark installed" (Some true) (H.mark h 2);
  let h = H.free h 2 in
  Alcotest.(check bool) "freed" false (H.valid_ref h 2)

let test_heap_bounds () =
  let h = mk () in
  Alcotest.(check bool) "negative ref invalid" false (H.valid_ref h (-1));
  Alcotest.(check bool) "overflow ref invalid" false (H.valid_ref h 99);
  Alcotest.(check (option int)) "field of free cell" None (H.field h 0 0)

let test_heap_field_update () =
  let h = H.alloc (H.alloc (mk ()) 0 ~mark:false) 1 ~mark:false in
  let h = H.set_field h 0 1 (Some 1) in
  Alcotest.(check (option int)) "field" (Some 1) (H.field h 0 1);
  (* writing to a free cell is a no-op at this level *)
  let h' = H.set_field h 3 0 (Some 0) in
  Alcotest.(check (option int)) "free cell unchanged" None (H.field h' 3 0)

let test_marked_with () =
  let h = H.alloc (H.alloc (mk ()) 0 ~mark:true) 1 ~mark:false in
  Alcotest.(check (list int)) "marked true" [ 0 ] (H.marked_with h true);
  Alcotest.(check (list int)) "marked false" [ 1 ] (H.marked_with h false)

(* chain 0 -> 1 -> 2, object 3 detached *)
let chain_heap () =
  let h = List.fold_left (fun h r -> H.alloc h r ~mark:false) (mk ()) [ 0; 1; 2; 3 ] in
  let h = H.set_field h 0 0 (Some 1) in
  H.set_field h 1 0 (Some 2)

let test_reachable_chain () =
  let h = chain_heap () in
  Alcotest.(check (list int)) "from 0" [ 0; 1; 2 ] (R.reachable_set h [ 0 ]);
  Alcotest.(check (list int)) "from 1" [ 1; 2 ] (R.reachable_set h [ 1 ]);
  Alcotest.(check bool) "3 unreachable" false (R.reachable h [ 0 ] 3);
  Alcotest.(check bool) "reaches" true (R.reaches h ~src:0 ~dst:2)

let test_reachable_cycle () =
  let h = chain_heap () in
  let h = H.set_field h 2 0 (Some 0) in
  Alcotest.(check (list int)) "cycle closed" [ 0; 1; 2 ] (R.reachable_set h [ 2 ])

let test_reachable_includes_dangling_roots () =
  (* a root with no object is still "reachable" — that is precisely what
     valid_refs_inv forbids *)
  let h = mk () in
  Alcotest.(check (list int)) "dangling root present" [ 3 ] (R.reachable_set h [ 3 ])

let test_white_reachability () =
  (* grey G=0 -> white 1 -> white 2; black 3 -> 2 *)
  let h = chain_heap () in
  let h = H.set_mark h 0 true in
  let h = H.alloc (H.free h 3) 3 ~mark:true in
  let h = H.set_field h 3 0 (Some 2) in
  let white r = H.mark h r = Some false in
  let prot = R.white_reachable_set h ~white [ 0 ] in
  Alcotest.(check bool) "1 grey-protected" true (List.mem 1 prot);
  Alcotest.(check bool) "2 grey-protected through the chain" true (List.mem 2 prot);
  (* cut the chain at 1 -> 2: 2 is no longer protected *)
  let h' = H.set_field h 1 0 None in
  let prot' = R.white_reachable_set h' ~white [ 0 ] in
  Alcotest.(check bool) "2 unprotected after the cut" false (List.mem 2 prot')

let test_white_chain_stops_at_nonwhite () =
  (* grey 0 -> black 1 -> white 2: the chain through a non-white node does
     not protect 2 *)
  let h = chain_heap () in
  let h = H.set_mark h 1 true in
  let white r = H.mark h r = Some false in
  let prot = R.white_reachable_set h ~white [ 0 ] in
  Alcotest.(check bool) "1 visited (endpoint)" true (List.mem 1 prot);
  Alcotest.(check bool) "2 not white-reachable" false (List.mem 2 prot)

let test_source_reached_as_endpoint_first () =
  (* regression: grey 0 -> grey 1 -> white 2.  Node 1 is reached first as a
     non-white chain endpoint of 0; being a source itself, it must still
     expand and protect 2. *)
  let h = chain_heap () in
  let h = H.set_mark (H.set_mark h 0 true) 1 true in
  let white r = H.mark h r = Some false in
  let prot = R.white_reachable_set h ~white [ 0; 1 ] in
  Alcotest.(check bool) "2 protected by grey source 1" true (List.mem 2 prot)

let test_zero_length_chain () =
  (* a grey object is its own protection: the chain of length 0 *)
  let h = H.alloc (mk ()) 0 ~mark:false in
  let white r = H.mark h r = Some false in
  Alcotest.(check bool) "self-protection" true
    (List.mem 0 (R.white_reachable_set h ~white [ 0 ]))

let test_shapes () =
  let shapes = S.all ~n_refs:4 ~n_fields:1 in
  Alcotest.(check int) "six shapes" 6 (List.length shapes);
  let fig1 = Option.get (S.by_name ~n_refs:4 ~n_fields:1 "fig1") in
  let h = fig1.S.heap in
  Alcotest.(check (option int)) "B -> W" (Some 3) (H.field h 0 0);
  Alcotest.(check (option int)) "G -> o" (Some 2) (H.field h 1 0);
  Alcotest.(check (option int)) "o -> W" (Some 3) (H.field h 2 0);
  Alcotest.(check (list int)) "roots" [ 0; 1 ] (S.roots_for fig1 0)

let test_shape_roots_cycle () =
  let shared = Option.get (S.by_name ~n_refs:4 ~n_fields:1 "shared") in
  Alcotest.(check (list int)) "mut0" [ 0 ] (S.roots_for shared 0);
  Alcotest.(check (list int)) "mut1" [ 1 ] (S.roots_for shared 1);
  Alcotest.(check (list int)) "mut2 wraps" [ 0 ] (S.roots_for shared 2)

let test_chain_shape_bounds () =
  let c = S.chain ~n_refs:2 ~n_fields:1 5 in
  Alcotest.(check (list int)) "clamped to heap size" [ 0; 1 ] (H.domain c.S.heap)

(* -- Reference masks ----------------------------------------------------------

   The mask kernel the invariant layer runs on: each mask must agree with
   the list cases above, bit for bit. *)

let mask = H.mask_of_refs

let test_masks_chain () =
  let h = chain_heap () in
  Alcotest.(check int) "valid" 0b1111 (H.valid_mask h);
  Alcotest.(check int) "children of 0 and 1" 0b0110 (H.children_mask h 0b0011);
  Alcotest.(check int) "from 0" (mask h [ 0; 1; 2 ]) (R.reach h (mask h [ 0 ]));
  Alcotest.(check int) "from 1" (mask h [ 1; 2 ]) (R.reach h (mask h [ 1 ]));
  Alcotest.(check (list int)) "view" [ 0; 1; 2 ] (H.refs_of_mask (R.reach h 0b0001))

let test_masks_cycle () =
  let h = H.set_field (chain_heap ()) 2 0 (Some 0) in
  Alcotest.(check int) "cycle closed" 0b0111 (R.reach h (mask h [ 2 ]))

let test_masks_dangling_root () =
  let h = mk () in
  Alcotest.(check int) "nothing valid" 0 (H.valid_mask h);
  Alcotest.(check int) "dangling root present" 0b1000 (R.reach h (mask h [ 3 ]));
  Alcotest.(check int) "free cells have no children" 0 (H.children_mask h 0b1111)

let test_masks_marks () =
  let h = H.alloc (H.alloc (mk ()) 0 ~mark:true) 1 ~mark:false in
  Alcotest.(check int) "marked true" 0b01 (H.marked_mask h true);
  Alcotest.(check int) "marked false" 0b10 (H.marked_mask h false);
  Alcotest.(check (list int)) "free refs" [ 2; 3 ] (H.free_refs h)

let white_mask h = H.marked_mask h false

let test_masks_white_chains () =
  (* grey 0 -> white 1 -> white 2; black 3 -> 2 (as the list case) *)
  let h = chain_heap () in
  let h = H.set_mark h 0 true in
  let h = H.alloc (H.free h 3) 3 ~mark:true in
  let h = H.set_field h 3 0 (Some 2) in
  Alcotest.(check int) "0, 1 and 2" 0b0111 (R.white_reach h ~white:(white_mask h) 0b0001);
  let h' = H.set_field h 1 0 None in
  Alcotest.(check int) "2 unprotected after the cut" 0b0011
    (R.white_reach h' ~white:(white_mask h') 0b0001)

let test_masks_nonwhite_source () =
  (* grey 0 -> black 1 -> white 2: 1 is an endpoint, not a way through ... *)
  let h = H.set_mark (chain_heap ()) 1 true in
  Alcotest.(check int) "stops at 1" 0b0011 (R.white_reach h ~white:(white_mask h) 0b0001);
  (* ... unless it is a source itself *)
  let h = H.set_mark (H.set_mark (chain_heap ()) 0 true) 1 true in
  Alcotest.(check int) "source 1 expands" 0b0111 (R.white_reach h ~white:(white_mask h) 0b0011)

let test_masks_cap () =
  Alcotest.(check int) "62 refs" 62 H.max_refs;
  let h = H.alloc (H.make ~n_refs:62 ~n_fields:1) 61 ~mark:false in
  let h = H.alloc h 0 ~mark:false in
  let h = H.set_field h 0 0 (Some 61) in
  Alcotest.(check int) "bit 61 valid" ((1 lsl 61) lor 1) (H.valid_mask h);
  Alcotest.(check int) "bit 61 reached" ((1 lsl 61) lor 1) (R.reach h 1);
  Alcotest.(check bool) "masks stay non-negative" true (H.universe h > 0);
  Alcotest.(check (list int)) "view" [ 0; 61 ] (R.reachable_set h [ 0 ]);
  Alcotest.check_raises "63 refs"
    (Invalid_argument "Heap.make: 63 references exceed the 62-reference universe") (fun () ->
      ignore (H.make ~n_refs:63 ~n_fields:1))

let test_masks_drop_outside () =
  let h = mk () in
  Alcotest.(check int) "negative and out-of-universe roots dropped" 0b0101
    (mask h [ -1; 0; 2; 4; 61; 62; 99; max_int; min_int ]);
  Alcotest.(check int) "no bit for them" 0 (H.bit (-1) lor H.bit 62 lor H.bit max_int);
  (* a field pointing outside the universe contributes no child *)
  let h = H.alloc h 0 ~mark:false in
  let h = H.set_field (H.set_field h 0 0 (Some 7)) 0 1 (Some (-3)) in
  Alcotest.(check int) "no children" 0 (H.children_mask h 0b0001);
  Alcotest.(check int) "reach stays in the universe" 0b0001 (R.reach h 0b0001)

(* qcheck: reachability is monotone in the root set, and closed. *)
let arbitrary_heap =
  QCheck.make
    ~print:(fun h -> Fmt.str "%a" H.pp h)
    QCheck.Gen.(
      let* edges = list_size (int_bound 12) (pair (int_bound 5) (int_bound 5)) in
      let h = List.fold_left (fun h r -> H.alloc h r ~mark:false) (H.make ~n_refs:6 ~n_fields:6) [ 0; 1; 2; 3; 4; 5 ] in
      return (List.fold_left (fun h (a, b) -> H.set_field h a b (Some b)) h edges))

let prop_reach_monotone =
  QCheck.Test.make ~name:"reachability is monotone in roots" ~count:200
    (QCheck.pair arbitrary_heap (QCheck.list_of_size (QCheck.Gen.int_bound 4) QCheck.(int_bound 5)))
    (fun (h, roots) ->
      let small = R.reachable_set h roots in
      let big = R.reachable_set h (0 :: roots) in
      List.for_all (fun r -> List.mem r big) small)

let prop_reach_closed =
  QCheck.Test.make ~name:"reachable set is transitively closed" ~count:200 arbitrary_heap
    (fun h ->
      let reach = R.reachable_set h [ 0 ] in
      List.for_all
        (fun r ->
          match H.get h r with
          | None -> true
          | Some o -> List.for_all (fun c -> List.mem c reach) (O.children o))
        reach)

let prop_reach_agrees_with_dfs =
  QCheck.Test.make ~name:"mask reachability agrees with a depth-first search" ~count:200
    (QCheck.pair arbitrary_heap (QCheck.list_of_size (QCheck.Gen.int_bound 4) QCheck.(int_bound 7)))
    (fun (h, roots) ->
      let rec dfs seen r =
        if r < 0 || r >= H.n_refs h || List.mem r seen then seen
        else
          match H.get h r with
          | None -> r :: seen
          | Some o -> List.fold_left dfs (r :: seen) (O.children o)
      in
      List.sort compare (List.fold_left dfs [] roots) = R.reachable_set h roots)

let prop_white_reach_subset =
  QCheck.Test.make ~name:"white-reachable is a subset of reachable" ~count:200 arbitrary_heap
    (fun h ->
      let white _ = true in
      let wr = R.white_reachable_set h ~white [ 0 ] in
      let r = R.reachable_set h [ 0 ] in
      List.for_all (fun x -> List.mem x r) wr)

let suite =
  [
    Alcotest.test_case "object fields" `Quick test_obj_fields;
    Alcotest.test_case "object mark" `Quick test_obj_mark;
    Alcotest.test_case "alloc and free" `Quick test_heap_alloc_free;
    Alcotest.test_case "out-of-range references" `Quick test_heap_bounds;
    Alcotest.test_case "field updates" `Quick test_heap_field_update;
    Alcotest.test_case "marked_with partitions the domain" `Quick test_marked_with;
    Alcotest.test_case "reachability along a chain" `Quick test_reachable_chain;
    Alcotest.test_case "reachability through a cycle" `Quick test_reachable_cycle;
    Alcotest.test_case "dangling roots are reachable" `Quick test_reachable_includes_dangling_roots;
    Alcotest.test_case "grey protection via white chains" `Quick test_white_reachability;
    Alcotest.test_case "white chains stop at non-white nodes" `Quick test_white_chain_stops_at_nonwhite;
    Alcotest.test_case "sources reached as endpoints still expand" `Quick test_source_reached_as_endpoint_first;
    Alcotest.test_case "zero-length chains protect" `Quick test_zero_length_chain;
    Alcotest.test_case "shape catalogue" `Quick test_shapes;
    Alcotest.test_case "per-mutator shape roots" `Quick test_shape_roots_cycle;
    Alcotest.test_case "shape size clamping" `Quick test_chain_shape_bounds;
    Alcotest.test_case "masks: chain" `Quick test_masks_chain;
    Alcotest.test_case "masks: cycle" `Quick test_masks_cycle;
    Alcotest.test_case "masks: dangling root" `Quick test_masks_dangling_root;
    Alcotest.test_case "masks: marks and free refs" `Quick test_masks_marks;
    Alcotest.test_case "masks: white chains" `Quick test_masks_white_chains;
    Alcotest.test_case "masks: non-white source" `Quick test_masks_nonwhite_source;
    Alcotest.test_case "masks: the 62-ref cap" `Quick test_masks_cap;
    Alcotest.test_case "masks: out-of-universe refs dropped" `Quick test_masks_drop_outside;
    QCheck_alcotest.to_alcotest prop_reach_monotone;
    QCheck_alcotest.to_alcotest prop_reach_closed;
    QCheck_alcotest.to_alcotest prop_reach_agrees_with_dfs;
    QCheck_alcotest.to_alcotest prop_white_reach_subset;
  ]

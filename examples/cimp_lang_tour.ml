(* A tour of the CIMP surface language (the paper's Section 3 vehicle):
   write a small process system as text, typecheck it, compile it onto the
   core semantics, and model-check its assertions.

     dune exec examples/cimp_lang_tour.exe *)

let source =
  {|
# Peterson's mutual-exclusion protocol, CIMP style: the "memory" process
# serialises accesses, the two workers race through the protocol, and a
# checker process owns the critical-section token.

process alice {
  send set_flag0(1) -> ok;
  send set_turn(1) -> ok;
  var f := 1;
  var t := 1;
  while f == 1 && t == 1 {
    send get_flag1(0) -> f;
    send get_turn(0) -> t;
  }
  send enter(0) -> ok;
  send leave(0) -> ok;
  send set_flag0(0) -> ok;
}

process bob {
  send set_flag1(1) -> ok;
  send set_turn(0) -> ok;
  var f := 1;
  var t := 0;
  while f == 1 && t == 0 {
    send get_flag0(0) -> f;
    send get_turn(0) -> t;
  }
  send enter(1) -> ok;
  send leave(1) -> ok;
  send set_flag1(0) -> ok;
}

process memory {
  var flag0 := 0;
  var flag1 := 0;
  var turn := 0;
  var inside := 0;
  loop {
    choose {
      recv set_flag0(v) reply v;
      flag0 := v;
    } or {
      recv set_flag1(v) reply v;
      flag1 := v;
    } or {
      recv set_turn(v) reply v;
      turn := v;
    } or {
      recv get_flag0(x) reply flag0;
    } or {
      recv get_flag1(x) reply flag1;
    } or {
      recv get_turn(x) reply turn;
    } or {
      recv enter(who) reply who;
      assert inside == 0;
      inside := inside + 1;
    } or {
      recv leave(who) reply who;
      inside := inside - 1;
    }
  }
}
|}

let () =
  let prog = Cimp_lang.Parser.program source in
  Fmt.pr "parsed %d processes; pretty-printed:@.@.%a@.@." (List.length prog)
    Cimp_lang.Ast.pp_program prog;
  let chans = Cimp_lang.Typecheck.program prog in
  Fmt.pr "typechecked: %d channels (%s)@.@." (List.length chans)
    (String.concat ", " (List.map fst chans));
  let sys = Cimp_lang.Compile.system prog in
  let o =
    Check.Par_explore.run ~max_states:2_000_000
      ~invariants:[ ("mutual-exclusion", Cimp_lang.Compile.assertions_hold) ]
      sys
  in
  Fmt.pr "model checking Peterson: %a@." Check.Explore.pp_outcome o;
  match o.Check.Explore.violation with
  | None -> Fmt.pr "mutual exclusion holds over the whole state space.@."
  | Some tr -> Fmt.pr "VIOLATED:@.%a@." Check.Trace.pp tr

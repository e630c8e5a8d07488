(* Tests for the CIMP concrete-language front-end: lexer, parser (with a
   pretty-print round-trip property), typechecker, and compilation onto the
   core semantics. *)

module T = Cimp_lang.Token
module Lx = Cimp_lang.Lexer
module P = Cimp_lang.Parser
module A = Cimp_lang.Ast
module Tc = Cimp_lang.Typecheck
module C = Cimp_lang.Compile

(* -- Lexer ------------------------------------------------------------------ *)

let tokens src = List.map (fun (t : Lx.located) -> t.Lx.token) (Lx.tokenize src)

let test_lex_basics () =
  Alcotest.(check int) "count" 8 (List.length (tokens "var x := 1 + 2;"));
  match tokens "x := y;" with
  | [ T.IDENT "x"; T.ASSIGN; T.IDENT "y"; T.SEMI; T.EOF ] -> ()
  | _ -> Alcotest.fail "unexpected token stream"

let test_lex_keywords_vs_idents () =
  (match tokens "while whiles" with
  | [ T.KW_while; T.IDENT "whiles"; T.EOF ] -> ()
  | _ -> Alcotest.fail "keyword prefix must not swallow identifiers");
  match tokens "truethy" with
  | [ T.IDENT "truethy"; T.EOF ] -> ()
  | _ -> Alcotest.fail "true prefix"

let test_lex_comments () =
  Alcotest.(check int) "hash comment" 1 (List.length (tokens "# a comment\n"));
  Alcotest.(check int) "slash comment" 2 (List.length (tokens "x // trailing\n"))

let test_lex_two_char_ops () =
  match tokens ":= -> .. == != <= >= && ||" with
  | [ T.ASSIGN; T.ARROW; T.DOTDOT; T.EQ; T.NEQ; T.LE; T.GE; T.ANDAND; T.OROR; T.EOF ] -> ()
  | _ -> Alcotest.fail "two-char operators"

let test_lex_positions () =
  match Lx.tokenize "x\n  y" with
  | [ _; { Lx.pos = { line = 2; col = 3 }; _ }; _ ] -> ()
  | _ -> Alcotest.fail "line/col tracking"

let test_lex_error () =
  Alcotest.check_raises "bad char"
    (Lx.Error ("unexpected character '?'", { Lx.line = 1; col = 1 }))
    (fun () -> ignore (Lx.tokenize "?"))

(* -- Parser ----------------------------------------------------------------- *)

let expr src = P.expression src

let test_precedence () =
  (match expr "1 + 2 * 3" with
  | A.E_binop (A.Add, A.E_int 1, A.E_binop (A.Mul, A.E_int 2, A.E_int 3)) -> ()
  | e -> Alcotest.fail (Fmt.str "precedence: %a" A.pp_expr e));
  match expr "a + 1 < b && c || d" with
  | A.E_binop (A.Or, A.E_binop (A.And, A.E_binop (A.Lt, _, _), A.E_var "c"), A.E_var "d") -> ()
  | e -> Alcotest.fail (Fmt.str "mixed: %a" A.pp_expr e)

let test_parens_and_unary () =
  (match expr "!(a == b)" with
  | A.E_not (A.E_binop (A.Eq, A.E_var "a", A.E_var "b")) -> ()
  | _ -> Alcotest.fail "not/parens");
  match expr "-x + 1" with
  | A.E_binop (A.Add, A.E_binop (A.Sub, A.E_int 0, A.E_var "x"), A.E_int 1) -> ()
  | _ -> Alcotest.fail "unary minus"

let test_parse_process () =
  let prog = P.program "process p { var x := 0; if x == 0 { x := 1; } else { skip; } }" in
  match prog with
  | [ { A.name = "p"; body = [ A.S_var ("x", _); A.S_if (_, [ A.S_assign ("x", _) ], [ A.S_skip ]) ] } ] ->
    ()
  | _ -> Alcotest.fail "process structure"

let test_parse_choose () =
  match P.program "process p { choose { skip; } or { skip; } or { skip; } }" with
  | [ { A.body = [ A.S_choose [ _; _; _ ] ]; _ } ] -> ()
  | _ -> Alcotest.fail "choose arms"

let test_parse_send_recv () =
  match P.program "process p { send c(1) -> r; recv d(x) reply x + 1; send e(2); }" with
  | [ { A.body = [ A.S_send ("c", _, Some "r"); A.S_recv ("d", "x", _); A.S_send ("e", _, None) ]; _ } ]
    -> ()
  | _ -> Alcotest.fail "communication forms"

let test_parse_error_position () =
  (try
     ignore (P.program "process p { var := 3; }");
     Alcotest.fail "expected parse error"
   with P.Error (_, pos) -> Alcotest.(check int) "error line" 1 pos.Lx.line)

(* Pretty-print then reparse: the ASTs must agree. *)
let roundtrip src =
  let prog = P.program src in
  let printed = Fmt.str "%a" A.pp_program prog in
  let reparsed =
    try P.program printed
    with P.Error (m, p) ->
      Alcotest.fail (Fmt.str "reparse failed at %d:%d (%s) on:@.%s" p.Lx.line p.Lx.col m printed)
  in
  Alcotest.(check bool) "round-trip preserves the AST" true (prog = reparsed)

let test_roundtrip_examples () =
  List.iter (fun (_, src, _) -> roundtrip src) Cimp_lang.Examples.all

(* -- Typechecker ------------------------------------------------------------ *)

let typecheck src = Tc.program (P.program src)

let test_typecheck_ok () =
  let chans = typecheck "process p { var x := 1; send c(x) -> x; } process q { recv c(y) reply y; }" in
  Alcotest.(check int) "one channel" 1 (List.length chans)

let expect_type_error src =
  try
    ignore (typecheck src);
    Alcotest.fail "expected a type error"
  with Tc.Error _ -> ()

let test_typecheck_undeclared () = expect_type_error "process p { x := 1; }"
let test_typecheck_mismatch () = expect_type_error "process p { var x := 1; x := true; }"
let test_typecheck_guard () = expect_type_error "process p { if 1 { skip; } }"
let test_typecheck_redeclare () = expect_type_error "process p { var x := 1; var x := 2; }"

let test_typecheck_channel_consistency () =
  expect_type_error
    "process p { send c(1); } process q { var b := true; send c(b); }"

let test_typecheck_havoc_bool () = expect_type_error "process p { var b := true; havoc b in 0 .. 1; }"

(* -- Compilation and execution ---------------------------------------------- *)

let explore ?(max_states = 100_000) src =
  Check.Explore.run ~max_states
    ~invariants:[ ("assertions", C.assertions_hold) ]
    (C.of_source src)

let test_compile_labels_unique () =
  List.iter
    (fun (name, src, _) ->
      let prog = P.program src in
      List.iter
        (fun p ->
          Alcotest.(check (list string))
            (name ^ ": unique labels in " ^ p.A.name)
            []
            (List.map Cimp.Label.name (Cimp.Com.duplicate_labels (C.compile_process p))))
        prog)
    Cimp_lang.Examples.all

let test_run_examples () =
  List.iter
    (fun (name, src, _) ->
      let o = explore src in
      let expect_violation = name = "assert-fail" in
      Alcotest.(check bool)
        (name ^ " verdict")
        expect_violation
        (o.Check.Explore.violation <> None))
    Cimp_lang.Examples.all

let test_counter_race_outcomes () =
  let _, src, _ = Cimp_lang.Examples.counter_race in
  let sys = C.of_source src in
  let finals = ref [] in
  let record s =
    (if Cimp.System.steps s = [] then
       match List.assoc_opt "v" (Cimp.System.proc s 2).Cimp.Com.data with
       | Some (A.V_int v) when not (List.mem v !finals) -> finals := v :: !finals
       | _ -> ());
    true
  in
  ignore (Check.Explore.run ~max_states:100_000 ~invariants:[ ("rec", record) ] sys);
  Alcotest.(check (list int)) "lost update observable" [ 1; 2 ] (List.sort compare !finals)

let test_havoc_range () =
  let o = explore "process p { var x := 0; havoc x in 1 .. 3; assert x >= 1 && x <= 3; }" in
  Alcotest.(check bool) "in range" true (o.Check.Explore.violation = None);
  let o = explore "process p { var x := 0; havoc x in 1 .. 3; assert x != 2; }" in
  Alcotest.(check bool) "all values explored" true (o.Check.Explore.violation <> None)

let test_empty_havoc_blocks () =
  let o = explore "process p { var x := 0; havoc x in 3 .. 1; assert false; }" in
  (* empty range: the process blocks, the assert is unreachable *)
  Alcotest.(check bool) "assert unreachable" true (o.Check.Explore.violation = None)

let test_runtime_error_on_bad_channel_value () =
  (* well-typed by construction; runtime evaluation errors should not occur
     in the examples — smoke-check eval on a closed expression *)
  Alcotest.(check bool) "eval" true
    (C.eval [] (A.E_binop (A.Eq, A.E_int 2, A.E_int 2)) = A.V_bool true)

let suite =
  [
    Alcotest.test_case "lexer basics" `Quick test_lex_basics;
    Alcotest.test_case "keywords vs identifiers" `Quick test_lex_keywords_vs_idents;
    Alcotest.test_case "comments" `Quick test_lex_comments;
    Alcotest.test_case "two-char operators" `Quick test_lex_two_char_ops;
    Alcotest.test_case "positions" `Quick test_lex_positions;
    Alcotest.test_case "lexer errors" `Quick test_lex_error;
    Alcotest.test_case "operator precedence" `Quick test_precedence;
    Alcotest.test_case "parentheses and unary ops" `Quick test_parens_and_unary;
    Alcotest.test_case "process parsing" `Quick test_parse_process;
    Alcotest.test_case "choose arms" `Quick test_parse_choose;
    Alcotest.test_case "send/recv forms" `Quick test_parse_send_recv;
    Alcotest.test_case "parse errors carry positions" `Quick test_parse_error_position;
    Alcotest.test_case "pretty-print round-trip" `Quick test_roundtrip_examples;
    Alcotest.test_case "typecheck accepts the well-typed" `Quick test_typecheck_ok;
    Alcotest.test_case "undeclared variable" `Quick test_typecheck_undeclared;
    Alcotest.test_case "assignment type mismatch" `Quick test_typecheck_mismatch;
    Alcotest.test_case "non-bool guard" `Quick test_typecheck_guard;
    Alcotest.test_case "redeclaration" `Quick test_typecheck_redeclare;
    Alcotest.test_case "channel signature consistency" `Quick test_typecheck_channel_consistency;
    Alcotest.test_case "havoc needs an int" `Quick test_typecheck_havoc_bool;
    Alcotest.test_case "compiled labels are unique" `Quick test_compile_labels_unique;
    Alcotest.test_case "examples run to their verdicts" `Quick test_run_examples;
    Alcotest.test_case "counter race loses an update" `Quick test_counter_race_outcomes;
    Alcotest.test_case "havoc explores the whole range" `Quick test_havoc_range;
    Alcotest.test_case "empty havoc blocks" `Quick test_empty_havoc_blocks;
    Alcotest.test_case "expression evaluation" `Quick test_runtime_error_on_bad_channel_value;
  ]

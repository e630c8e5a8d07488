(* Compilation of the CIMP concrete language onto the core CIMP semantics.

   The local data state of a compiled process is a flat variable
   environment; rendezvous messages are (channel, value) pairs; replies are
   values.  [assert] compiles to a conditional that raises a reserved flag
   in the local state, which the [assertions_hold] invariant observes —
   this is how checker-visible properties are written in the surface
   language. *)

type value = Ast.value
type env = (string * value) list

type msg = string * value  (* channel, payload *)

type com = (msg, value, env) Cimp.Com.t
type system = (msg, value, env) Cimp.System.t

let assert_flag = "_assert_failed"

exception Runtime of string

let lookup env x =
  match List.assoc_opt x env with
  | Some v -> v
  | None -> raise (Runtime (Printf.sprintf "unbound variable %s" x))

let as_int = function Ast.V_int n -> n | Ast.V_bool _ -> raise (Runtime "expected int")
let as_bool = function Ast.V_bool b -> b | Ast.V_int _ -> raise (Runtime "expected bool")

let set env x v =
  if List.mem_assoc x env then List.map (fun (y, w) -> if y = x then (y, v) else (y, w)) env
  else env @ [ (x, v) ]

let rec eval env : Ast.expr -> value = function
  | Ast.E_int n -> Ast.V_int n
  | Ast.E_bool b -> Ast.V_bool b
  | Ast.E_var x -> lookup env x
  | Ast.E_not e -> Ast.V_bool (not (as_bool (eval env e)))
  | Ast.E_binop (op, a, b) -> (
    let va = eval env a and vb = eval env b in
    match op with
    | Ast.Add -> Ast.V_int (as_int va + as_int vb)
    | Ast.Sub -> Ast.V_int (as_int va - as_int vb)
    | Ast.Mul -> Ast.V_int (as_int va * as_int vb)
    | Ast.Lt -> Ast.V_bool (as_int va < as_int vb)
    | Ast.Le -> Ast.V_bool (as_int va <= as_int vb)
    | Ast.Gt -> Ast.V_bool (as_int va > as_int vb)
    | Ast.Ge -> Ast.V_bool (as_int va >= as_int vb)
    | Ast.Eq -> Ast.V_bool (va = vb)
    | Ast.Neq -> Ast.V_bool (va <> vb)
    | Ast.And -> Ast.V_bool (as_bool va && as_bool vb)
    | Ast.Or -> Ast.V_bool (as_bool va || as_bool vb))

let eval_bool env e = as_bool (eval env e)

(* Compile one process.  Labels are [name:k] with k a statement counter, so
   they are unique within the process as the checker requires. *)
let compile_process (p : Ast.process) : com =
  let counter = ref 0 in
  let fresh what =
    incr counter;
    Cimp.Label.v (Printf.sprintf "%s:%d:%s" p.Ast.name !counter what)
  in
  let rec stmt : Ast.stmt -> com = function
    | Ast.S_skip -> Cimp.Com.Skip (fresh "skip")
    | Ast.S_var (x, e) | Ast.S_assign (x, e) ->
      Cimp.Com.assign (fresh ("set-" ^ x)) (fun env -> set env x (eval env e))
    | Ast.S_if (e, t, f) ->
      Cimp.Com.If (fresh "if", (fun env -> eval_bool env e), block "then" t, block "else" f)
    | Ast.S_while (e, b) ->
      Cimp.Com.While (fresh "while", (fun env -> eval_bool env e), block "body" b)
    | Ast.S_loop b -> Cimp.Com.Loop (block "loop" b)
    | Ast.S_choose bs -> Cimp.Com.Choose (List.map (block "alt") bs)
    | Ast.S_send (ch, e, binder) ->
      Cimp.Com.Request
        ( fresh ("send-" ^ ch),
          (fun env -> (ch, eval env e)),
          fun reply env -> match binder with None -> env | Some x -> set env x reply )
    | Ast.S_recv (ch, x, reply_expr) ->
      Cimp.Com.Response
        ( fresh ("recv-" ^ ch),
          fun _ (ch', payload) env ->
            if ch' <> ch then []
            else begin
              let env' = set env x payload in
              [ (env', eval env' reply_expr) ]
            end )
    | Ast.S_havoc (x, lo, hi) ->
      Cimp.Com.Local_op
        ( fresh ("havoc-" ^ x),
          fun env ->
            let lo = as_int (eval env lo) and hi = as_int (eval env hi) in
            if hi < lo then []
            else List.init (hi - lo + 1) (fun i -> set env x (Ast.V_int (lo + i))) )
    | Ast.S_assert e ->
      Cimp.Com.If
        ( fresh "assert",
          (fun env -> eval_bool env e),
          Cimp.Com.Skip (fresh "assert-ok"),
          Cimp.Com.assign (fresh "assert-fail") (fun env -> set env assert_flag (Ast.V_bool true))
        )
  and block tag = function
    | [] -> Cimp.Com.Skip (fresh (tag ^ "-empty"))
    | stmts -> Cimp.Com.seq (List.map stmt stmts)
  in
  block "top" p.Ast.body

(* Initial environment: all variables declared anywhere in the process,
   initialised by evaluating declarations would be wrong (they may depend
   on runtime state); instead declarations execute as assignments and
   [set] extends the environment on first write.  The assert flag starts
   false so that environments are comparable. *)
let initial_env : env = [ (assert_flag, Ast.V_bool false) ]

(* Build a runnable system from a program. *)
let system (prog : Ast.program) : system =
  ignore (Typecheck.program prog);
  let names = Array.of_list (List.map (fun (p : Ast.process) -> p.Ast.name) prog) in
  let procs =
    Array.of_list
      (List.map (fun p -> Cimp.Com.make [ compile_process p ] initial_env) prog)
  in
  Cimp.System.make names procs

(* The invariant exported to the checker: no process has tripped an
   [assert]. *)
let assertions_hold (sys : system) =
  let ok p =
    match List.assoc_opt assert_flag (Cimp.System.proc sys p).Cimp.Com.data with
    | Some (Ast.V_bool true) -> false
    | _ -> true
  in
  let rec go p = p >= Cimp.System.n_procs sys || (ok p && go (p + 1)) in
  go 0

(* Convenience: parse, typecheck, compile. *)
let of_source src = system (Parser.program src)

(* Structural pretty-printer for CIMP commands.

   Guards and state transformers are shallowly embedded (OCaml closures), so
   only the control skeleton and labels can be rendered; this is exactly what
   is needed to read counterexample traces and to eyeball that a generated
   program matches the paper's pseudo-code. *)

open Com

let rec pp ppf = function
  | Skip l -> Fmt.pf ppf "{%a} skip" Label.pp l
  | Local_op (l, _) -> Fmt.pf ppf "{%a} localop" Label.pp l
  | Request (l, _, _) -> Fmt.pf ppf "{%a} request" Label.pp l
  | Response (l, _) -> Fmt.pf ppf "{%a} response" Label.pp l
  | Seq (a, b) -> Fmt.pf ppf "@[<v>%a;;@,%a@]" pp a pp b
  | If (l, _, a, b) ->
    Fmt.pf ppf "@[<v2>{%a} if ... then@,%a@]@,@[<v2>else@,%a@]" Label.pp l pp a pp b
  | While (l, _, c) -> Fmt.pf ppf "@[<v2>{%a} while ... do@,%a@]" Label.pp l pp c
  | Loop c -> Fmt.pf ppf "@[<v2>loop@,%a@]" pp c
  | Choose cs ->
    Fmt.pf ppf "@[<v2>choose@,%a@]" (Fmt.list ~sep:(Fmt.any "@,[] ") pp) cs

let pp_stack ppf stack =
  Fmt.pf ppf "[%a]" (Fmt.list ~sep:(Fmt.any " . ") Label.pp) (Com.stack_labels stack)

let to_string c = Fmt.str "%a" pp c

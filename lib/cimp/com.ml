(* CIMP command syntax and the per-process small-step semantics of Fig. 7.

   CIMP extends IMP with process-algebra-style rendezvous, control and data
   non-determinism, and flat parallel composition (built in [System]).  We
   use the customary mix of a deep embedding of commands and a shallow
   embedding of expressions: guards and state updates are OCaml functions
   over the process's local data state ['s].

   Type parameters, following the paper's presentation:
   - ['a] is the type of rendezvous messages (the paper's alpha), computed by
     the sender's REQUEST as a function of its local state;
   - ['v] is the type of response values (the paper's beta), chosen
     non-deterministically by the receiver's RESPONSE;
   - ['s] is the local data state of a process.

   A process's local control state is a frame stack of commands (Fig. 7,
   second rule); [norm] keeps stacks in the canonical form where the head is
   never a [Seq], so that control states have a unique representation and
   can be fingerprinted by their label spine. *)

type ('a, 'v, 's) t =
  | Skip of Label.t
  | Local_op of Label.t * ('s -> 's list)
  | Request of Label.t * ('s -> 'a) * ('v -> 's -> 's)
  | Response of Label.t * (int -> 'a -> 's -> ('s * 'v) list)  (* the requester's pid first *)
  | Seq of ('a, 'v, 's) t * ('a, 'v, 's) t
  | If of Label.t * ('s -> bool) * ('a, 'v, 's) t * ('a, 'v, 's) t
  | While of Label.t * ('s -> bool) * ('a, 'v, 's) t
  | Loop of ('a, 'v, 's) t
  | Choose of ('a, 'v, 's) t list

(* Derived forms. *)

let skip l = Skip l
let seq cs = match cs with [] -> invalid_arg "Com.seq: empty" | c :: cs -> List.fold_left (fun a b -> Seq (a, b)) c cs
let assign l f = Local_op (l, fun s -> [ f s ])
let guard l p = Local_op (l, fun s -> if p s then [ s ] else [])
let if_ l p c = If (l, p, c, Skip (Label.v (Label.name l ^ ":endif")))

let empty_choice = Label.v "<empty-choice>"

(* The leftmost-leaf label of a command: the location of the next atomic
   action to execute if this command is at the head of the stack. *)
let rec head_label = function
  | Skip l | Local_op (l, _) | Request (l, _, _) | Response (l, _) | If (l, _, _, _) | While (l, _, _) -> l
  | Seq (a, _) -> head_label a
  | Loop c -> head_label c
  | Choose [] -> empty_choice
  | Choose (c :: _) -> head_label c

(* All labels occurring in a command, for the uniqueness check. *)
let labels com =
  let rec go acc = function
    | Skip l | Local_op (l, _) | Request (l, _, _) | Response (l, _) -> l :: acc
    | Seq (a, b) -> go (go acc a) b
    | If (l, _, a, b) -> go (go (l :: acc) a) b
    | While (l, _, c) -> go (l :: acc) c
    | Loop c -> go acc c
    | Choose cs -> List.fold_left go acc cs
  in
  go [] com

(* Check that no label occurs twice; returns the duplicates.  The table
   hashes with the hash each label carries. *)
module Label_tbl = Hashtbl.Make (Label)

let duplicate_labels com =
  let tbl = Label_tbl.create 64 in
  let dups = ref [] in
  let record l =
    if Label_tbl.mem tbl l then dups := l :: !dups else Label_tbl.add tbl l ()
  in
  List.iter record (labels com);
  List.sort_uniq Label.compare !dups

(* -- Frame stacks and local configurations ------------------------------- *)

(* [memo] is 0 or the configuration's slot hash, which
   Check.Fingerprint computes through [memo_hash] and never makes 0.
   [make] and [with_data] are the only constructors (the record is
   private outside), and both start the memo empty. *)
type memo = int
type ('a, 'v, 's) config = { stack : ('a, 'v, 's) t list; data : 's; mutable memo : memo }

(* Canonical form: decompose Seq at the head of the stack.  Loop and Choose
   are left in place; [unfold] below enters them transparently when a step
   is taken, so the stored representation stays canonical. *)
let rec norm = function
  | Seq (a, b) :: rest -> norm (a :: b :: rest)
  | stack -> stack

let make stack data = { stack = norm stack; data; memo = 0 }
let with_data cfg data = if data == cfg.data then cfg else { stack = cfg.stack; data; memo = 0 }

(* Domains that fill one memo concurrently all store the same word. *)
let memo_hash cfg f =
  if cfg.memo <> 0 then cfg.memo
  else begin
    let h = f cfg in
    cfg.memo <- h;
    h
  end

(* The spine of head labels of each stack frame.  With unique labels this
   identifies the control state; used by [Check.Fingerprint]. *)
let stack_labels stack = List.map head_label stack

(* [List.compare Label.compare] of two stacks' spines, read from the
   frames without building either list. *)
let rec compare_spines a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | c :: a, d :: b ->
    let l = head_label c and l' = head_label d in
    let k = if l == l' then 0 else Label.compare l l' in
    if k <> 0 then k else compare_spines a b

(* Labels at which control may take its next atomic action.  A [Choose]
   offers all of its alternatives; other commands offer their head.  This is
   the executable counterpart of the paper's [at p l] predicate. *)
let at_labels { stack; _ } =
  let rec heads acc c =
    match c with
    | Seq (a, _) -> heads acc a
    | Loop body -> heads acc body
    | Choose cs -> List.fold_left heads acc cs
    | Skip l | Local_op (l, _) | Request (l, _, _) | Response (l, _) | If (l, _, _, _) | While (l, _, _) ->
      l :: acc
  in
  match stack with [] -> [] | c :: _ -> List.sort_uniq Label.compare (heads [] c)

(* [at_labels] as a test: does some label at which control may act satisfy
   [pred]?  Walks the head command without building a list. *)
let rec exists_head pred = function
  | Seq (a, _) | Loop a -> exists_head pred a
  | Choose cs -> exists_heads pred cs
  | Skip l | Local_op (l, _) | Request (l, _, _) | Response (l, _) | If (l, _, _, _)
  | While (l, _, _) ->
    pred l

and exists_heads pred = function [] -> false | c :: cs -> exists_head pred c || exists_heads pred cs

let exists_at pred { stack; _ } = match stack with [] -> false | c :: _ -> exists_head pred c

let terminated { stack; _ } = stack = []

(* -- Offers: the three kinds of transitions a process can make ----------- *)

type ('a, 'v, 's) offer =
  | Tau of Label.t * ('a, 'v, 's) config
  | Req of Label.t * 'a * ('v -> ('a, 'v, 's) config)
  | Resp of Label.t * (int -> 'a -> (('a, 'v, 's) config * 'v) list)

(* The stack with Seq and Loop unfolded at its head: the Fig. 7 contexts
   in which every step is taken.  Loop re-pushes itself as the
   continuation, so it unfolds without consuming a step; the stored
   representation keeps it folded, so control states stay canonical. *)
let rec unfold = function
  | Seq (a, b) :: rest -> unfold (a :: b :: rest)
  | Loop c :: _ as whole -> unfold (c :: whole)
  | stack -> stack

(* Everything a process can do next, in branch order.  Guard evaluation
   (If/While) is one atomic step, as in the Isabelle semantics.  A REQUEST
   offers alpha, a function of the local state (Fig. 7 third rule), and a
   continuation awaiting beta; a RESPONSE offers, for any requester and
   alpha, its successors with the beta sent back (last rule).  An
   external choice offers the union of its branches and commits only when
   one acts, which is what lets Fig. 9's Sys process respond and dequeue
   at once. *)
let offers { stack; data; _ } =
  let rec go stack tail =
    match unfold stack with
    | [] -> tail
    | Skip l :: rest -> Tau (l, make rest data) :: tail
    | Local_op (l, f) :: rest ->
      List.fold_right (fun d tail -> Tau (l, make rest d) :: tail) (f data) tail
    | If (l, p, a, b) :: rest -> Tau (l, make ((if p data then a else b) :: rest) data) :: tail
    | While (l, p, c) :: rest as whole ->
      Tau (l, if p data then make (c :: whole) data else make rest data) :: tail
    | Request (l, act, apply) :: rest ->
      Req (l, act data, fun v -> make rest (apply v data)) :: tail
    | Response (l, f) :: rest ->
      Resp (l, fun p alpha -> List.map (fun (d, v) -> (make rest d, v)) (f p alpha data)) :: tail
    | Choose cs :: rest -> List.fold_right (fun c tail -> go (c :: rest) tail) cs tail
    | (Seq _ | Loop _) :: _ -> assert false (* unfolded *)
  in
  go stack []

(* A *definite* tau step: the process's entire enabled behaviour is exactly
   one deterministic local/control step.  Such steps touch only the
   process's own registers and control point, so no other process can
   observe whether they have happened; executing them eagerly yields the
   evaluation-context normal form the paper uses to generate verification
   conditions "in terms of atomic actions" (Section 3).  Heads under a
   Choose are never definite (stepping would commit the choice), and
   Local_ops with zero or several successors are genuine
   blocking/non-determinism.  A process at rest waits on a request, a
   response or a choice: [acts_externally] finds that head command
   through Seq and Loop without unfolding them, so settled processes,
   which [System.normalize] asks about on every successor, cost no
   allocation. *)
let rec acts_externally = function
  | Seq (a, _) | Loop a -> acts_externally a
  | Choose _ | Request _ | Response _ -> true
  | Skip _ | Local_op _ | If _ | While _ -> false

let definite_tau { stack; data; _ } =
  match stack with
  | c :: _ when not (acts_externally c) -> (
    match unfold stack with
    | Skip _ :: rest -> Some (make rest data)
    | If (_, p, a, b) :: rest -> Some (make ((if p data then a else b) :: rest) data)
    | While (_, p, c) :: rest as whole ->
      Some (if p data then make (c :: whole) data else make rest data)
    | Local_op (_, f) :: rest -> ( match f data with [ d ] -> Some (make rest d) | _ -> None)
    | (Choose _ | Request _ | Response _) :: _ | [] -> None
    | (Seq _ | Loop _) :: _ -> assert false (* unfolded *))
  | _ -> None

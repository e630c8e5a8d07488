(* Structural comparison of two certificates: header field deltas plus a
   linear merge of the two sorted tables.  Needs no model — certdiff is
   the no-change gate between consecutive CI runs, so it must work from
   the artifacts alone. *)

type t = {
  header_deltas : (string * string * string) list;  (* field, a's value, b's value *)
  only_a : int;  (* entries only in A *)
  only_b : int;  (* entries only in B *)
  changed : int;  (* same fingerprint, different depth or verdict *)
  examples : string list;  (* first few entry-level differences *)
  a_states : int;
  b_states : int;
}

let identical d =
  d.header_deltas = [] && d.only_a = 0 && d.only_b = 0 && d.changed = 0

let max_examples = 8
let fp_hex fp = Printf.sprintf "0x%x" (fp land max_int)

let header_deltas (a : Certificate.header) (b : Certificate.header) =
  let strs l = String.concat "," l in
  List.filter_map
    (fun (field, va, vb) -> if va = vb then None else Some (field, va, vb))
    [
      ("config_hash", a.Certificate.config_hash, b.Certificate.config_hash);
      ("reduce", a.reduce, b.reduce);
      ("invariants", strs a.invariants, strs b.invariants);
      ("obligations", strs a.obligations, strs b.obligations);
      ("root_fp", fp_hex a.root_fp, fp_hex b.root_fp);
      ("states", string_of_int a.states, string_of_int b.states);
      ("max_depth", string_of_int a.max_depth, string_of_int b.max_depth);
    ]

let run dir_a dir_b =
  let ( let* ) = Result.bind in
  let* ha = Certificate.read_header dir_a in
  let* hb = Certificate.read_header dir_b in
  let* ta = Certificate.load_table ~expected_digest:ha.Certificate.table_digest dir_a in
  let* tb = Certificate.load_table ~expected_digest:hb.Certificate.table_digest dir_b in
  let fa = ta.Certificate.fps and fb = tb.Certificate.fps in
  let na = Array.length fa and nb = Array.length fb in
  let only_a = ref 0 and only_b = ref 0 and changed = ref 0 in
  let examples = ref [] in
  let note fmt =
    Printf.ksprintf
      (fun s -> if List.length !examples < max_examples then examples := s :: !examples)
      fmt
  in
  let i = ref 0 and j = ref 0 in
  while !i < na || !j < nb do
    if !j >= nb || (!i < na && fa.(!i) < fb.(!j)) then begin
      incr only_a;
      note "- %s (only in A)" (fp_hex fa.(!i));
      incr i
    end
    else if !i >= na || fb.(!j) < fa.(!i) then begin
      incr only_b;
      note "+ %s (only in B)" (fp_hex fb.(!j));
      incr j
    end
    else begin
      let ma = ta.Certificate.metas.(!i) and mb = tb.Certificate.metas.(!j) in
      let da = Store.Segment.depth ma and db = Store.Segment.depth mb in
      let va = Store.Segment.violation ma and vb = Store.Segment.violation mb in
      if da <> db || va <> vb then begin
        incr changed;
        note "~ %s depth %d->%d verdict %d->%d" (fp_hex fa.(!i)) da db va vb
      end;
      incr i;
      incr j
    end
  done;
  Ok
    {
      header_deltas = header_deltas ha hb;
      only_a = !only_a;
      only_b = !only_b;
      changed = !changed;
      examples = List.rev !examples;
      a_states = na;
      b_states = nb;
    }

let pp ppf d =
  if identical d then Fmt.pf ppf "certificates identical (%d states)" d.a_states
  else begin
    Fmt.pf ppf "certificates differ (A: %d states, B: %d states)@." d.a_states d.b_states;
    List.iter
      (fun (field, va, vb) -> Fmt.pf ppf "  header %s: %s -> %s@." field va vb)
      d.header_deltas;
    if d.only_a + d.only_b + d.changed > 0 then
      Fmt.pf ppf "  entries: %d only in A, %d only in B, %d changed@." d.only_a d.only_b
        d.changed;
    List.iter (fun e -> Fmt.pf ppf "    %s@." e) d.examples
  end

(* Counterexample forensics reports.

   [analyze] replays nothing itself — it takes a complete trace (from a
   checker or from Check.Trace.import), captures a snapshot of every intermediate
   state, and diffs consecutive snapshots into per-step semantic changes.
   Three renderers share the analysis:

     - [timeline]: an ASCII lane view, one lane per process, with fence /
       CAS / flush events tagged and a per-step effects column;
     - [narrative]: every step's full-sentence change list;
     - [explanation]: which invariant conjunct failed, on which witness
       refs/pids, and the last [k] steps that touched those refs.

   Everything rendered here is a pure function of the trace and the
   config — no clocks, no randomness — so explaining the same trace twice
   yields byte-identical reports (tested). *)

type trace = (Core.Types.req, Core.Types.value, Core.State.t) Check.Trace.t

type step_diff = {
  index : int;  (* 1-based step number *)
  event : Cimp.System.event;
  changes : Diff.change list;
}

type t = {
  cfg : Core.Config.t;
  broken : string;
  doc : string;  (* the invariant's documentation line, "" if unknown *)
  names : string array;
  snapshots : Snapshot.t list;  (* length = steps + 1; head is the initial state *)
  steps : step_diff list;
  witnesses : Core.Invariants.witness list;
}

let analyze cfg (trace : trace) =
  let snapshots =
    Snapshot.capture cfg ~step:0 trace.Check.Trace.initial
    :: List.mapi
         (fun i (s : _ Check.Trace.step) -> Snapshot.capture cfg ~step:(i + 1) s.state)
         trace.Check.Trace.steps
  in
  let rec diffs i snaps steps =
    match (snaps, steps) with
    | before :: (after :: _ as rest), (s : _ Check.Trace.step) :: steps' ->
      { index = i; event = s.event; changes = Diff.compute ~before ~after }
      :: diffs (i + 1) rest steps'
    | _ -> []
  in
  let doc, witnesses =
    match Core.Invariants.find cfg trace.Check.Trace.broken with
    | Some inv ->
      (inv.Core.Invariants.doc, inv.Core.Invariants.witness (Check.Trace.final trace))
    | None -> ("", [])
  in
  {
    cfg;
    broken = trace.Check.Trace.broken;
    doc;
    names =
      Array.init
        (Cimp.System.n_procs trace.Check.Trace.initial)
        (fun p -> Cimp.System.name trace.Check.Trace.initial p);
    snapshots;
    steps = diffs 1 snapshots trace.Check.Trace.steps;
    witnesses;
  }

(* -- lane timeline ------------------------------------------------------------ *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m > 0 && go 0

(* memory-model annotations recognized from the label vocabulary *)
let label_tags l =
  (if contains_sub l "mfence" || contains_sub l "-fence" then [ "#fence" ] else [])
  @ (if contains_sub l ":cas-" || contains_sub l "cas-" then [ "#cas" ] else [])
  @ if l = "sys:dequeue" then [ "#flush" ] else []

let tagged l =
  let l = Cimp.Label.name l in
  String.concat " " (l :: label_tags l)

let clamp width s = if String.length s <= width then s else String.sub s 0 (width - 1) ^ "~"

let pad width s =
  let s = clamp width s in
  s ^ String.make (width - String.length s) ' '

let lane_cells names ev =
  let n = Array.length names in
  let cells = Array.make n "" in
  (match ev with
  | Cimp.System.Tau (p, l) -> if p >= 0 && p < n then cells.(p) <- tagged l
  | Cimp.System.Rendezvous { requester; req_label; responder; resp_label } ->
    if requester >= 0 && requester < n then cells.(requester) <- tagged req_label ^ " >";
    if responder >= 0 && responder < n then cells.(responder) <- "> " ^ tagged resp_label);
  cells

let timeline ?(lane_width = 26) ?(effects_width = 60) t =
  let b = Buffer.create 4096 in
  let n = Array.length t.names in
  let width =
    (* fit each lane to its widest cell, clamped *)
    let w = Array.map String.length t.names in
    List.iter
      (fun sd ->
        let cells = lane_cells t.names sd.event in
        Array.iteri (fun p c -> if String.length c > w.(p) then w.(p) <- String.length c) cells)
      t.steps;
    Array.map (fun x -> min lane_width (max 4 x)) w
  in
  let row step cells effects =
    Buffer.add_string b (pad 5 step);
    Array.iteri
      (fun p c ->
        Buffer.add_string b "| ";
        Buffer.add_string b (pad width.(p) c);
        Buffer.add_char b ' ')
      cells;
    Buffer.add_string b "| ";
    Buffer.add_string b (clamp effects_width effects);
    Buffer.add_char b '\n'
  in
  row "step" (Array.copy t.names) "effects";
  let rule =
    "-----"
    ^ String.concat ""
        (List.init n (fun p -> "+" ^ String.make (width.(p) + 2) '-'))
    ^ "+" ^ String.make 10 '-'
  in
  Buffer.add_string b rule;
  Buffer.add_char b '\n';
  List.iter
    (fun sd ->
      let effects = String.concat "; " (List.map (Diff.compact t.cfg) sd.changes) in
      row (string_of_int sd.index) (lane_cells t.names sd.event) effects)
    t.steps;
  Buffer.contents b

(* -- step narrative ----------------------------------------------------------- *)

let narrative t =
  let b = Buffer.create 4096 in
  List.iter
    (fun sd ->
      Buffer.add_string b
        (Fmt.str "step %d: %a\n" sd.index (Cimp.System.pp_event t.names) sd.event);
      if sd.changes = [] then Buffer.add_string b "    (no observable state change)\n"
      else
        List.iter
          (fun c -> Buffer.add_string b ("    " ^ Diff.describe t.cfg c ^ "\n"))
          sd.changes)
    t.steps;
  Buffer.contents b

(* -- violation explanation ---------------------------------------------------- *)

let witness_refs t =
  List.sort_uniq compare (List.concat_map (fun w -> w.Core.Invariants.refs) t.witnesses)

(* the last [k] steps whose changes touch any of [refs] *)
let steps_touching ?(last = 8) t refs =
  let touching =
    List.filter
      (fun sd ->
        List.exists (fun c -> List.exists (fun r -> List.mem r refs) (Diff.touches c)) sd.changes)
      t.steps
  in
  let n = List.length touching in
  List.filteri (fun i _ -> i >= n - last) touching

let explanation ?(last = 8) t =
  let b = Buffer.create 2048 in
  let total = List.length t.steps in
  Buffer.add_string b
    (Fmt.str "VIOLATION: invariant %s fails after %d steps.\n" t.broken total);
  if t.doc <> "" then Buffer.add_string b (Fmt.str "  (%s)\n" t.doc);
  Buffer.add_char b '\n';
  (match t.witnesses with
  | [] ->
    Buffer.add_string b
      "No structured witness available (invariant not in this configuration's catalogue).\n"
  | ws ->
    Buffer.add_string b "Failing conjuncts:\n";
    List.iter
      (fun w -> Buffer.add_string b (Fmt.str "  %a\n" Core.Invariants.pp_witness w))
      ws);
  let refs = witness_refs t in
  (if refs <> [] then begin
     Buffer.add_string b
       (Fmt.str "\nLast %d steps touching witness ref%s %s:\n" last
          (if List.length refs = 1 then "" else "s")
          (String.concat ", " (List.map string_of_int refs)));
     let steps = steps_touching ~last t refs in
     if steps = [] then Buffer.add_string b "  (no step touched the witness refs)\n"
     else
       List.iter
         (fun sd ->
           Buffer.add_string b
             (Fmt.str "  step %d: %a\n" sd.index (Cimp.System.pp_event t.names) sd.event);
           List.iter
             (fun c ->
               if List.exists (fun r -> List.mem r refs) (Diff.touches c) then
                 Buffer.add_string b ("      " ^ Diff.describe t.cfg c ^ "\n"))
             sd.changes)
         steps
   end);
  (* final colours of the witness refs, from the last snapshot *)
  (match (refs, List.rev t.snapshots) with
  | _ :: _, final :: _ ->
    Buffer.add_string b "\nFinal state of the witness refs:\n";
    List.iter
      (fun r ->
        match Snapshot.color_of final r with
        | Some c ->
          Buffer.add_string b
            (Fmt.str "  ref %d is %s%s\n" r (Snapshot.color_name c)
               (match Snapshot.grey_via final r with
               | Some (Snapshot.Via_ghg p) ->
                 Fmt.str " (honorary grey via %s)" (Core.Config.proc_name t.cfg p)
               | Some (Snapshot.Via_wl p) ->
                 Fmt.str " (on %s's work-list)" (Core.Config.proc_name t.cfg p)
               | None -> ""))
        | None -> Buffer.add_string b (Fmt.str "  ref %d is not allocated\n" r))
      refs
  | _ -> ());
  Buffer.contents b

(* -- full text report --------------------------------------------------------- *)

let render ?last t =
  String.concat "\n"
    [
      explanation ?last t;
      "== timeline " ^ String.make 68 '=';
      timeline t;
      "== narrative " ^ String.make 67 '=';
      narrative t;
    ]

(* -- JSON --------------------------------------------------------------------- *)

let to_json t =
  let open Obs.Json in
  Obj
    [
      ("broken", String t.broken);
      ("doc", String t.doc);
      ("length", Int (List.length t.steps));
      ("names", List (Array.to_list (Array.map (fun n -> String n) t.names)));
      ("witnesses", List (List.map Core.Invariants.witness_to_json t.witnesses));
      ( "steps",
        List
          (List.map
             (fun sd ->
               Obj
                 [
                   ("step", Int sd.index);
                   ("event", Check.Trace.event_to_json sd.event);
                   ("changes", List (List.map (Diff.to_json t.cfg) sd.changes));
                 ])
             t.steps) );
      ( "initial",
        match t.snapshots with [] -> Null | s :: _ -> Snapshot.to_json s );
      ( "final",
        match List.rev t.snapshots with [] -> Null | s :: _ -> Snapshot.to_json s );
    ]

(* -- HTML --------------------------------------------------------------------- *)

let html_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* A self-contained page: inline CSS, no external assets, and no
   timestamps — the same analysis renders the same bytes.  [html_page]
   is the shared shell; the kill-matrix renderer in lib/mutate reuses it
   (with [extra_style] for its table rules). *)
let html_page ?(extra_style = "") ~title body =
  Fmt.str
    "<!DOCTYPE html>\n\
     <html lang=\"en\">\n\
     <head>\n\
     <meta charset=\"utf-8\">\n\
     <title>%s</title>\n\
     <style>\n\
     body { font-family: sans-serif; margin: 2em; max-width: 100em; }\n\
     pre { background: #f6f6f6; border: 1px solid #ddd; padding: 1em; overflow-x: auto; }\n\
     h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 2em; }\n\
     .broken { color: #b00020; }\n\
     details summary { cursor: pointer; margin-top: 2em; }\n\
     %s</style>\n\
     </head>\n\
     <body>\n\
     %s</body>\n\
     </html>\n"
    (html_escape title) extra_style body

let html ?last t =
  let b = Buffer.create 16384 in
  let add = Buffer.add_string b in
  add (Fmt.str "<h1>Counterexample forensics: <span class=\"broken\">%s</span></h1>\n"
         (html_escape t.broken));
  add "<h2>Explanation</h2>\n<pre>";
  add (html_escape (explanation ?last t));
  add "</pre>\n<h2>Timeline</h2>\n<pre>";
  add (html_escape (timeline t));
  add "</pre>\n<h2>Narrative</h2>\n<pre>";
  add (html_escape (narrative t));
  add "</pre>\n<details><summary>Structured report (JSON)</summary>\n<pre>";
  add (html_escape (Obs.Json.to_string_pretty (to_json t)));
  add "</pre>\n</details>\n";
  html_page ~title:(Fmt.str "Counterexample: %s" t.broken) (Buffer.contents b)

let write_html ?last path t =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (html ?last t))

(* Counterexample traces: the sequence of scheduled events from the initial
   state to a state violating an invariant. *)

type ('a, 'v, 's) step = {
  event : Cimp.System.event;
  state : ('a, 'v, 's) Cimp.System.t;
}

type ('a, 'v, 's) t = {
  initial : ('a, 'v, 's) Cimp.System.t;
  steps : ('a, 'v, 's) step list;  (* in execution order *)
  broken : string;  (* name of the violated invariant *)
}

let length tr = List.length tr.steps

let final tr =
  match List.rev tr.steps with [] -> tr.initial | last :: _ -> last.state

(* -- JSON export ------------------------------------------------------------ *)

(* Counterexamples as artifacts: the schedule (plus process names and the
   violated invariant) fully determines the run, so exporting it makes a
   violation replayable without serializing the polymorphic data states. *)

let event_to_json = function
  | Cimp.System.Tau (p, l) ->
    Obs.Json.Obj
      [
        ("kind", Obs.Json.String "tau");
        ("pid", Obs.Json.Int p);
        ("label", Obs.Json.String (Cimp.Label.name l));
      ]
  | Cimp.System.Rendezvous { requester; req_label; responder; resp_label } ->
    Obs.Json.Obj
      [
        ("kind", Obs.Json.String "rendezvous");
        ("requester", Obs.Json.Int requester);
        ("req_label", Obs.Json.String (Cimp.Label.name req_label));
        ("responder", Obs.Json.Int responder);
        ("resp_label", Obs.Json.String (Cimp.Label.name resp_label));
      ]

let event_of_value =
  Obs.Json.Decode.(
    fun e ->
      let label v = Cimp.Label.v (string v) in
      let kind = field "kind" e in
      match string kind with
      | "tau" ->
        let pid = int (field "pid" e) in
        let label = label (field "label" e) in
        Cimp.System.Tau (pid, label)
      | "rendezvous" ->
        let requester = int (field "requester" e) in
        let req_label = label (field "req_label" e) in
        let responder = int (field "responder" e) in
        let resp_label = label (field "resp_label" e) in
        Cimp.System.Rendezvous { requester; req_label; responder; resp_label }
      | _ -> malformed kind)

let to_json tr =
  let names =
    List.init (Cimp.System.n_procs tr.initial) (fun p ->
        Obs.Json.String (Cimp.System.name tr.initial p))
  in
  Obs.Json.Obj
    [
      ("broken", Obs.Json.String tr.broken);
      ("length", Obs.Json.Int (length tr));
      ("names", Obs.Json.List names);
      ("schedule", Obs.Json.List (List.map (fun s -> event_to_json s.event) tr.steps));
    ]

let schedule_of_json =
  Obs.Json.Decode.(
    run "trace" (fun t ->
        let broken = string (field "broken" t) in
        let schedule = list event_of_value (field "schedule" t) in
        (broken, schedule)))

(* -- import validation ------------------------------------------------------

   A schedule is only meaningful against the system it was recorded on: a
   stale trace from an instance with a different process count (--muts) or
   a different program (variant, disabled ops) used to replay into a
   confusing failure deep inside the model.  Check every event's pids and
   labels against the target system's programs up front and fail with a
   diagnosis instead.  [sys] must be the pristine initial system (its
   frame stacks still hold the full programs, so Com.labels enumerates
   every label the process can ever fire). *)

let validate_events sys events =
  let n = Cimp.System.n_procs sys in
  let labels_of =
    (* per-pid label universe, computed once *)
    Array.init n (fun p ->
        List.concat_map Cimp.Com.labels (Cimp.System.proc sys p).Cimp.Com.stack)
  in
  let check_pid i p =
    if p < 0 || p >= n then
      Error
        (Fmt.str
           "event %d: pid %d is out of range — this system has %d processes; the trace was \
            recorded on a different instance (check --muts)"
           i p n)
    else Ok ()
  in
  let check_label i p l =
    if List.mem l labels_of.(p) then Ok ()
    else
      Error
        (Fmt.str
           "event %d: label %S is not a label of process %d (%S) — the trace was recorded \
            on a different system (check --muts/--variant/--disable)"
           i (Cimp.Label.name l) p (Cimp.System.name sys p))
  in
  let ( let* ) = Result.bind in
  let check_event i = function
    | Cimp.System.Tau (p, l) ->
      let* () = check_pid i p in
      check_label i p l
    | Cimp.System.Rendezvous { requester; req_label; responder; resp_label } ->
      let* () = check_pid i requester in
      let* () = check_pid i responder in
      let* () = check_label i requester req_label in
      check_label i responder resp_label
  in
  let rec go i = function
    | [] -> Ok ()
    | ev :: rest -> (
      match check_event i ev with Ok () -> go (i + 1) rest | Error _ as e -> e)
  in
  go 1 events

(* -- replay ---------------------------------------------------------------------

   One event does not always pin down one successor (a [sys:dequeue] is
   offered once per buffering process, a Local_op may offer several
   successors under one label), hence the backtracking. *)

let replay ~norm ~lands start chain =
  let deepest = ref 0 in
  let rec go sys depth acc = function
    | [] -> Some (List.rev acc)
    | (key, ev) :: rest ->
      let fired = ref false in
      let found =
        List.find_map
          (fun (ev', sys') ->
            if ev' <> ev then None
            else
              let sys' = norm sys' in
              if not (lands sys' key) then None
              else begin
                fired := true;
                go sys' (depth + 1) ({ event = ev; state = sys' } :: acc) rest
              end)
          (Cimp.System.steps sys)
      in
      if not !fired then deepest := max !deepest depth;
      found
  in
  match go start 0 [] chain with Some steps -> Ok steps | None -> Error !deepest

(* Imported schedules were recorded on normal forms (the checkers'
   default), so they are replayed through [Cimp.System.normalize]. *)
let import sys j =
  let ( let* ) = Result.bind in
  let* broken, events = schedule_of_json j in
  let* () = validate_events sys events in
  let initial = Cimp.System.normalize sys in
  match
    replay ~norm:Cimp.System.normalize
      ~lands:(fun _ () -> true)
      initial
      (List.map (fun ev -> ((), ev)) events)
  with
  | Ok steps -> Ok { initial; steps; broken }
  | Error i ->
    let names = Array.init (Cimp.System.n_procs initial) (Cimp.System.name initial) in
    Error
      (Fmt.str
         "replay diverged: event %d of %d (%a) is not enabled in the replayed state — the \
          trace was recorded on a different system or without normalization"
         (i + 1) (List.length events) (Cimp.System.pp_event names) (List.nth events i))

(* Render just the event schedule; state dumps are the callers' business
   (they know the data-state type). *)
let pp ppf tr =
  let names =
    Array.init (Cimp.System.n_procs tr.initial) (Cimp.System.name tr.initial)
  in
  Fmt.pf ppf "@[<v>violated: %s (after %d steps)@,%a@]" tr.broken (length tr)
    (Fmt.list ~sep:Fmt.cut (fun ppf (i, s) ->
         Fmt.pf ppf "%3d. %a" i (Cimp.System.pp_event names) s.event))
    (List.mapi (fun i s -> (i + 1, s)) tr.steps)

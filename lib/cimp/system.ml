(* The CIMP system semantics of Fig. 8: flat parallel composition with
   top-level interleaving and rendezvous, no action hiding.

   A global state maps process names to their local states; we index
   processes by small integers and keep display names alongside.  All
   processes share one local data-state type ['s] (as in the Isabelle
   development, where a single record covers the collector, the mutators,
   and the system process). *)

type ('a, 'v, 's) t = {
  names : string array;  (* display names, e.g. "gc", "mut0", "sys" *)
  procs : ('a, 'v, 's) Com.config array;
}

type pid = int

(* What a global step did, for trace reconstruction (Check.Trace). *)
type event =
  | Tau of pid * Label.t
  | Rendezvous of { requester : pid; req_label : Label.t; responder : pid; resp_label : Label.t }

(* The process that initiated an event: the stepping process for a tau,
   the requester for a rendezvous.  The owner is the only process whose
   *program* advances past a choice point — responders are reactive. *)
let event_owner = function
  | Tau (p, _) -> p
  | Rendezvous { requester; _ } -> requester

(* Every process whose configuration a step may change: the stepping
   process for a tau, both parties of a rendezvous.  This is the write
   footprint at the granularity of process configurations, which (with
   per-process data isolation) is what the independence relation of
   partial-order reduction needs. *)
let event_pids = function
  | Tau (p, _) -> [ p ]
  | Rendezvous { requester; responder; _ } -> [ requester; responder ]

let pp_event names ppf = function
  | Tau (p, l) -> Fmt.pf ppf "%s: %a" names.(p) Label.pp l
  | Rendezvous { requester; req_label; responder; resp_label } ->
    Fmt.pf ppf "%s: %a <-> %s: %a" names.(requester) Label.pp req_label names.(responder) Label.pp
      resp_label

let make names procs =
  if Array.length names <> Array.length procs then invalid_arg "System.make: length mismatch";
  { names; procs }

let n_procs sys = Array.length sys.procs
let proc sys p = sys.procs.(p)
let name sys p = sys.names.(p)

(* Functional update of one or two processes. *)
let set1 sys p cfg =
  let procs = Array.copy sys.procs in
  procs.(p) <- cfg;
  { sys with procs }

let set2 sys p cfg_p q cfg_q =
  let procs = Array.copy sys.procs in
  procs.(p) <- cfg_p;
  procs.(q) <- cfg_q;
  { sys with procs }

(* All successors of a global state, with the event that produced each.

   First rule of Fig. 8: any process takes a tau step.  Second rule:
   a requester p and a distinct responder q synchronise; p's REQUEST
   computes alpha from p's state, q's RESPONSE, told that p is asking,
   non-deterministically picks a successor state and a value beta, and
   p's continuation absorbs beta.  The rule names the requester, so this
   is the one place process identity is decided.
   Each process's offers are read once, and a request is paired with the
   response offers already in hand. *)
let steps sys =
  let n = n_procs sys in
  let offers = Array.map Com.offers sys.procs in
  let acc = ref [] in
  for p = n - 1 downto 0 do
    List.iter
      (function Com.Tau (l, cfg') -> acc := (Tau (p, l), set1 sys p cfg') :: !acc | _ -> ())
      offers.(p);
    List.iter
      (function
        | Com.Req (req_label, alpha, k) ->
          for q = 0 to n - 1 do
            if q <> p then
              List.iter
                (function
                  | Com.Resp (resp_label, respond) ->
                    let ev = Rendezvous { requester = p; req_label; responder = q; resp_label } in
                    List.iter
                      (fun (cfg_q', beta) -> acc := (ev, set2 sys p (k beta) q cfg_q') :: !acc)
                      (respond p alpha)
                  | _ -> ())
                offers.(q)
          done
        | _ -> ())
      offers.(p)
  done;
  !acc

(* [sys] with process [p]'s configuration replaced by [f env p cfg],
   copying the process array at most once, on the first configuration
   [f] changes (by [!=]); [sys] itself when it changes none.  [env] is
   handed through so that each caller's [f] is a closed function, which
   costs no allocation per call. *)
let update_procs sys env f =
  let procs = ref sys.procs in
  for p = 0 to Array.length sys.procs - 1 do
    let cfg = sys.procs.(p) in
    let cfg' = f env p cfg in
    if cfg' != cfg then begin
      if !procs == sys.procs then procs := Array.copy sys.procs;
      !procs.(p) <- cfg'
    end
  done;
  if !procs == sys.procs then sys else { sys with procs = !procs }

(* Normal form under definite local steps: run every process's definite tau
   steps to quiescence.  A definite tau reads and writes only its own
   process's configuration, so each process settles on its own.  States in
   normal form never rest at a deterministic register/control operation;
   see Com.definite_tau for the soundness argument.  The checker explores
   normal forms only, which is the atomicity coarsening the paper's
   evaluation-context semantics licenses. *)
let rec settle cfg = match Com.definite_tau cfg with Some cfg -> settle cfg | None -> cfg

let normalize sys = update_procs sys () (fun () _ cfg -> settle cfg)

(* The paper's [at p l]: does control of process p reside at label l? *)
let at sys p l = Com.exists_at (Label.equal l) sys.procs.(p)

(* Surgical replacement of one process's data state (testing and
   experiment drivers; the step functions never need it). *)
let map_data sys p f =
  let cfg = sys.procs.(p) in
  set1 sys p (Com.with_data cfg (f cfg.Com.data))

(* Every process's data replaced by [f p cfg]; [Com.with_data] keeps a
   configuration whose payload comes back physically unchanged. *)
let rewrite_data sys f = update_procs sys f (fun f p cfg -> Com.with_data cfg (f p cfg))

(* Control fingerprint: the label spine of every process's frame stack.
   With globally unique labels this characterises global control state. *)
let control_fingerprint sys =
  Array.to_list (Array.map (fun cfg -> Com.stack_labels cfg.Com.stack) sys.procs)

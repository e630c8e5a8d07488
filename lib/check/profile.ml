(* The checkers' one instrument.  See profile.mli. *)

type layer = Successors | Normalise | Fingerprint | Insert | Invariants | Push

let slot = function
  | Successors -> 0 | Normalise -> 1 | Fingerprint -> 2 | Insert -> 3 | Invariants -> 4 | Push -> 5

type 'sys t = {
  live : bool;
  names : string array;
  preds : ('sys -> bool) array;
  evals : int array;  (* per invariant *)
  inv_ns : int array;  (* per invariant *)
  ns : int array;  (* per layer; [Invariants] is the sum of [inv_ns] *)
  calls : int array;  (* per layer *)
  gc0 : Gc.stat;
  check : 'sys -> int;
}

let rec first_failing preds sys i =
  if i = Array.length preds then -1
  else if preds.(i) sys then first_failing preds sys (i + 1)
  else i

let rec first_failing_clocked preds evals inv_ns sys i =
  if i = Array.length preds then -1
  else begin
    let t0 = Obs.Clock.monotonic_ns () in
    let ok = preds.(i) sys in
    inv_ns.(i) <- inv_ns.(i) + (Obs.Clock.monotonic_ns () - t0);
    evals.(i) <- evals.(i) + 1;
    if ok then first_failing_clocked preds evals inv_ns sys (i + 1) else i
  end

let make ~live names preds ~gc0 =
  let n = Array.length preds in
  let evals = Array.make n 0 and inv_ns = Array.make n 0 in
  let check =
    if live then fun sys -> first_failing_clocked preds evals inv_ns sys 0
    else fun sys -> first_failing preds sys 0
  in
  { live; names; preds; evals; inv_ns; ns = Array.make 6 0; calls = Array.make 6 0; gc0; check }

let create ~live invariants =
  make ~live
    (Array.of_list (List.map fst invariants))
    (Array.of_list (List.map snd invariants))
    ~gc0:(Gc.quick_stat ())

(* one call's wall time and count, into layer slot [i] *)
let book p i t0 =
  p.ns.(i) <- p.ns.(i) + (Obs.Clock.monotonic_ns () - t0);
  p.calls.(i) <- p.calls.(i) + 1

let wrap p layer f =
  if not p.live then f
  else
    let i = slot layer in
    fun x ->
      let t0 = Obs.Clock.monotonic_ns () in
      let r = f x in
      book p i t0;
      r

let wrap4 p layer f =
  if not p.live then f
  else
    let i = slot layer in
    fun a b c d ->
      let t0 = Obs.Clock.monotonic_ns () in
      let r = f a b c d in
      book p i t0;
      r

let check p = p.check
let name p i = p.names.(i)
let sum a = Array.fold_left ( + ) 0 a

let ns p = function Invariants -> sum p.inv_ns | layer -> p.ns.(slot layer)

let merge = function
  | [] -> invalid_arg "Profile.merge: no profile"
  | first :: _ as ps ->
    let m = make ~live:first.live first.names first.preds ~gc0:first.gc0 in
    let add into from = Array.iteri (fun i v -> into.(i) <- into.(i) + v) from in
    List.iter
      (fun p ->
        add m.evals p.evals;
        add m.inv_ns p.inv_ns;
        add m.ns p.ns;
        add m.calls p.calls)
      ps;
    m

let report obs ~checker ?domain ~states ~transitions ~elapsed ~busy_s p =
  if Obs.Reporter.enabled obs then begin
    let gc1 = Gc.quick_stat () and gc0 = p.gc0 in
    let secs layer = Obs.Clock.ns_to_s (ns p layer) in
    let calls layer = Obs.Json.Int p.calls.(slot layer) in
    let succ_s = secs Successors and norm_s = secs Normalise and fp_s = secs Fingerprint in
    let ins_s = secs Insert and inv_s = secs Invariants in
    Obs.Reporter.emit obs Obs.Record.profile
      ((("checker", Obs.Json.String checker)
        :: (match domain with None -> [] | Some d -> [ ("domain", Obs.Json.Int d) ]))
      @ [
          ("states", Obs.Json.Int states);
          ("transitions", Obs.Json.Int transitions);
          ("elapsed_s", Obs.Json.Float elapsed);
          ("succ_gen_s", Obs.Json.Float succ_s);
          ("succ_gen_calls", calls Successors);
          ("normalize_s", Obs.Json.Float norm_s);
          ("fingerprint_s", Obs.Json.Float fp_s);
          ("fingerprint_calls", calls Fingerprint);
          ("seen_insert_s", Obs.Json.Float ins_s);
          ("invariant_s", Obs.Json.Float inv_s);
          ("invariant_evals", Obs.Json.Int (sum p.evals));
          ( "other_s",
            Obs.Json.Float (Float.max 0. (busy_s -. succ_s -. norm_s -. fp_s -. ins_s -. inv_s)) );
          ("minor_words", Obs.Json.Float (gc1.Gc.minor_words -. gc0.Gc.minor_words));
          ("promoted_words", Obs.Json.Float (gc1.Gc.promoted_words -. gc0.Gc.promoted_words));
          ("major_words", Obs.Json.Float (gc1.Gc.major_words -. gc0.Gc.major_words));
          ("minor_collections", Obs.Json.Int (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
          ("major_collections", Obs.Json.Int (gc1.Gc.major_collections - gc0.Gc.major_collections));
          ("heap_words", Obs.Json.Int gc1.Gc.heap_words);
        ])
  end

let report_invariants obs ~first_violation p =
  if Obs.Reporter.enabled obs then
    Array.iteri
      (fun i name ->
        Obs.Reporter.emit obs Obs.Record.invariant
          [
            ("name", Obs.Json.String name);
            ("evals", Obs.Json.Int p.evals.(i));
            ("time_s", Obs.Json.Float (Obs.Clock.ns_to_s p.inv_ns.(i)));
            ("violated", Obs.Json.Bool (first_violation = Some name));
          ])
      p.names

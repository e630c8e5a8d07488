(* Per-invariant eval counts and cumulative wall time.  See inv_stats.mli. *)

type 'sys t = {
  check : 'sys -> string option;
  report : Obs.Reporter.t -> first_violation:string option -> unit;
  totals : unit -> int * float;
}

let plain invariants =
  {
    check =
      (fun sys ->
        match List.find_opt (fun (_, p) -> not (p sys)) invariants with
        | None -> None
        | Some (name, _) -> Some name);
    report = (fun _ ~first_violation:_ -> ());
    totals = (fun () -> (0, 0.));
  }

let instrumented invariants =
  let invs = Array.of_list invariants in
  let n = Array.length invs in
  let evals = Array.make n 0 in
  let time = Array.make n 0. in
  let check sys =
    let rec go i =
      if i >= n then None
      else begin
        let name, p = invs.(i) in
        let t = Unix.gettimeofday () in
        let ok = p sys in
        time.(i) <- time.(i) +. (Unix.gettimeofday () -. t);
        evals.(i) <- evals.(i) + 1;
        if ok then go (i + 1) else Some name
      end
    in
    go 0
  in
  let report obs ~first_violation =
    Array.iteri
      (fun i (name, _) ->
        Obs.Reporter.emit obs Obs.Record.invariant
          [
            ("name", Obs.Json.String name);
            ("evals", Obs.Json.Int evals.(i));
            ("time_s", Obs.Json.Float time.(i));
            ("violated", Obs.Json.Bool (first_violation = Some name));
          ])
      invs
  in
  let totals () =
    (Array.fold_left ( + ) 0 evals, Array.fold_left ( +. ) 0. time)
  in
  { check; report; totals }

let make ~obs invariants =
  if Obs.Reporter.enabled obs then instrumented invariants else plain invariants

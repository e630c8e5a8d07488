(* x86-TSO litmus tour: run the classic tests as clients of the Sys process
   the collector model is checked on (Fig. 9), show the relaxed behaviours
   TSO admits beyond SC, and how MFENCE / LOCK'd instructions tame them —
   the mechanisms behind the collector's handshake fences and marking CAS
   (Section 2.4).

     dune exec examples/tso_litmus.exe *)

let banner title = Fmt.pr "@.== %s ==@." title

let show t =
  let v = Tso.Litmus.run t in
  Fmt.pr "@.%s — %s@." t.Tso.Litmus.name t.Tso.Litmus.description;
  Fmt.pr "  TSO outcomes: %a@."
    Fmt.(list ~sep:sp Tso.Litmus.pp_outcome)
    v.Tso.Litmus.tso_outcomes;
  Fmt.pr "  SC outcomes:  %a@."
    Fmt.(list ~sep:sp Tso.Litmus.pp_outcome)
    v.Tso.Litmus.sc_outcomes;
  Fmt.pr "  target %a: %s under TSO, %s under SC (published: %s/%s) %s@." Tso.Litmus.pp_outcome
    t.Tso.Litmus.target
    (if v.Tso.Litmus.tso_observed then "observed" else "forbidden")
    (if v.Tso.Litmus.sc_observed then "observed" else "forbidden")
    (if t.Tso.Litmus.allowed_tso then "observed" else "forbidden")
    (if t.Tso.Litmus.allowed_sc then "observed" else "forbidden")
    (if v.Tso.Litmus.ok then "OK" else "MISMATCH")

let () =
  banner "store buffering: the behaviour the collector must survive";
  show Tso.Catalog.sb;
  banner "the handshake store fence restores order";
  show Tso.Catalog.sb_mfence;
  banner "so does the marking CAS (a LOCK'd instruction)";
  show Tso.Catalog.sb_xchg;
  banner "store-buffer forwarding (a thread sees its own stores early)";
  show Tso.Catalog.n6;
  banner "what TSO still guarantees";
  show Tso.Catalog.mp;
  show Tso.Catalog.corr;
  banner "full catalogue";
  List.iter (fun v -> Fmt.pr "%a@." Tso.Litmus.pp_verdict v) (Tso.Catalog.run_all ())

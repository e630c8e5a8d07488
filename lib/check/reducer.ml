(* State-space reduction hook.

   The checkers (Explore, Par_explore, Random_walk) accept an optional
   reducer that overrides the two operations reduction can soundly
   intercept:

   - [fingerprint] maps a state to the fingerprint of a *canonical
     representative* (e.g. with symmetric processes sorted, or dead
     registers nulled).  The checker dedups on this fingerprint and
     expands the [canon_state] representative of each fresh class;
     counterexample replay still runs the real transition relation.

   - [successors] returns a (sound) subset of [Cimp.System.steps] — e.g.
     a partial-order-reduction ample set.  It must be empty only when the
     full successor set is empty, so deadlock counting stays exact.

   - [canon_state] maps a state to the *executable* canonical
     representative the checker expands in its place (for the GC model:
     dead registers nulled; the pid permutation stays fingerprint-only:
     a permuted state runs, but expanding the sorted representative
     instead would move the reduced counts).  It must preserve the
     fingerprint ([fingerprint (canon_state s) = fingerprint s]) and be
     behaviour-equivalent modulo the fingerprint: successors of the
     representative must cover the same canonical classes as successors
     of any state it stands for.  This makes the explored graph the
     quotient graph — the visited class set no longer depends on which
     concrete representative happens to win a scheduling race — which is
     what lets a certificate's transition-closure obligations be
     discharged deterministically by an independent validator
     (lib/certify).  [Fun.id] when the reduction has no such
     normalization.

   When no reducer is supplied, behaviour is bit-for-bit the unreduced
   checker.  The concrete reducers live in [lib/reduce] (the generic
   machinery) and [lib/core] (the GC-model-specific symmetry/liveness
   specification); this module only defines the interface so that [check]
   does not depend on either.

   Reducers built on register-liveness canonicalization are typically
   only sound for normal-form exploration (the default): at non-rest
   points a "dead" register may still be live.  See the documentation of
   the concrete reducer for its own preconditions.

   The three counters are [Atomic.t] so one reducer value can be shared
   by the parallel checker's domains. *)

type ('a, 'v, 's) t = {
  name : string;  (* "sym", "por", "all", ... — reported in JSONL records *)
  fingerprint : ('a, 'v, 's) Cimp.System.t -> Fingerprint.t;
  successors :
    ('a, 'v, 's) Cimp.System.t -> (Cimp.System.event * ('a, 'v, 's) Cimp.System.t) list;
  canon_state : ('a, 'v, 's) Cimp.System.t -> ('a, 'v, 's) Cimp.System.t;
  sym_permuted : int Atomic.t;  (* states whose canonical pid order differed *)
  reg_nulled : int Atomic.t;  (* states with at least one dead register nulled *)
  deferred : int Atomic.t;  (* transitions pruned by the ample-set selector *)
}

let fp_of reducer sys =
  match reducer with None -> Fingerprint.of_system sys | Some r -> r.fingerprint sys

let succs_of reducer sys =
  match reducer with None -> Cimp.System.steps sys | Some r -> r.successors sys

let canon_of reducer sys = match reducer with None -> sys | Some r -> r.canon_state sys

let name_of = function None -> "none" | Some r -> r.name

(* The "reduction" JSONL record: emitted once per checker run when a
   reducer is active, next to the existing "outcome" record.  The two
   canonicalization counters are written only by checkers that call
   [fingerprint]; a walk takes only [successors], so they would read 0. *)
let report obs ~checker ~fingerprints reducer ~states ~transitions ~elapsed =
  match reducer with
  | None -> ()
  | Some r ->
    if Obs.Reporter.enabled obs then
      let canonical =
        if fingerprints then
          [
            ("sym_permuted", Obs.Json.Int (Atomic.get r.sym_permuted));
            ("reg_nulled", Obs.Json.Int (Atomic.get r.reg_nulled));
          ]
        else []
      in
      Obs.Reporter.emit obs Obs.Record.reduction
        ([
           ("checker", Obs.Json.String checker);
           ("reduce", Obs.Json.String r.name);
           ("states", Obs.Json.Int states);
           ("transitions", Obs.Json.Int transitions);
         ]
        @ canonical
        @ [
            ("deferred_transitions", Obs.Json.Int (Atomic.get r.deferred));
            ("elapsed_s", Obs.Json.Float elapsed);
          ])

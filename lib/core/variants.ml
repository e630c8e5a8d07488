(* Named variants of the collector: the paper's algorithm, the ablations
   that remove one load-bearing mechanism each (the checker must find a
   counterexample), and the Section 4 "Observations" (conjectured-safe
   optimisations the checker probes).

   [expectation] records what a sound checker should report, which is what
   the E1/E6/E10 experiment tables assert. *)

type expectation =
  | Safe  (* all safety invariants hold on every explored instance *)
  | Unsafe  (* some safety invariant must fail on small instances *)
  | Conjectured_safe  (* paper Section 4: expected safe, not proved there *)

type t = {
  name : string;
  description : string;
  expectation : expectation;
  tweak : Config.t -> Config.t;
}

let paper =
  {
    name = "paper";
    description = "the verified collector exactly as in Figs. 2, 5, 6";
    expectation = Safe;
    tweak = Fun.id;
  }

let no_deletion_barrier =
  {
    name = "no-deletion-barrier";
    description = "Fig. 1's scenario: without the snapshot barrier a mutator hides live objects";
    expectation = Unsafe;
    tweak = (fun c -> { c with Config.deletion_barrier = false });
  }

let no_insertion_barrier =
  {
    name = "no-insertion-barrier";
    description =
      "without the incremental-update barrier a store behind the wavefront escapes the snapshot";
    expectation = Unsafe;
    tweak = (fun c -> { c with Config.insertion_barrier = false });
  }

let no_barriers =
  {
    name = "no-barriers";
    description = "both write barriers removed: a plain non-concurrent mark-sweep run concurrently";
    expectation = Unsafe;
    tweak = (fun c -> { c with Config.deletion_barrier = false; insertion_barrier = false });
  }

let alloc_white =
  {
    name = "alloc-white";
    description = "ignore f_A: objects allocated during marking stay white and get swept";
    expectation = Unsafe;
    tweak = (fun c -> { c with Config.alloc_white = true });
  }

let no_fences =
  {
    name = "no-fences";
    description = "drop the four handshake MFENCEs of Section 2.4 (store buffers never forced out)";
    expectation = Unsafe;
    tweak = (fun c -> { c with Config.handshake_fences = false });
  }

let no_cas =
  {
    name = "no-cas";
    description =
      "mark without the LOCK'd CAS: safe for marks (idempotent) but grey ownership is no longer \
       exclusive, breaking valid_W_inv";
    expectation = Safe (* for the *safety* invariants; valid_W_inv is expected to fail *);
    tweak = (fun c -> { c with Config.cas_mark = false });
  }

let sc_memory =
  {
    name = "sc-memory";
    description = "sequentially consistent memory (every store commits at once): the SC baseline";
    expectation = Safe;
    tweak = (fun c -> { c with Config.memory = Config.SC });
  }

let pso_memory =
  {
    name = "pso-memory";
    description =
      "extension: partial store order (per-location FIFO only) — does the collector survive \
       the first weakening toward ARM/POWER with its existing fences and CAS?";
    expectation = Conjectured_safe;  (* an open question; the checker reports *)
    tweak = (fun c -> { c with Config.memory = Config.PSO });
  }

(* Section 4, Observations. *)

let o1_skip_init_handshakes =
  {
    name = "o1-skip-init-handshakes";
    description =
      "Observation 1: remove the two middle initialization handshakes (nop2, nop3) on x86-TSO";
    expectation = Conjectured_safe;
    tweak = (fun c -> { c with Config.skip_init_handshakes = true });
  }

let o2_insertion_skip_after_roots =
  {
    name = "o2-ins-barrier-off-after-roots";
    description =
      "Observation 2: skip the insertion barrier once the mutator's roots are marked, at the \
       cost of an extra branch";
    expectation = Conjectured_safe;
    tweak = (fun c -> { c with Config.insertion_skip_after_roots = true });
  }

let ablations =
  [ no_deletion_barrier; no_insertion_barrier; no_barriers; alloc_white; no_fences ]

let observations = [ o1_skip_init_handshakes; o2_insertion_skip_after_roots ]

let all = (paper :: ablations) @ [ no_cas; sc_memory; pso_memory ] @ observations

let by_name n = List.find_opt (fun v -> v.name = n) all

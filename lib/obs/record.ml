(* The JSONL record catalogue; see record.mli.  Field names are one
   space-separated string per declaration. *)

type t = {
  name : string;
  emitter : string;
  fields : string list;
  optional : string list;
  doc : string;
}

let declare ?(optional = "") name emitter fields doc =
  let names s = List.filter (( <> ) "") (String.split_on_char ' ' s) in
  { name; emitter; fields = names fields; optional = names optional; doc }

(* -- the checkers ------------------------------------------------------------- *)

let heartbeat_explore =
  declare "heartbeat" "explorer (`Check.Par_explore`, each worker)"
    "checker domain frontier states max_states transitions states_per_sec heap_words \
     bytes_resident mem_budget segments spilled_states bytes_resident_per_shard"
    "One worker's progress every `heartbeat_every` expansions, with store occupancy."

let heartbeat_walk =
  declare "heartbeat" "walker (`Check.Random_walk`)" ~optional:"domain"
    "checker steps runs dead_end_restarts steps_per_sec heap_words"
    "Progress of one walk every `heartbeat_every` steps; swarm walkers add their `domain`."

let invariant =
  declare "invariant" "explorer / walker (`Check.Profile`)" "name evals time_s violated"
    "One per invariant at the end of a run, whatever `--jobs` is: evaluations, time, and \
     first-violation flag."

let profile =
  declare "profile" "explorer (summed over workers) / walker" ~optional:"domain"
    "checker states transitions elapsed_s succ_gen_s succ_gen_calls normalize_s fingerprint_s \
     fingerprint_calls seen_insert_s invariant_s invariant_evals other_s minor_words \
     promoted_words major_words minor_collections major_collections heap_words"
    "Wall time per layer, the rest of the busy time as `other_s`, and GC deltas; walks \
     report 0 for the fingerprint and the seen-set insert."

let reduction =
  declare "reduction" "explorer / walker, when `--reduce` is not `none`"
    ~optional:"sym_permuted reg_nulled"
    "checker reduce states transitions deferred_transitions elapsed_s"
    "What the reducer collapsed over a run, once per run (a swarm's counts its total steps); \
     only explorers, which fingerprint states, report `sym_permuted` and `reg_nulled`."

let outcome_explore =
  declare "outcome" "explorer (`Check.Par_explore`)"
    "checker jobs states transitions depth deadlocks truncated violation elapsed_s \
     states_per_sec"
    "The final result of an exhaustive run: counts, verdict, wall time and throughput."

let outcome_walk =
  declare "outcome" "walker / swarm (`Check.Random_walk`)" ~optional:"domain jobs"
    "checker steps runs dead_end_restarts violation elapsed_s steps_per_sec"
    "A walk's result; a swarm adds one per walker (`domain`) to its total (`jobs`)."

let scaling_detail =
  declare "scaling-detail" "explorer (`Check.Par_explore`)"
    "checker states transitions states_per_sec jobs wall_s busy_s serial_s serial_fraction \
     effective_parallelism amdahl_speedup_at_jobs busy_per_domain_s idle_wait_s \
     idle_per_domain_s steals steal_fails stolen_tasks termination_probes lock_acquires \
     lock_contended lock_wait_s lock_max_wait_s shard_wait_s deque_wait_s mem_budget \
     bytes_resident bytes_resident_per_shard peak_bytes_resident spills merges segments \
     spilled_entries spilled_states disk_bytes disk_probes disk_hits bloom_checks \
     bloom_negatives segment_mem_bytes"
    "End-of-run busy/idle, stealing, lock-wait, Amdahl (DESIGN.md 10-11) and store counters."

let checkpoint =
  declare "checkpoint" "explorer, with `--checkpoint`" "checker seq states frontier dir"
    "One per published snapshot, with its states, pending tasks and directory."

let crosscheck =
  declare "crosscheck" "`gcmodel crosscheck` (`Reduce.Crosscheck`)"
    "reduce full_states reduced_states full_transitions reduced_transitions full_truncated \
     reduced_truncated full_violation reduced_violation full_ce_length reduced_ce_length \
     elapsed_s"
    "A full and a reduced run of one instance, side by side."

(* -- the concrete runtime ----------------------------------------------------- *)

let gc_cycle =
  declare "gc-cycle" "runtime collector (`Runtime.Rcollector`)"
    "cycle elapsed_s mark_s sweep_s hs_s hs_latency_s marks cas_attempts cas_wins \
     barrier_fast_path barrier_fast_path_rate freed live"
    "One per collection cycle: phase split, handshake latencies, CASes, freed and live."

let runtime_heartbeat =
  declare "runtime-heartbeat" "runtime collector (`Runtime.Rcollector`)"
    "cycles live allocs frees alloc_per_sec alloc_stalls hs hs_ack_p99_ns pause \
     barrier_fast_path cas_attempts"
    "About every 100 ms: heap counters and live handshake, ack and pause percentiles."

let harness =
  declare "harness" "`gcmodel harness` (`Runtime.Harness`)"
    "n_muts duration_s barriers cycles ops allocs frees cas_attempts cas_wins \
     barrier_fast_path hs_rounds root_audits latency live_at_end violation"
    "End-of-run totals, verdict and `latency` section of the concrete runtime."

(* -- the drivers -------------------------------------------------------------- *)

let violation =
  declare "violation" "`gcmodel` / `cimpc`" "trace"
    "A counterexample as a replayable `trace` (`gcmodel explain --trace` reads it)."

let explanation =
  declare "explanation" "`gcmodel explain` / `--explain`" "report"
    "The full forensics `report` of a counterexample."

let recheck =
  declare "recheck" "`gcmodel recheck`" "dir states transitions max_depth elapsed_s table_bytes"
    "A certificate validated without the explorer."

let campaign =
  declare "campaign" "`gcmodel campaign` (`Mutate.Campaign`)"
    ~optional:"invariant conjunct scenario states_to_kill time_to_kill ce_length closed error"
    "mutant operator site expected_equivalent status states_total elapsed_total scenarios_run"
    "One per mutant; `status` is `killed`, `survived` (with `closed`) or `error`."

let certificate =
  declare "certificate" "`gcmodel campaign --certificates`" ~optional:"dir states error"
    "mutant scenario"
    "One per closed survivor and scenario: where it was written, or the `error`."

let experiment =
  declare "experiment" "`experiments.exe`" "name title"
    "A section marker before each experiment's own records."

let litmus =
  declare "litmus" "`litmus_main.exe`"
    "name ok allowed_tso allowed_sc observed_tso observed_sc tso_states sc_states"
    "One per litmus test: allowed and observed under TSO and SC, and state counts."

let outcome_litmus =
  declare "outcome" "`litmus_main.exe`" "checker tests mismatches"
    "Tests run and classifications that did not match."

let all =
  [
    heartbeat_explore; heartbeat_walk; invariant; profile; reduction; outcome_explore;
    outcome_walk; scaling_detail; checkpoint; crosscheck; gc_cycle; runtime_heartbeat; harness;
    violation; explanation; recheck; campaign; certificate; experiment; litmus; outcome_litmus;
  ]

(* -- the emit-time check ------------------------------------------------------ *)

let check r fields =
  let refuse what k =
    invalid_arg (Printf.sprintf "record %s (%s): %s field %s" r.name r.emitter what k)
  in
  let rec go = function
    | [] -> ()
    | (k, _) :: rest ->
      if List.mem_assoc k rest then refuse "duplicated" k;
      if not (List.mem k r.fields || List.mem k r.optional) then refuse "undeclared" k;
      go rest
  in
  go fields;
  List.iter (fun k -> if not (List.mem_assoc k fields) then refuse "missing" k) r.fields

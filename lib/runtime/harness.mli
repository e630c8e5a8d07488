(** Stress harness for the concrete runtime: one collector domain cycling
    continuously, [n_muts] mutator domains running a workload for a
    wall-clock duration, with on-line root validation and a final
    stop-the-world reachability audit. *)

type stats = {
  cycles : int;
  ops : int;
  allocs : int;
  frees : int;
  cas_attempts : int;
  cas_wins : int;
  barrier_fast_path : int;
  hs_rounds : int;  (** handshake rounds completed by the collector *)
  live_at_end : int;
  alloc_stalls : int;  (** free-list-empty episodes across all mutators *)
  root_audits : int;
      (** full root scans, summed over the mutators: how often a safe
          point's audit could not be amortised ({!Rmutator.root_audits}) *)
  latency : Obs.Json.t;
      (** structured latency section: handshake round and per-mutator ack
          percentiles, barrier slow-path, allocation and stall-wait
          histograms, and the per-phase (mark/sweep/handshake) gc-cycle
          breakdown — all HDR snapshots ({!Obs.Latency}) with exact
          counts *)
  violation : string option;  (** [None] = SAFE *)
}

val pp_stats : stats Fmt.t

val reachable_set : Rheap.t -> Rheap.rf list -> bool array
(** Reachability over the concrete heap; only sound when the world is
    stopped. *)

val run :
  ?n_muts:int ->
  ?n_slots:int ->
  ?n_fields:int ->
  ?duration:float ->
  ?barriers:bool ->
  ?seed:int ->
  ?workload:Rmutator.workload ->
  ?trace_pause:float ->
  ?obs:Obs.Reporter.t ->
  ?tracer:Obs.Tracing.t ->
  ?latency:bool ->
  ?co_interval_ns:int ->
  unit ->
  stats
(** Run the harness.  [barriers:false] ablates the write barriers (the
    Lists workload then faults within cycles); [trace_pause] widens the
    collector's tracing window for few-core machines.  [latency:false]
    disables the HDR latency instrumentation (every site reduces to one
    branch); a positive [co_interval_ns] applies coordinated-omission
    back-fill to the collector's handshake-round history, treating rounds
    as a periodic operation with that expected interval.  When [obs] is an
    enabled reporter, the collector emits one [gc-cycle] record per cycle
    (handshake round latencies, mark/sweep/handshake phase split, marks,
    CAS attempts/wins, barrier fast-path rate), a [runtime-heartbeat]
    record every ~100 ms (live percentiles, allocation throughput, stall
    counts) and the harness a final [harness] record.  When
    [tracer] is live (create it with [n_muts + 1] lanes), lane 0 carries
    the collector's handshake-round, mark, sweep and gc-cycle spans and
    lanes 1..n_muts one whole-lifetime span per mutator domain.
    @raise Invalid_argument naming the value when [n_fields < 1] or
    [n_slots < n_muts] (each mutator is seeded with one root). *)

(** Certificate emission: turn a finished run's reach table into a
    certificate directory ({!Certificate}). *)

val of_store : Store.Tiered.t -> (Store.Segment.entry array * int, string) result
(** The engine's tiered seen-set as a certificate table: its
    newest-wins view ({!Store.Tiered.iter}), sorted, parent and event
    zeroed, with its max depth ({!Store.Tiered.max_depth}).  Only valid
    after a one-worker run ({!Check.Par_explore.run} at [jobs = 1], a
    FIFO BFS), whose depth stamps are BFS distances and whose visited
    class set does not depend on a schedule; {!explore} is that run.
    [Error] if any state records a violation or was never expanded
    (truncated run) — such runs are not certifiable. *)

val refusal : ('a, 'v, 's) Check.Explore.outcome -> string option
(** Why a run's outcome cannot be certified — it was truncated or found
    a violation — or [None]. *)

val explore :
  ?max_states:int ->
  ?obs:Obs.Reporter.t ->
  ?tracer:Obs.Tracing.t ->
  ?reducer:('a, 'v, 's) Check.Reducer.t ->
  ?mem_budget:int ->
  ?spill_dir:string ->
  ?checkpoint:string * int ->
  ?run_config:Obs.Json.t ->
  invariants:(string * (('a, 'v, 's) Cimp.System.t -> bool)) list ->
  ('a, 'v, 's) Cimp.System.t ->
  ('a, 'v, 's) Check.Explore.outcome * (Store.Segment.entry array * int, string) result
(** The certifying run: {!Check.Par_explore.run} with one worker (the
    optional arguments are passed through), its store dumped by
    {!of_store}.  Returns the run's outcome and the certificate table,
    or [Error] naming why the run is not certifiable ({!refusal}, or a
    store entry {!of_store} refuses).  Every producer uses it, so a
    table is a pure function of (configuration, reduction mode) whatever
    [--jobs] the caller's own verdict run used. *)

val write :
  dir:string ->
  config_hash:string ->
  reduce:string ->
  invariant_names:string list ->
  run_config:Obs.Json.t ->
  max_depth:int ->
  Store.Segment.entry array ->
  (Certificate.header, string) result
(** Emit [table.seg] and fsync it, then publish [CERT.json]
    ({!Certificate.write_header}) into [dir] (created if missing).  The
    header is published last, so a crash at any step never leaves a
    parsable certificate that does not validate.  [Error] on an empty
    table or a table without a unique depth-0 root entry. *)

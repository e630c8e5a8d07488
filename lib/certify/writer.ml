(* Certificate emission.

   One table source: [explore] runs the engine with one worker and
   [of_store] dumps its tiered seen-set (tier-0 shards plus any spilled
   segments, min-depth / or-expanded merged per fingerprint).  The
   one-worker pool is a FIFO BFS, so the stored depth stamps are BFS
   distances and the dump already is the canonical table.  Runs at
   jobs > 1 cannot be dumped: their visited class set can differ across
   schedules at the symmetry reduction's local-automorphism boundary, so
   their callers certify with a second, one-worker run.

   [write] emits table.seg (one globally sorted segment), fsyncs it, and
   then publishes CERT.json binding the configuration hash, reduction
   mode, invariant catalogue, obligations and the table digest
   (Store.Fs.publish: fsynced, renamed into place, directory fsynced).
   The header comes last so a crash mid-write never leaves a certificate
   that parses: no CERT.json, no certificate. *)

let of_store store =
  let tbl = Hashtbl.create (max 1024 (Store.Tiered.count store)) in
  let add (e : Store.Segment.entry) =
    let d = Store.Tiered.meta32_depth e.meta in
    let v = Store.Tiered.meta32_violation e.meta in
    let x = Store.Tiered.meta32_expanded e.meta in
    match Hashtbl.find_opt tbl e.fp with
    | None -> Hashtbl.replace tbl e.fp (d, v, x)
    | Some (d0, v0, x0) -> Hashtbl.replace tbl e.fp (min d d0, max v v0, x || x0)
  in
  for shard = 0 to Store.Tiered.n_shards - 1 do
    Array.iter add (Store.Tiered.tier0_dump store ~shard);
    List.iter (fun seg -> Store.Segment.iter seg add) (Store.Tiered.segments_of store ~shard)
  done;
  let bad = ref None in
  let acc = ref [] in
  Hashtbl.iter
    (fun fp (d, v, x) ->
      if v >= 0 && !bad = None then
        bad := Some (Printf.sprintf "state 0x%x records a violation verdict" (fp land max_int));
      if (not x) && !bad = None then
        bad :=
          Some
            (Printf.sprintf "state 0x%x was never expanded — the run is truncated"
               (fp land max_int));
      acc :=
        { Store.Segment.fp; parent = 0; event = 0; meta = Store.Tiered.meta32_make ~depth:d ~violation:v }
        :: !acc)
    tbl;
  match !bad with
  | Some msg -> Error msg
  | None ->
    let entries = Array.of_list !acc in
    Array.sort (fun a b -> compare a.Store.Segment.fp b.Store.Segment.fp) entries;
    let max_depth =
      Array.fold_left
        (fun m e -> max m (Store.Tiered.meta32_depth e.Store.Segment.meta))
        0 entries
    in
    Ok (entries, max_depth)

let refusal (o : _ Check.Explore.outcome) =
  if o.truncated then Some "run truncated (state cap reached)"
  else if o.violation <> None then Some "run found a violation"
  else None

let explore ?max_states ?obs ?tracer ?reducer ?mem_budget ?spill_dir ?checkpoint ?run_config
    ~invariants initial =
  let dump = ref (Error "the store hook never ran") in
  let o =
    Check.Par_explore.run ~jobs:1 ?max_states ?obs ?tracer ?reducer ?mem_budget ?spill_dir
      ?checkpoint ?run_config
      ~on_store:(fun store -> dump := of_store store)
      ~invariants initial
  in
  (o, match refusal o with Some msg -> Error msg | None -> !dump)

let write ~dir ~config_hash ~reduce ~invariant_names ~run_config ~max_depth entries =
  let n = Array.length entries in
  if n = 0 then Error "empty table: nothing to certify"
  else begin
    (* the root is the unique depth-0 entry of a single-root BFS *)
    let roots =
      Array.to_list entries
      |> List.filter (fun e -> Store.Tiered.meta32_depth e.Store.Segment.meta = 0)
    in
    match roots with
    | [ root ] ->
      Store.Fs.mkdirs dir;
      let table = Certificate.table_path dir in
      ignore (Store.Segment.write ~path:table ~shard:0 ~seq:0 ~max_depth entries);
      Store.Fs.fsync table;
      let h =
        {
          Certificate.format = Certificate.format_tag;
          config_hash;
          reduce;
          invariants = invariant_names;
          obligations = Certificate.required_obligations;
          root_fp = root.Store.Segment.fp;
          states = n;
          max_depth;
          table_digest = Certificate.digest_table dir;
          run_config;
        }
      in
      Certificate.write_header ~dir h;
      Ok h
    | roots -> Error (Printf.sprintf "%d depth-0 entries in the table, expected exactly 1" (List.length roots))
  end

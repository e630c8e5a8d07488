(* Certificate emission.

   One table source: [explore] runs the engine with one worker and
   [of_store] maps its tiered seen-set's newest-wins view
   (Store.Tiered.iter: tier-0 shards plus any spilled segments, one copy
   per fingerprint) to table entries.  The one-worker pool is a FIFO
   BFS, so the stored depth stamps are BFS distances and the dump
   already is the canonical table.  Runs at jobs > 1 cannot be dumped:
   their visited class set can differ across schedules at the symmetry
   reduction's local-automorphism boundary, so their callers certify
   with a second, one-worker run.

   [write] emits table.seg (one globally sorted segment), fsyncs it, and
   then publishes CERT.json binding the configuration hash, reduction
   mode, invariant catalogue, obligations and the table digest
   (Store.Fs.publish: fsynced, renamed into place, directory fsynced).
   The header comes last so a crash mid-write never leaves a certificate
   that parses: no CERT.json, no certificate. *)

let of_store store =
  let exception Uncertifiable of string in
  let refuse (e : Store.Segment.entry) why =
    raise (Uncertifiable (Printf.sprintf "state 0x%x %s" (e.fp land max_int) why))
  in
  (* the view holds [count] entries, one per distinct state *)
  let table =
    Array.make (Store.Tiered.count store) { Store.Segment.fp = 0; parent = 0; event = 0; meta = 0 }
  in
  let rows = ref 0 in
  match
    Store.Tiered.iter store (fun e ->
        if Store.Segment.violation e.meta >= 0 then refuse e "records a violation verdict";
        if not (Store.Segment.expanded e.meta) then
          refuse e "was never expanded — the run is truncated";
        table.(!rows) <- { e with parent = 0; event = 0 };
        incr rows)
  with
  | exception Uncertifiable msg -> Error msg
  | () ->
    Array.sort (fun (a : Store.Segment.entry) b -> compare a.fp b.fp) table;
    Ok (table, Store.Tiered.max_depth store)

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
      Array.to_list entries |> List.filter (fun e -> Store.Segment.depth e.Store.Segment.meta = 0)
    in
    match roots with
    | [ root ] ->
      Store.Fs.mkdirs dir;
      let table = Certificate.table_path dir in
      ignore (Store.Segment.write ~path:table ~shard:0 ~seq:0 entries);
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

type snapshot = {
  seq : int;
  states : int;
  transitions : int;
  deadlocks : int;
  truncated : bool;
  elapsed_s : float;
  best : (int * int * int) option;
  frontier : (int * int) list array;
  store : Tiered.t;
}

let manifest_name = "MANIFEST.json"

(* Schema 3: fingerprints mix one hash per slot (schema 2's mixed every
   slot's spine, then every payload, in one sequence, and schema 1's
   mixed label characters, so none of their stored fingerprints would
   match); state.json names each segment file with its MD5, as since
   schema 2. *)
let schema = 3

let t0_name shard = Printf.sprintf "t0-%02d.seg" shard

let snap_name seq = "snap-" ^ string_of_int seq

(* A segment file as state.json names it: its name in the snapshot and
   its MD5, which [load] checks before decoding it. *)
let seg_file name seg =
  Obs.Json.Obj [ ("name", Obs.Json.String name); ("md5", Obs.Json.String (Segment.digest seg)) ]

let write ~dir ~seq ~config ~store ~states ~transitions ~deadlocks ~truncated ~elapsed_s ~best
    ~frontier =
  Fs.mkdirs dir;
  let tmp = Filename.concat dir "tmp-snap" in
  Fs.rm_rf tmp;
  Fs.mkdirs tmp;
  let shards = ref [] in
  for shard = Tiered.n_shards - 1 downto 0 do
    let entries = Tiered.tier0_dump store ~shard in
    let t0 =
      if Array.length entries = 0 then Obs.Json.Null
      else
        let name = t0_name shard in
        seg_file name (Segment.write ~path:(Filename.concat tmp name) ~shard ~seq:0 entries)
    in
    let segs = Tiered.segments_of store ~shard in
    let seg_names =
      List.map
        (fun seg ->
          let name = Filename.basename (Segment.path seg) in
          let dst = Filename.concat tmp name in
          if not (Sys.file_exists dst) then Fs.link (Segment.path seg) dst;
          seg_file name seg)
        segs
    in
    let distinct, next_seq = Tiered.shard_meta store ~shard in
    shards :=
      Obs.Json.Obj
        [
          ("distinct", Obs.Json.Int distinct);
          ("next_seq", Obs.Json.Int next_seq);
          ("tier0", t0);
          ("segs", Obs.Json.List seg_names);
        ]
      :: !shards
  done;
  let state =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.Int schema);
        ("seq", Obs.Json.Int seq);
        ("states", Obs.Json.Int states);
        ("transitions", Obs.Json.Int transitions);
        ("deadlocks", Obs.Json.Int deadlocks);
        ("truncated", Obs.Json.Bool truncated);
        ("elapsed_s", Obs.Json.Float elapsed_s);
        ( "best",
          match best with
          | None -> Obs.Json.Null
          | Some (depth, fp, inv) ->
            Obs.Json.Obj
              [ ("depth", Obs.Json.Int depth); ("fp", Obs.Json.Int fp); ("inv", Obs.Json.Int inv) ]
        );
        ( "frontier",
          Obs.Json.List
            (Array.to_list
               (Array.map
                  (fun tasks ->
                    Obs.Json.List
                      (List.map
                         (fun (fp, d) -> Obs.Json.List [ Obs.Json.Int fp; Obs.Json.Int d ])
                         tasks))
                  frontier)) );
        ("config", config);
        ("shards", Obs.Json.List !shards);
      ]
  in
  Fs.write (Filename.concat tmp "state.json") (fun oc ->
      output_string oc (Obs.Json.to_string state));
  let final = Filename.concat dir (snap_name seq) in
  Fs.rm_rf final;
  Fs.publish tmp final;
  let manifest =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.Int schema);
        ("latest", Obs.Json.String (snap_name seq));
        ("seq", Obs.Json.Int seq);
        ("config", config);
      ]
  in
  Fs.publish_file (Filename.concat dir manifest_name) (Obs.Json.to_string manifest);
  (* superseded snapshots: best-effort garbage collection *)
  Array.iter
    (fun e ->
      if e <> snap_name seq && String.length e > 5 && String.sub e 0 5 = "snap-" then
        Fs.rm_rf (Filename.concat dir e))
    (Sys.readdir dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let ( let* ) = Result.bind

(* A document of another schema is refused by name before anything else
   in it is read. *)
let check_schema doc j =
  let* found = Obs.Json.Decode.(run doc (fun d -> int (field "schema" d)) j) in
  if found = schema then Ok ()
  else Error (Printf.sprintf "%s: schema %d, expected %d" doc found schema)

(* The manifest's sequence number, echoed configuration and latest
   snapshot directory. *)
let read_manifest dir =
  let path = Filename.concat dir manifest_name in
  if not (Sys.file_exists path) then Error ("no " ^ manifest_name ^ " in " ^ dir)
  else
    let* j =
      Result.map_error (fun e -> "bad manifest: " ^ e) (Obs.Json.of_string (read_file path))
    in
    let* () = check_schema manifest_name j in
    Obs.Json.Decode.(
      run manifest_name
        (fun m ->
          let seq = int (field "seq" m) in
          let config = json (field "config" m) in
          let latest = string (field "latest" m) in
          (seq, config, latest))
        j)

let manifest dir = Result.map (fun (seq, config, _) -> (seq, config)) (read_manifest dir)

let load ?mem_budget ?spill_dir dir =
  let* _, _, latest = read_manifest dir in
  let sdir = Filename.concat dir latest in
  let spath = Filename.concat sdir "state.json" in
  if not (Sys.file_exists spath) then Error ("snapshot " ^ latest ^ " has no state.json")
  else
    let* st = Result.map_error (fun e -> "bad state.json: " ^ e) (Obs.Json.of_string (read_file spath)) in
    let* () = check_schema "state.json" st in
    (* state.json is read fail-closed: every field [load] reads is
       required and typed.  The only nulls are the writer's own: [best]
       without a violation and [tier0] for an empty shard. *)
    let* shards, snapshot =
      Obs.Json.Decode.(
        run "state.json" (fun st ->
            let seq = int (field "seq" st) in
            let states = int (field "states" st) in
            let transitions = int (field "transitions" st) in
            let deadlocks = int (field "deadlocks" st) in
            let truncated = bool (field "truncated" st) in
            let elapsed_s = float (field "elapsed_s" st) in
            let best =
              nullable
                (fun b ->
                  let depth = int (field "depth" b) in
                  let fp = int (field "fp" b) in
                  let inv = int (field "inv" b) in
                  (depth, fp, inv))
                (field "best" st)
            in
            let task t = match list int t with [ fp; d ] -> (fp, d) | _ -> malformed t in
            let frontier = Array.of_list (list (list task) (field "frontier" st)) in
            (* per shard: distinct, next_seq, tier-0 segment file, live
               segment files, each as (name, md5) *)
            let file f =
              let name = string (field "name" f) in
              let md5 = string (field "md5" f) in
              (name, md5)
            in
            let shards =
              list
                (fun sh ->
                  let distinct = int (field "distinct" sh) in
                  let next_seq = int (field "next_seq" sh) in
                  let tier0 = nullable file (field "tier0" sh) in
                  let segs = list file (field "segs" sh) in
                  (distinct, next_seq, tier0, segs))
                (field "shards" st)
            in
            ( shards,
              fun store ->
                { seq; states; transitions; deadlocks; truncated; elapsed_s; best; frontier; store }
            )))
        st
    in
    let* () =
      if List.length shards = Tiered.n_shards then Ok ()
      else
        Error
          (Printf.sprintf "state.json has %d shards, expected %d" (List.length shards)
             Tiered.n_shards)
    in
    let store = Tiered.create ?mem_budget ?spill_dir () in
    match
      let live_dir =
        if List.exists (fun (_, _, _, segs) -> segs <> []) shards then
          Some (Tiered.ensure_spill_dir store)
        else None
      in
      List.iteri
        (fun shard (distinct, next_seq, tier0, seg_names) ->
          let load_seg (name, digest) = Segment.load ~digest (Filename.concat sdir name) in
          let tier0 = match tier0 with None -> [||] | Some f -> Segment.entries (load_seg f) in
          (* loaded from the snapshot, so a damaged file is named there *)
          let segs =
            List.map
              (fun ((name, _) as f) ->
                let seg = load_seg f in
                match live_dir with
                | Some d ->
                  let dst = Filename.concat d name in
                  if not (Sys.file_exists dst) then Fs.link (Segment.path seg) dst;
                  Segment.with_path seg dst
                | None -> seg)
              seg_names
          in
          Tiered.restore_shard store ~shard ~distinct ~next_seq ~tier0 ~segs)
        shards
    with
    | () -> Ok (snapshot store)
    | exception e -> (
      Option.iter Fs.rm_rf (Tiered.temp_dir store);
      match e with
      | Sys_error msg -> Error ("snapshot load failed: " ^ msg)
      | e -> raise e)

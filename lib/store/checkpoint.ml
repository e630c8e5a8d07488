type snapshot = {
  seq : int;
  states : int;
  transitions : int;
  deadlocks : int;
  truncated : bool;
  elapsed_s : float;
  best : (int * int * int) option;
  frontier : (int * int) list array;
  config : Obs.Json.t;
  store : Tiered.t;
}

let manifest_name = "MANIFEST.json"

let t0_name shard = Printf.sprintf "t0-%02d.seg" shard

let snap_name seq = "snap-" ^ string_of_int seq

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
      else begin
        let max_depth =
          Array.fold_left
            (fun acc (e : Segment.entry) -> max acc (Tiered.meta32_depth e.meta))
            0 entries
        in
        let name = t0_name shard in
        ignore
          (Segment.write ~path:(Filename.concat tmp name) ~shard ~seq:0 ~max_depth entries);
        Obs.Json.String name
      end
    in
    let segs = Tiered.segments_of store ~shard in
    let seg_names =
      List.map
        (fun seg ->
          let name = Filename.basename (Segment.path seg) in
          let dst = Filename.concat tmp name in
          if not (Sys.file_exists dst) then Fs.link (Segment.path seg) dst;
          Obs.Json.String name)
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
        ("schema", Obs.Json.Int 1);
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
        ("schema", Obs.Json.Int 1);
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

(* The manifest's sequence number, echoed configuration and latest
   snapshot directory. *)
let read_manifest dir =
  let path = Filename.concat dir manifest_name in
  if not (Sys.file_exists path) then Error ("no " ^ manifest_name ^ " in " ^ dir)
  else
    match Obs.Json.of_string (read_file path) with
    | Error e -> Error ("bad manifest: " ^ e)
    | Ok j -> (
      match
        ( Option.bind (Obs.Json.member "seq" j) Obs.Json.to_int,
          Obs.Json.member "config" j,
          Option.bind (Obs.Json.member "latest" j) Obs.Json.to_string_opt )
      with
      | Some seq, Some config, Some latest -> Ok (seq, config, latest)
      | _ -> Error "manifest missing seq/config/latest")

let manifest dir = Result.map (fun (seq, config, _) -> (seq, config)) (read_manifest dir)

(* state.json is read fail-closed: every field [load] reads is required
   and typed, and a malformed one is refused by name, never read as a
   default.  The only nulls are the writer's own: [best] without a
   violation and [tier0] for an empty shard.  Fields [load] does not read
   are ignored. *)
let ( let* ) = Result.bind

let field ?(at = "") name conv j =
  match Option.bind (Obs.Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "state.json: missing or malformed %s%s" at name)

let nullable conv = function Obs.Json.Null -> Some None | j -> Option.map Option.some (conv j)

let list_of conv j =
  Option.bind (Obs.Json.to_list j) (fun l ->
      List.fold_right
        (fun x acc -> match (conv x, acc) with Some v, Some vs -> Some (v :: vs) | _ -> None)
        l (Some []))

let int_pair j =
  match Obs.Json.to_list j with
  | Some [ a; b ] -> (
    match (Obs.Json.to_int a, Obs.Json.to_int b) with Some a, Some b -> Some (a, b) | _ -> None)
  | _ -> None

let violation b =
  let int name = Option.bind (Obs.Json.member name b) Obs.Json.to_int in
  match (int "depth", int "fp", int "inv") with
  | Some d, Some fp, Some i -> Some (d, fp, i)
  | _ -> None

(* One shard's restore arguments: distinct, next_seq, tier-0 segment
   name, live segment names. *)
let shard_fields i sh =
  let at = Printf.sprintf "shards[%d]." i in
  let* distinct = field ~at "distinct" Obs.Json.to_int sh in
  let* next_seq = field ~at "next_seq" Obs.Json.to_int sh in
  let* tier0 = field ~at "tier0" (nullable Obs.Json.to_string_opt) sh in
  let* segs = field ~at "segs" (list_of Obs.Json.to_string_opt) sh in
  Ok (distinct, next_seq, tier0, segs)

let load ?mem_budget ?spill_dir dir =
  let* _, _, latest = read_manifest dir in
  let sdir = Filename.concat dir latest in
  let spath = Filename.concat sdir "state.json" in
  if not (Sys.file_exists spath) then Error ("snapshot " ^ latest ^ " has no state.json")
  else
    let* st = Result.map_error (fun e -> "bad state.json: " ^ e) (Obs.Json.of_string (read_file spath)) in
    let* seq = field "seq" Obs.Json.to_int st in
    let* states = field "states" Obs.Json.to_int st in
    let* transitions = field "transitions" Obs.Json.to_int st in
    let* deadlocks = field "deadlocks" Obs.Json.to_int st in
    let* truncated = field "truncated" Obs.Json.to_bool st in
    let* elapsed_s = field "elapsed_s" Obs.Json.to_float st in
    let* best = field "best" (nullable violation) st in
    let* frontier = field "frontier" (list_of (list_of int_pair)) st in
    let* config = field "config" Option.some st in
    let* shard_list = field "shards" Obs.Json.to_list st in
    let* () =
      if List.length shard_list = Tiered.n_shards then Ok ()
      else
        Error
          (Printf.sprintf "state.json has %d shards, expected %d" (List.length shard_list)
             Tiered.n_shards)
    in
    let rec shards i = function
      | [] -> Ok []
      | sh :: rest ->
        let* s = shard_fields i sh in
        let* rest = shards (i + 1) rest in
        Ok (s :: rest)
    in
    let* shards = shards 0 shard_list in
    let store = Tiered.create ?mem_budget ?spill_dir () in
    match
      let live_dir =
        if List.exists (fun (_, _, _, segs) -> segs <> []) shards then
          Some (Tiered.ensure_spill_dir store)
        else None
      in
      List.iteri
        (fun shard (distinct, next_seq, tier0, seg_names) ->
          let tier0 =
            match tier0 with
            | None -> [||]
            | Some name -> Segment.entries (Segment.load (Filename.concat sdir name))
          in
          let segs =
            List.map
              (fun name ->
                let live =
                  match live_dir with
                  | Some d ->
                    let dst = Filename.concat d name in
                    if not (Sys.file_exists dst) then Fs.link (Filename.concat sdir name) dst;
                    dst
                  | None -> Filename.concat sdir name
                in
                Segment.load live)
              seg_names
          in
          Tiered.restore_shard store ~shard ~distinct ~next_seq ~tier0 ~segs)
        shards
    with
    | () ->
      Ok
        {
          seq;
          states;
          transitions;
          deadlocks;
          truncated;
          elapsed_s;
          best;
          frontier = Array.of_list frontier;
          config;
          store;
        }
    | exception e -> (
      Option.iter Fs.rm_rf (Tiered.temp_dir store);
      match e with
      | Sys_error msg | Failure msg -> Error ("snapshot load failed: " ^ msg)
      | e -> raise e)

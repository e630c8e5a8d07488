(* The certificate container format.  See docs/CERTIFICATES.md (generated
   by lib/mutate/doc_gen) for the normative spec; this module is its
   implementation.

   A certificate is a directory of two files:

     CERT.json   the header: format tag (GCCERT003), configuration binding
                 (config_hash + the verbatim run configuration), reduction
                 mode, the invariant catalogue in evaluation order, the
                 closure obligations the validator must discharge, the
                 root fingerprint, entry counts, and an MD5 digest of the
                 table file.
     table.seg   the table: one segment in lib/store's delta-compressed
                 "GCSEG001" format, all entries globally sorted by
                 fingerprint, parent and event zeroed, meta packed as
                 depth | verdict | expanded in the store's 32-bit segment
                 layout.

   The digest catches accidental corruption cheaply; it is NOT a
   signature and carries no trust.  Soundness never rests on it: the
   validator (Recheck) re-derives every claim semantically, so a
   consistently tampered certificate still fails closure, depth or
   verdict revalidation.  DESIGN.md records the argument. *)

(* GCCERT003: a fingerprint mixes one hash per slot (GCCERT002's mixed
   every slot's spine, then every payload, in one sequence), so no
   earlier table's fingerprints would match. *)
let format_tag = "GCCERT003"
let header_file = "CERT.json"
let table_file = "table.seg"
let header_path dir = Filename.concat dir header_file
let table_path dir = Filename.concat dir table_file

(* The obligations a validator must discharge.  They are named in the
   header so a certificate states what it claims; Recheck refuses a
   header that omits any of them (an omitted obligation would otherwise
   silently weaken the claim a consumer believes was checked). *)
let obligation_root = "root"
let obligation_closure = "closure"
let obligation_depths = "depths"
let obligation_verdicts = "verdicts"

let required_obligations =
  [ obligation_root; obligation_closure; obligation_depths; obligation_verdicts ]

type header = {
  format : string;  (* must be [format_tag] *)
  config_hash : string;  (* Config.hash of the certified instance *)
  reduce : string;  (* reduction mode: "none" | "sym" | "por" | "all" *)
  invariants : string list;  (* catalogue in evaluation order *)
  obligations : string list;  (* must cover [required_obligations] *)
  root_fp : int;  (* fingerprint of the canonical initial state *)
  states : int;  (* table entry count *)
  max_depth : int;  (* largest depth stamp in the table *)
  table_digest : string;  (* MD5 (hex) of table.seg *)
  run_config : Obs.Json.t;  (* verbatim flags, to rebuild the instance *)
}

let header_to_json h =
  let open Obs.Json in
  Obj
    [
      ("format", String h.format);
      ("config_hash", String h.config_hash);
      ("reduce", String h.reduce);
      ("invariants", List (List.map (fun s -> String s) h.invariants));
      ("obligations", List (List.map (fun s -> String s) h.obligations));
      ("root_fp", Int h.root_fp);
      ("states", Int h.states);
      ("max_depth", Int h.max_depth);
      ("table_digest", String h.table_digest);
      ("config", h.run_config);
    ]

(* Every field is required and typed, every list element a string; the
   run configuration is opaque here (gcmodel reads it) but must be
   present, and may be null. *)
let header_of_json =
  Obs.Json.Decode.(
    run header_file (fun h ->
        let format = string (field "format" h) in
        let config_hash = string (field "config_hash" h) in
        let reduce = string (field "reduce" h) in
        let invariants = list string (field "invariants" h) in
        let obligations = list string (field "obligations" h) in
        let root_fp = int (field "root_fp" h) in
        let states = int (field "states" h) in
        let max_depth = int (field "max_depth" h) in
        let table_digest = string (field "table_digest" h) in
        let run_config = json (field "config" h) in
        {
          format;
          config_hash;
          reduce;
          invariants;
          obligations;
          root_fp;
          states;
          max_depth;
          table_digest;
          run_config;
        }))

let write_header ~dir h =
  Store.Fs.publish_file (header_path dir) (Obs.Json.to_string_pretty (header_to_json h) ^ "\n")

let read_header dir =
  let path = header_path dir in
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "%s: no certificate header (%s missing)" dir header_file)
  else
    match Obs.Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | Error e -> Error (Printf.sprintf "%s: unparsable header: %s" header_file e)
    | Ok json -> (
      match header_of_json json with
      | Error _ as e -> e
      | Ok h ->
        if h.format <> format_tag then
          Error
            (Printf.sprintf "%s: header field \"format\" is %S, expected %S" header_file
               h.format format_tag)
        else Ok h)

let digest_table dir = Digest.to_hex (Digest.file (table_path dir))

type table = { fps : int array; metas : int array }

(* Load the table, digest-checked first so a bit flip or truncation is
   reported as corruption (naming table.seg) rather than as a spurious
   semantic failure from the decoder.  Only fingerprints and meta words
   are kept (parent and event are zero in a certificate), in two flat
   int arrays, so a validation holds no per-entry block in the major
   heap. *)
let load_table ~expected_digest dir =
  let path = table_path dir in
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "%s: no certificate table (%s missing)" dir table_file)
  else
    let actual = digest_table dir in
    if actual <> expected_digest then
      Error
        (Printf.sprintf
           "%s: digest mismatch — header field \"table_digest\" says %s, file hashes to %s \
            (corrupt or tampered table)"
           table_file expected_digest actual)
    else
      match
        let seg = Store.Segment.load path in
        let n = Store.Segment.length seg in
        let fps = Array.make n 0 and metas = Array.make n 0 in
        let i = ref 0 in
        Store.Segment.iter seg (fun e ->
            fps.(!i) <- e.Store.Segment.fp;
            metas.(!i) <- e.Store.Segment.meta;
            incr i);
        { fps; metas }
      with
      | table -> Ok table
      | exception Sys_error msg -> Error msg

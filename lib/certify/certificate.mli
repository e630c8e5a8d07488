(** The certificate container format: a directory holding [CERT.json]
    (the header) and [table.seg] (the reach table as one [lib/store]
    delta-compressed segment, globally sorted by fingerprint).

    The normative format spec is the generated [docs/CERTIFICATES.md];
    this module is its implementation.  The table digest in the header
    catches accidental corruption cheaply — it is not a signature, and
    validator soundness never rests on it ({!Recheck} re-derives every
    claim semantically). *)

val format_tag : string
(** ["GCCERT003"] — bound into every header; {!read_header} refuses any
    other value.  Its fingerprints mix one hash per slot; GCCERT002's
    mixed every slot's spine and then every payload in one sequence, and
    GCCERT001's mixed label characters, not label hashes, so none of
    theirs would match. *)

val header_file : string
(** ["CERT.json"]. *)

val table_file : string
(** ["table.seg"]. *)

val header_path : string -> string
(** [header_path dir] is [dir ^ "/CERT.json"]. *)

val table_path : string -> string
(** [table_path dir] is [dir ^ "/table.seg"]. *)

val required_obligations : string list
(** The closure obligations every certificate must name and every
    validator must discharge: ["root"] (the canonical initial state is
    in the table at depth 0), ["closure"] (each entry's regenerated
    successor set is in the table), ["depths"] (each entry's depth stamp
    is its BFS distance from the root), ["verdicts"] (re-evaluating the
    full invariant catalogue on each entry reproduces its verdict).
    {!Recheck.validate} rejects a header omitting any of them. *)

type header = {
  format : string;  (** must equal {!format_tag} *)
  config_hash : string;  (** [Config.hash] of the certified instance *)
  reduce : string;  (** reduction mode: "none", "sym", "por" or "all" *)
  invariants : string list;  (** invariant catalogue in evaluation order *)
  obligations : string list;  (** must cover {!required_obligations} *)
  root_fp : int;  (** fingerprint of the canonical initial state *)
  states : int;  (** table entry count *)
  max_depth : int;  (** largest depth stamp in the table *)
  table_digest : string;  (** MD5 (hex) of [table.seg] *)
  run_config : Obs.Json.t;
      (** the producing run's flags, verbatim — enough to rebuild the
          instance, as [gcmodel resume] does from checkpoint manifests *)
}

val write_header : dir:string -> header -> unit
(** Publish [CERT.json] into [dir] by {!Store.Fs.publish_file}: written
    to [CERT.json.tmp], fsynced, renamed into place, [dir] fsynced. *)

val read_header : string -> (header, string) result
(** Read [dir]'s header through {!Obs.Json.Decode}: every field is
    required and typed and every list element decoded, so [Error
    "CERT.json: missing or malformed PATH"] names the first value that
    is not (e.g. [obligations[4]]).  [config] must be present; its value
    is opaque here and may be [null].  A wrong {!format_tag} is
    refused. *)

val digest_table : string -> string
(** MD5 (hex) of [dir]'s table file bytes. *)

(** A loaded table: fingerprints in file order (ascending in a
    well-formed certificate; {!Recheck.validate} checks it) and, at the
    same index, each one's meta word ({!Store.Segment.depth},
    {!Store.Segment.violation}).  A certificate's parent and event
    fields are zero and are not kept. *)
type table = { fps : int array; metas : int array }

val load_table : expected_digest:string -> string -> (table, string) result
(** Digest-check then decode [dir]'s table.  The digest is compared
    before any decoding, so corruption (bit flips, truncation) is
    reported as a [table.seg] digest mismatch, not a decoder error. *)

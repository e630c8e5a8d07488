(** Generators for the four reference manuals in [docs/].

    Pure functions of the catalogues — no clocks, no environment — so the
    output is byte-stable; CI regenerates them with [gcmodel doc] and
    diffs against the committed files, and the test suite does the same
    locally. *)

val invariants_md : unit -> string
(** [docs/INVARIANTS.md]: every invariant's kind, paper locus, informal
    statement, conjunct table, and code location — rendered from the
    [paper] / [conjuncts] metadata on {!Core.Invariants.t}. *)

val variants_md : unit -> string
(** [docs/VARIANTS.md]: every {!Core.Variants.t} (expectation,
    description, how to run — ablations get their minimal-witness command
    line) and the whole mutation-operator catalogue with
    expected-equivalent rationales. *)

val certificates_md : unit -> string
(** [docs/CERTIFICATES.md]: the normative certificate format spec —
    directory layout, header fields, table encoding, the closure
    obligations and what discharges each, the determinism and trust
    models, and the command cheat-sheet.  Rendered against the living
    constants ({!Certify.Certificate.format_tag}, the invariant count),
    so format drift breaks the CI diff. *)

val records_md : unit -> string
(** [docs/RECORDS.md]: every JSONL record the tools emit — event name,
    emitter, meaning, fields and optional fields — rendered from
    {!Obs.Record.all}, the declarations {!Obs.Reporter.emit} checks
    against. *)

val manuals : (string * (unit -> string)) list
(** The four manuals as (file name, generator) pairs, in manual order:
    what [gcmodel doc DIR] writes into [DIR]. *)

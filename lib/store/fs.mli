(** The file layer: every directory creation, file write, fsync, rename,
    hard link and removal of the tiered store, its checkpoints, the
    certificates and the cross-check harness goes through this module.

    Durability has one rule, {!publish}: fsync each file being
    published, rename it (or the directory holding it) into place, then
    fsync the parent directory.  {!write} does not fsync, so a spill or
    merge segment costs no fsync until a checkpoint publishes it (a
    certificate {!fsync}s its table before publishing its header next to
    it).

    Failures surface as [Sys_error] naming the path.  Every mutating step
    first calls the {!set_hook} hook with the step, so a test can count
    the steps of an operation and fail any one of them; no flag or
    environment variable reaches it. *)

type step =
  | Mkdir of string
  | Write of string  (** create a file (replacing one of that name) and write it *)
  | Fsync of string  (** a file or a directory *)
  | Rename of string * string
  | Link of string * string  (** hard link (or copy) source to target *)
  | Remove of string  (** a file or an empty directory *)

val set_hook : (step -> unit) -> unit
(** Install the step hook; the default does nothing.  Workers call it
    concurrently, so it must be domain-safe.  A hook that raises makes
    the step fail before it touches the disk, as if the process had died
    there: the exception propagates, also out of {!rm_rf}. *)

val mkdirs : string -> unit
(** Create a directory and its missing parents. *)

val temp_dir : string -> string
(** [temp_dir prefix] creates a fresh directory [prefix-PID-N] under
    [Filename.get_temp_dir_name ()] and returns its path. *)

val write : string -> (out_channel -> unit) -> unit
(** Create a file and fill it; not fsynced.  A file of that name is
    replaced by a new one, never rewritten in place, so hard links to it
    (a snapshot's segments) keep their contents. *)

val fsync : string -> unit
(** Flush a file, or a directory's entries, to stable storage.  A
    filesystem that cannot fsync directories is not an error. *)

val publish : string -> string -> unit
(** [publish src dst] makes [src] durable under the name [dst]: fsync
    [src] (a directory: each file in it, then the directory), rename it
    to [dst], fsync [dst]'s parent. *)

val publish_file : string -> string -> unit
(** [publish_file path contents] writes [contents] to [path.tmp] and
    {!publish}es it as [path]. *)

val link : string -> string -> unit
(** [link src dst]: hard-link [src] as [dst], or copy it where the
    filesystem refuses the link. *)

val rm_rf : string -> unit
(** Remove a file or a directory tree, best effort: what is missing or
    cannot be removed is skipped. *)

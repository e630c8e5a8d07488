type step =
  | Mkdir of string
  | Write of string
  | Fsync of string
  | Rename of string * string
  | Link of string * string
  | Remove of string

let hook = Atomic.make (fun (_ : step) -> ())
let set_hook f = Atomic.set hook f
let step s = (Atomic.get hook) s

(* OS errors read like the channel functions': [Sys_error "PATH: reason"] *)
let fail path e = raise (Sys_error (path ^ ": " ^ Unix.error_message e))

(* sorted, so an operation's step sequence does not depend on the
   filesystem's directory order *)
let entries dir =
  let names = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.sort compare names;
  names

let rec mkdirs d =
  if not (Sys.file_exists d) then begin
    mkdirs (Filename.dirname d);
    step (Mkdir d);
    try Unix.mkdir d 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    | Unix.Unix_error (e, _, _) -> fail d e
  end

let temp_counter = Atomic.make 0

let temp_dir prefix =
  let base = Filename.get_temp_dir_name () in
  let rec go () =
    let d =
      Filename.concat base
        (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Atomic.fetch_and_add temp_counter 1))
    in
    step (Mkdir d);
    match Unix.mkdir d 0o700 with
    | () -> d
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go ()
    | exception Unix.Unix_error (e, _, _) -> fail d e
  in
  go ()

let write path f =
  step (Write path);
  (* a fresh inode, never the old one truncated: a snapshot's hard link
     to an earlier file of this name keeps its bytes *)
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  (* close_out inside: a failed final flush raises *)
  Out_channel.with_open_bin path (fun oc ->
      f oc;
      close_out oc)

let fsync path =
  step (Fsync path);
  let fd =
    try Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0
    with Unix.Unix_error (e, _, _) -> fail path e
  in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  try Unix.fsync fd with
  | Unix.Unix_error ((Unix.EINVAL | Unix.EOPNOTSUPP), _, _) when Sys.is_directory path -> ()
  | Unix.Unix_error (e, _, _) -> fail path e

let publish src dst =
  if Sys.is_directory src then
    Array.iter
      (fun name ->
        let p = Filename.concat src name in
        if not (Sys.is_directory p) then fsync p)
      (entries src);
  fsync src;
  step (Rename (src, dst));
  (try Unix.rename src dst with Unix.Unix_error (e, _, _) -> fail dst e);
  fsync (Filename.dirname dst)

let publish_file path contents =
  let tmp = path ^ ".tmp" in
  write tmp (fun oc -> output_string oc contents);
  publish tmp path

let link src dst =
  step (Link (src, dst));
  try Unix.link src dst
  with Unix.Unix_error _ ->
    let bytes = In_channel.with_open_bin src In_channel.input_all in
    Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc bytes)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun name -> rm_rf (Filename.concat path name)) (entries path);
    step (Remove path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> (
    step (Remove path);
    try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

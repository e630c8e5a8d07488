(* The independent validator.

   It walks the graph the engine explored, the same way: a FIFO BFS from
   the canonical initial state, expanding the executable canonical
   representative of each class exactly once, generating successors
   through the reducer's ample-set function and fingerprinting each
   successor's canonical representative.  Because the engine expands
   canonical representatives too (Reducer.canon_state), this BFS visits
   exactly the explored quotient graph — first-arrival order is the
   one-worker engine's, so depths agree by construction, not by luck.

   Against a loaded certificate, every claim in the table is re-derived —
   the root obligation, the per-entry invariant verdicts (the full
   catalogue, re-evaluated), the per-entry depth stamps (BFS distance),
   and transition closure (each regenerated successor must be in the
   table).  A final coverage scan rejects table entries the BFS never
   reached, making the check an exact bijection: table = reachable
   quotient set.  No explorer code runs; the only shared ingredients are
   the model's step function, the invariant catalogue and the reducer —
   the same trusted base the soundness argument (DESIGN.md) already
   assumes. *)

type stats = {
  states : int;  (* classes visited = table entries validated *)
  transitions : int;  (* successor edges regenerated and probed *)
  max_depth : int;
  elapsed_s : float;
  table_bytes : int;  (* on-disk certificate table size *)
}

exception Fail of string

let failf fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt
let fp_hex fp = Printf.sprintf "0x%x" (fp land max_int)

(* First violated invariant's index in catalogue order, -1 if none —
   the per-state verdict the table's meta word carries. *)
let verdict_of invs sys =
  let n = Array.length invs in
  let rec go i =
    if i >= n then -1 else if not ((snd invs.(i)) sys) then i else go (i + 1)
  in
  go 0

let find_fp fps fp =
  let lo = ref 0 and hi = ref (Array.length fps - 1) in
  let res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v = Array.unsafe_get fps mid in
    if v = fp then begin
      res := mid;
      lo := !hi + 1
    end
    else if v < fp then lo := mid + 1
    else hi := mid - 1
  done;
  !res

let validate ?(normal_form = true) ~reducer ~invariants ~config_hash ~dir initial =
  let ( let* ) = Result.bind in
  let* h = Certificate.read_header dir in
  (* the header must claim everything we are about to check: a dropped
     obligation means the producer asserts a weaker statement than the
     consumer believes *)
  let* () =
    match
      List.find_opt (fun ob -> not (List.mem ob h.Certificate.obligations))
        Certificate.required_obligations
    with
    | Some ob ->
      Error
        (Printf.sprintf
           "%s: missing closure obligation %S in header field \"obligations\" — the \
            certificate does not claim what recheck validates"
           Certificate.header_file ob)
    | None -> Ok ()
  in
  let* () =
    if h.Certificate.config_hash <> config_hash then
      Error
        (Printf.sprintf
           "%s: header field \"config_hash\" is %s but the rebuilt model hashes to %s — \
            certificate binds a different instance"
           Certificate.header_file h.Certificate.config_hash config_hash)
    else Ok ()
  in
  let inv_names = List.map fst invariants in
  let* () =
    if h.Certificate.invariants <> inv_names then
      Error
        (Printf.sprintf
           "%s: header field \"invariants\" does not match the model's catalogue (%d listed, \
            %d in the model)"
           Certificate.header_file
           (List.length h.Certificate.invariants)
           (List.length inv_names))
    else Ok ()
  in
  let* () =
    let rname = Check.Reducer.name_of reducer in
    if h.Certificate.reduce <> rname then
      Error
        (Printf.sprintf
           "%s: header field \"reduce\" is %S but the validator was built with %S"
           Certificate.header_file h.Certificate.reduce rname)
    else Ok ()
  in
  let* { Certificate.fps; metas } =
    Certificate.load_table ~expected_digest:h.Certificate.table_digest dir
  in
  let n = Array.length fps in
  let* () =
    if n <> h.Certificate.states then
      Error
        (Printf.sprintf "%s: %d entries but header field \"states\" says %d"
           Certificate.table_file n h.Certificate.states)
    else Ok ()
  in
  let t0 = Obs.Clock.monotonic_ns () in
  let depth_of i = Store.Segment.depth metas.(i) in
  let viol_of i = Store.Segment.violation metas.(i) in
  let norm s = if normal_form then Cimp.System.normalize s else s in
  let canon s = Check.Reducer.canon_of reducer s in
  let fp_of s = Check.Fingerprint.hash (Check.Reducer.fp_of reducer s) in
  let invs = Array.of_list invariants in
  try
    for i = 1 to n - 1 do
      if fps.(i - 1) >= fps.(i) then
        failf "%s: entries not strictly sorted at index %d" Certificate.table_file i
    done;
    (* a certificate witnesses a violation-free closed run; an entry
       carrying a violation verdict is not certifiable in the first
       place, so reject it before walking anything *)
    for i = 0 to n - 1 do
      if viol_of i >= 0 then
        failf "%s: entry %s records a violation verdict — certificates witness \
               violation-free runs only"
          Certificate.table_file (fp_hex fps.(i))
    done;
    (* obligation "root" *)
    let root = canon (norm initial) in
    let fp0 = fp_of root in
    if fp0 <> h.Certificate.root_fp then
      failf "header field \"root_fp\" is %s but the model's canonical initial state is %s"
        (fp_hex h.Certificate.root_fp) (fp_hex fp0);
    let i0 = find_fp fps fp0 in
    if i0 < 0 then failf "root state %s absent from the table" (fp_hex fp0);
    if depth_of i0 <> 0 then
      failf "root state %s has depth stamp %d, expected 0" (fp_hex fp0) (depth_of i0);
    let visited = Bytes.make n '\000' in
    Bytes.set visited i0 '\001';
    let q = Queue.create () in
    Queue.add (root, i0, 0) q;
    let states = ref 0 and transitions = ref 0 and max_depth = ref 0 in
    while not (Queue.is_empty q) do
      let sys, i, d = Queue.pop q in
      incr states;
      if d > !max_depth then max_depth := d;
      (* obligation "depths": first-arrival FIFO order makes [d] the BFS
         distance of this class from the root *)
      if depth_of i <> d then
        failf "depth mismatch at %s: table stamps %d, BFS reaches it at %d" (fp_hex fps.(i))
          (depth_of i) d;
      (* obligation "verdicts": re-evaluate the full catalogue *)
      let v = verdict_of invs sys in
      if v <> viol_of i then
        failf "verdict mismatch at %s: table says pass, re-evaluation violates %s"
          (fp_hex fps.(i)) (fst invs.(v));
      (* obligation "closure": every regenerated successor is an entry *)
      List.iter
        (fun (_e, s') ->
          incr transitions;
          (* fp before canon: canon_state preserves the fingerprint, and
             most successors are duplicates that never need the
             executable representative materialized *)
          let s' = norm s' in
          let fp' = fp_of s' in
          let j = find_fp fps fp' in
          if j < 0 then
            failf "closure miss: successor %s of expanded state %s absent from the table"
              (fp_hex fp') (fp_hex fps.(i));
          if Bytes.get visited j = '\000' then begin
            Bytes.set visited j '\001';
            Queue.add (canon s', j, d + 1) q
          end)
        (Check.Reducer.succs_of reducer sys)
    done;
    (* the bijection's other half: nothing in the table may be
       unreachable, or a padded certificate would validate *)
    for i = 0 to n - 1 do
      if Bytes.get visited i = '\000' then
        failf "unreachable table entry %s: never produced by the regenerated quotient BFS"
          (fp_hex fps.(i))
    done;
    if !max_depth <> h.Certificate.max_depth then
      failf "header field \"max_depth\" is %d but the BFS frontier closed at depth %d"
        h.Certificate.max_depth !max_depth;
    let table_bytes =
      try Int64.to_int (In_channel.with_open_bin (Certificate.table_path dir) In_channel.length)
      with Sys_error _ -> 0
    in
    Ok
      ( h,
        {
          states = !states;
          transitions = !transitions;
          max_depth = !max_depth;
          elapsed_s = Obs.Clock.elapsed_s ~since:t0;
          table_bytes;
        } )
  with Fail msg -> Error msg

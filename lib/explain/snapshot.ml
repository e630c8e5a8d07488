(* Structured per-state snapshots.

   A snapshot is the explainable projection of one global model state: the
   committed heap with its raw mark bits, the tricolor interpretation
   (with honorary-grey attribution kept separate, because the ghost is
   exactly what makes a ref grey *without* being on any work-list), the
   per-pid TSO buffers and work-lists, the handshake/phase machinery, and
   each process's control location.  Diffing two consecutive snapshots
   (see Diff) yields the semantic step narrative. *)

open Core.Types

type color = White | Grey | Black

let color_name = function White -> "white" | Grey -> "grey" | Black -> "black"

type obj = {
  o_ref : rf;
  o_mark : bool;  (* the raw mark bit (interpretation depends on f_M) *)
  o_fields : (fld * rf option) list;
}

type t = {
  step : int;  (* 0 = the initial state *)
  heap : obj list;  (* allocated objects, ascending by ref *)
  colors : (rf * color) list;  (* tricolor view of every allocated ref *)
  honorary : (rf * int) list;  (* ghost honorary greys, with owning pid *)
  wls : (int * rf list) list;  (* work-list per software pid *)
  bufs : (int * write list) list;  (* TSO store buffer per software pid, oldest first *)
  fA : bool;
  fM : bool;
  phase : phase;
  hs_type : hs;
  hs_pending : bool list;  (* per mutator *)
  hs_done : bool list;  (* per mutator *)
  mut_hs : hs list;  (* per mutator: last completed round *)
  lock : int option;
  roots : (int * rf list) list;  (* per mutator index *)
  dangling : bool;
  at : (int * string list) list;  (* control location (head labels) per pid *)
}

let capture cfg ~step system =
  let open Core.State in
  let sd = Core.Model.sys_data system cfg in
  let n_soft = Core.Config.n_software cfg in
  let softs = List.init n_soft Fun.id in
  let dom = Gcheap.Heap.domain sd.s_mem.heap in
  let heap =
    List.filter_map
      (fun r ->
        match Gcheap.Heap.get sd.s_mem.heap r with
        | None -> None
        | Some o ->
          Some
            {
              o_ref = r;
              o_mark = (Gcheap.Heap.mark sd.s_mem.heap r = Some true);
              o_fields = List.init (Gcheap.Obj.n_fields o) (fun f -> (f, Gcheap.Obj.field o f));
            })
      dom
  in
  let colors =
    let grey = Core.Color.grey_mask cfg sd and marked = Core.Color.marked_mask sd in
    List.map
      (fun r ->
        let b = Gcheap.Heap.bit r in
        (r, if grey land b <> 0 then Grey else if marked land b <> 0 then Black else White))
      dom
  in
  let honorary = List.filter_map (fun p -> Option.map (fun r -> (r, p)) (ghg_of sd p)) softs in
  {
    step;
    heap;
    colors;
    honorary;
    wls = List.map (fun p -> (p, wl_of sd p)) softs;
    bufs = List.map (fun p -> (p, buf_of sd p)) softs;
    fA = sd.s_mem.fA;
    fM = sd.s_mem.fM;
    phase = sd.s_mem.phase;
    hs_type = sd.s_hs_type;
    hs_pending = sd.s_hs_pending;
    hs_done = sd.s_hs_done;
    mut_hs = sd.s_hs_mut_hs;
    lock = sd.s_lock;
    roots =
      List.init cfg.Core.Config.n_muts (fun m -> (m, (Core.Model.mut_data system cfg m).m_roots));
    dangling = sd.s_dangling;
    at =
      List.init (Cimp.System.n_procs system) (fun p ->
          (p, List.map Cimp.Label.name (Cimp.Com.at_labels (Cimp.System.proc system p))));
  }

let color_of t r = List.assoc_opt r t.colors

(* Grey attribution: is [r] grey because of a ghost honorary grey, or
   because it sits on some process's work-list? *)
type grey_via = Via_ghg of int | Via_wl of int

let grey_via t r =
  match List.assoc_opt r t.honorary with
  | Some p -> Some (Via_ghg p)
  | None ->
    List.find_map (fun (p, wl) -> if List.mem r wl then Some (Via_wl p) else None) t.wls

let write_to_json wr =
  Obs.Json.String (Fmt.str "%a" pp_write wr)

let to_json t =
  let open Obs.Json in
  let refs rs = List (List.map (fun r -> Int r) rs) in
  Obj
    [
      ("step", Int t.step);
      ( "heap",
        List
          (List.map
             (fun o ->
               Obj
                 [
                   ("ref", Int o.o_ref);
                   ("mark", Bool o.o_mark);
                   ( "fields",
                     List
                       (List.map
                          (fun (_, v) -> match v with None -> Null | Some r -> Int r)
                          o.o_fields) );
                 ])
             t.heap) );
      ( "colors",
        Obj (List.map (fun (r, c) -> (string_of_int r, String (color_name c))) t.colors) );
      ("honorary_grey", Obj (List.map (fun (r, p) -> (string_of_int r, Int p)) t.honorary));
      ("worklists", Obj (List.map (fun (p, wl) -> (string_of_int p, refs wl)) t.wls));
      ( "buffers",
        Obj (List.map (fun (p, b) -> (string_of_int p, List (List.map write_to_json b))) t.bufs)
      );
      ("fA", Bool t.fA);
      ("fM", Bool t.fM);
      ("phase", String (Fmt.str "%a" pp_phase t.phase));
      ("hs_type", String (Fmt.str "%a" pp_hs t.hs_type));
      ("hs_pending", List (List.map (fun b -> Bool b) t.hs_pending));
      ("hs_done", List (List.map (fun b -> Bool b) t.hs_done));
      ("lock", match t.lock with None -> Null | Some p -> Int p);
      ("roots", Obj (List.map (fun (m, rs) -> (string_of_int m, refs rs)) t.roots));
      ("dangling", Bool t.dangling);
      ( "at",
        Obj
          (List.map
             (fun (p, ls) -> (string_of_int p, List (List.map (fun l -> String l) ls)))
             t.at) );
    ]

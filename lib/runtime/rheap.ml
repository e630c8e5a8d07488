(* A simulated heap for the concrete concurrent collector: a fixed arena of
   object slots, each with an allocation flag, a mark flag, and reference
   fields.  All shared cells are OCaml atomics — OCaml 5's memory model
   gives us sequential consistency for atomics, so this runtime exercises
   the *algorithm* (barriers, handshakes, racy marking) under a real
   scheduler; the TSO-specific behaviours live in the abstract model
   (lib/core), as DESIGN.md explains.

   References are slot indices; [null] (-1) is the null reference. *)

type rf = int

let null : rf = -1

type t = {
  n_slots : int;
  n_fields : int;
  allocated : bool Atomic.t array;
  epochs : int Atomic.t array;
    (* bumped on every free: lets validation detect a reference whose slot
       was freed and reallocated (the ABA case is_allocated cannot see) *)
  marks : bool Atomic.t array;
  fields : rf Atomic.t array array;  (* fields.(r).(f) *)
  free_lock : Mutex.t;
  mutable free_list : rf list;
  allocs : int Atomic.t;  (* statistics *)
  frees_begun : int Atomic.t;
    (* [free] bumps this before it clears the allocation flag and [frees]
       after it bumps the epoch: equal counters mean no free is under way,
       which is what lets a mutator skip re-auditing roots it has checked *)
  frees : int Atomic.t;
}

let make ~n_slots ~n_fields =
  {
    n_slots;
    n_fields;
    allocated = Array.init n_slots (fun _ -> Atomic.make false);
    epochs = Array.init n_slots (fun _ -> Atomic.make 0);
    marks = Array.init n_slots (fun _ -> Atomic.make false);
    fields = Array.init n_slots (fun _ -> Array.init n_fields (fun _ -> Atomic.make null));
    free_lock = Mutex.create ();
    free_list = List.init n_slots (fun i -> i);
    allocs = Atomic.make 0;
    frees_begun = Atomic.make 0;
    frees = Atomic.make 0;
  }

let is_allocated h r = r <> null && Atomic.get h.allocated.(r)

let mark h r = Atomic.get h.marks.(r)

(* The mark CAS of Fig. 5 line 5-11: returns true iff we won. *)
let try_mark h r ~sense = Atomic.compare_and_set h.marks.(r) (not sense) sense

let field h r f = Atomic.get h.fields.(r).(f)
let set_field h r f v = Atomic.set h.fields.(r).(f) v

(* Atomic allocation (the paper's abstraction): pop a free slot, install
   the mark, clear the fields, publish the allocation flag. *)
let alloc h ~mark =
  Mutex.lock h.free_lock;
  let r =
    match h.free_list with
    | [] -> null
    | r :: rest ->
      h.free_list <- rest;
      r
  in
  Mutex.unlock h.free_lock;
  if r <> null then begin
    Atomic.set h.marks.(r) mark;
    Array.iter (fun f -> Atomic.set f null) h.fields.(r);
    Atomic.set h.allocated.(r) true;
    Atomic.incr h.allocs
  end;
  r

(* Fig. 2 line 44: atomic removal from the heap domain. *)
let epoch h r = Atomic.get h.epochs.(r)

let free h r =
  Atomic.incr h.frees_begun;
  Atomic.set h.allocated.(r) false;
  Atomic.incr h.epochs.(r);
  Mutex.lock h.free_lock;
  h.free_list <- r :: h.free_list;
  Mutex.unlock h.free_lock;
  Atomic.incr h.frees

let domain h =
  List.filter (fun r -> Atomic.get h.allocated.(r)) (List.init h.n_slots (fun i -> i))

let live_count h =
  Array.fold_left (fun n a -> if Atomic.get a then n + 1 else n) 0 h.allocated

(* Counters, gauges, and the registry that snapshots them.  See
   metrics.mli for the plain/atomic split rationale. *)

type metric =
  | M_counter of counter
  | M_acounter of acounter
  | M_gauge of gauge

and counter = { c_name : string; mutable c_n : int }
and acounter = { a_name : string; a_n : int Atomic.t }
and gauge = { g_name : string; mutable g_v : float }

(* Registration may race (the runtime creates metrics from several
   domains), so the registry itself is locked; the metrics are not. *)
type registry = { lock : Mutex.t; mutable metrics : metric list }

let create_registry () = { lock = Mutex.create (); metrics = [] }
let default = create_registry ()

let register registry m =
  Mutex.lock registry.lock;
  registry.metrics <- m :: registry.metrics;
  Mutex.unlock registry.lock

(* -- counters ---------------------------------------------------------------- *)

let counter ?(registry = default) name =
  let c = { c_name = name; c_n = 0 } in
  register registry (M_counter c);
  c

let incr c = c.c_n <- c.c_n + 1
let add c n = c.c_n <- c.c_n + n
let count c = c.c_n

let acounter ?(registry = default) name =
  let a = { a_name = name; a_n = Atomic.make 0 } in
  register registry (M_acounter a);
  a

let aincr a = Atomic.incr a.a_n
let aadd a n = ignore (Atomic.fetch_and_add a.a_n n)
let acount a = Atomic.get a.a_n

(* -- gauges ------------------------------------------------------------------ *)

let gauge ?(registry = default) name =
  let g = { g_name = name; g_v = 0. } in
  register registry (M_gauge g);
  g

let set g v = g.g_v <- v
let value g = g.g_v

(* -- dump -------------------------------------------------------------------- *)

let dump ?(registry = default) () =
  Mutex.lock registry.lock;
  let metrics = registry.metrics in
  Mutex.unlock registry.lock;
  Json.Obj
    (List.rev_map
       (function
         | M_counter c -> (c.c_name, Json.Int c.c_n)
         | M_acounter a -> (a.a_name, Json.Int (Atomic.get a.a_n))
         | M_gauge g -> (g.g_name, Json.Float g.g_v))
       metrics)

(* Atomic counters.  See metrics.mli. *)

type acounter = int Atomic.t

let acounter () = Atomic.make 0
let aincr = Atomic.incr
let acount = Atomic.get

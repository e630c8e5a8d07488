(* The classic litmus tests with their published x86-TSO classifications
   (Sewell et al., CACM 2010; Owens et al.).  Addresses: x = 0, y = 1.
   Experiment E9 (Fig. 9) runs this catalogue on the collector's Sys
   process in its TSO and SC modes and checks every classification. *)

open Litmus

let x = 0
let y = 1

let test ~name ~description ?(mem_size = 2) ?(n_regs = 2) ?(observed_mem = []) ~threads ~observed_regs
    ~target ~allowed_tso ~allowed_sc () =
  { name; description; mem_size; n_regs; threads; observed_regs; observed_mem; target; allowed_tso; allowed_sc }

(* SB: the store-buffering (Dekker) example — the signature relaxed
   behaviour of TSO, and the reason the collector needs its handshake
   fences. *)
let sb =
  test ~name:"SB" ~description:"store buffering: both loads may miss both stores"
    ~threads:[ [ St (x, 1); Ld (0, y) ]; [ St (y, 1); Ld (0, x) ] ]
    ~observed_regs:[ (0, 0); (1, 0) ] ~target:[ 0; 0 ] ~allowed_tso:true ~allowed_sc:false ()

(* SB with MFENCE after each store: the fence drains the buffer, restoring
   SC for this shape — exactly the paper's handshake store-fence. *)
let sb_mfence =
  test ~name:"SB+mfence" ~description:"store buffering with MFENCEs: forbidden"
    ~threads:[ [ St (x, 1); Mf; Ld (0, y) ]; [ St (y, 1); Mf; Ld (0, x) ] ]
    ~observed_regs:[ (0, 0); (1, 0) ] ~target:[ 0; 0 ] ~allowed_tso:false ~allowed_sc:false ()

(* SB with LOCK'd stores: LOCK'd instructions flush, as the collector's CAS
   does (Section 2.3). *)
let sb_xchg =
  test ~name:"SB+xchg" ~description:"store buffering with LOCK XCHG stores: forbidden"
    ~threads:[ [ Xchg (1, x, 1); Ld (0, y) ]; [ Xchg (1, y, 1); Ld (0, x) ] ]
    ~observed_regs:[ (0, 0); (1, 0) ] ~target:[ 0; 0 ] ~allowed_tso:false ~allowed_sc:false ()

(* MP: message passing — TSO keeps same-thread stores in order and loads in
   order, so the stale read is forbidden. *)
let mp =
  test ~name:"MP" ~description:"message passing: stale data read is forbidden under TSO"
    ~threads:[ [ St (x, 1); St (y, 1) ]; [ Ld (0, y); Ld (1, x) ] ]
    ~observed_regs:[ (1, 0); (1, 1) ] ~target:[ 1; 0 ] ~allowed_tso:false ~allowed_sc:false ()

(* LB: load buffering — needs load-store reordering, which TSO forbids. *)
let lb =
  test ~name:"LB" ~description:"load buffering: forbidden under TSO"
    ~threads:[ [ Ld (0, x); St (y, 1) ]; [ Ld (0, y); St (x, 1) ] ]
    ~observed_regs:[ (0, 0); (1, 0) ] ~target:[ 1; 1 ] ~allowed_tso:false ~allowed_sc:false ()

(* CoRR: per-location coherence — reads of one location never go backwards. *)
let corr =
  test ~name:"CoRR" ~description:"read-read coherence on one location"
    ~threads:[ [ St (x, 1) ]; [ Ld (0, x); Ld (1, x) ] ]
    ~observed_regs:[ (1, 0); (1, 1) ] ~target:[ 1; 0 ] ~allowed_tso:false ~allowed_sc:false ()

(* IRIW: independent reads of independent writes — forbidden because TSO
   commits stores to a single shared memory (multi-copy atomic). *)
let iriw =
  test ~name:"IRIW" ~description:"independent reads of independent writes: forbidden"
    ~threads:
      [ [ St (x, 1) ]; [ St (y, 1) ]; [ Ld (0, x); Ld (1, y) ]; [ Ld (0, y); Ld (1, x) ] ]
    ~observed_regs:[ (2, 0); (2, 1); (3, 0); (3, 1) ]
    ~target:[ 1; 0; 1; 0 ] ~allowed_tso:false ~allowed_sc:false ()

(* WRC: write-to-read causality — forbidden under TSO. *)
let wrc =
  test ~name:"WRC" ~description:"write-to-read causality: forbidden"
    ~threads:[ [ St (x, 1) ]; [ Ld (0, x); St (y, 1) ]; [ Ld (0, y); Ld (1, x) ] ]
    ~observed_regs:[ (1, 0); (2, 0); (2, 1) ]
    ~target:[ 1; 1; 0 ] ~allowed_tso:false ~allowed_sc:false ()

(* n6 (Sewell et al. example): store-buffer forwarding lets a thread read
   its own uncommitted store while missing another thread's committed one —
   allowed under TSO, impossible under SC. *)
let n6 =
  test ~name:"n6" ~description:"intra-thread forwarding (allowed TSO, forbidden SC)"
    ~observed_mem:[ x ]
    ~threads:[ [ St (x, 1); Ld (0, x); Ld (1, y) ]; [ St (y, 2); St (x, 2) ] ]
    ~observed_regs:[ (0, 0); (0, 1) ]
    ~target:[ 1; 0; 1 ] ~allowed_tso:true ~allowed_sc:false ()

(* 2+2W: write-write reordering across threads — forbidden, since buffers
   are FIFO. *)
let w2plus2 =
  test ~name:"2+2W" ~description:"2+2W: cross write-write reordering forbidden"
    ~observed_mem:[ x; y ]
    ~threads:[ [ St (x, 1); St (y, 2) ]; [ St (y, 1); St (x, 2) ] ]
    ~observed_regs:[] ~target:[ 1; 1 ] ~allowed_tso:false ~allowed_sc:false ()

let all = [ sb; sb_mfence; sb_xchg; mp; lb; corr; iriw; wrc; n6; w2plus2 ]

let run_all () = List.map Litmus.run all

(* -- PSO probes (extension): with per-address-only FIFO, MP's stale read
   and 2+2W's write inversion become observable, SB stays observable, and
   single-location coherence (CoRR) and fenced SB stay forbidden.  These
   validate the Sys process's PSO mode, which E13 runs the collector on. *)

let run_pso () =
  List.map
    (fun (t, expect) ->
      let outcomes, _ = Litmus.outcomes ~mode:Core.Config.PSO t in
      (t.Litmus.name, expect, List.mem t.Litmus.target outcomes))
    [ (mp, true); (w2plus2, true); (sb, true); (corr, false); (sb_mfence, false) ]

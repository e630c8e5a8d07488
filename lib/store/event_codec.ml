let label_bits = 20
let pid_bits = 10

(* Keyed on the hash each label carries, so encoding a transition hashes
   no string. *)
module Ids = Hashtbl.Make (Cimp.Label)

type t = { ids : int Ids.t; labels : Cimp.Label.t array }

let of_system sys =
  let ids = Ids.create 256 in
  let rev = ref [] in
  let n = ref 0 in
  for p = 0 to Cimp.System.n_procs sys - 1 do
    List.iter
      (fun l ->
        if not (Ids.mem ids l) then begin
          Ids.add ids l !n;
          rev := l :: !rev;
          incr n
        end)
      (List.concat_map Cimp.Com.labels (Cimp.System.proc sys p).Cimp.Com.stack)
  done;
  if !n >= 1 lsl label_bits then invalid_arg "Event_codec: too many labels to pack";
  if Cimp.System.n_procs sys >= 1 lsl pid_bits then
    invalid_arg "Event_codec: too many processes to pack";
  { ids; labels = Array.of_list (List.rev !rev) }

let label_id t l =
  match Ids.find_opt t.ids l with
  | Some i -> i
  | None -> invalid_arg ("Event_codec: label not in the initial program: " ^ Cimp.Label.name l)

let encode t = function
  | Cimp.System.Tau (p, l) -> (p lsl label_bits) lor label_id t l
  | Cimp.System.Rendezvous { requester; req_label; responder; resp_label } ->
    (1 lsl 62)
    lor (requester lsl 50)
    lor (label_id t req_label lsl 30)
    lor (responder lsl label_bits)
    lor label_id t resp_label

let decode t code =
  let lmask = (1 lsl label_bits) - 1 in
  let pmask = (1 lsl pid_bits) - 1 in
  if (code lsr 62) land 1 = 0 then
    Cimp.System.Tau ((code lsr label_bits) land pmask, t.labels.(code land lmask))
  else
    Cimp.System.Rendezvous
      {
        requester = (code lsr 50) land pmask;
        req_label = t.labels.((code lsr 30) land lmask);
        responder = (code lsr label_bits) land pmask;
        resp_label = t.labels.(code land lmask);
      }

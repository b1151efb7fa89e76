(* Slot layout of the counter: frames in, frames out, then one slot per
   drop reason. The match is exhaustive, so a new reason must be given
   a slot here before anything compiles. *)
let slot_in = 0
let slot_out = 1

let slot : Trace.drop_reason -> int = function
  | Crc -> 2
  | Unbound -> 3
  | No_buffer -> 4
  | No_vc -> 5
  | No_pktbuf -> 6
  | Dpf_miss -> 7
  | Too_big -> 8
  | Queue_full -> 9
  | Dup_seq -> 10
  | Stale_seq -> 11
  | Repl_gap -> 12

let slots = 13

type t = { nic : string; counts : int array }

let create nic = { nic; counts = Array.make slots 0 }

let bump t i = t.counts.(i) <- t.counts.(i) + 1

let frame_in t = bump t slot_in
let frame_out t = bump t slot_out

let drop t reason =
  bump t (slot reason);
  if Trace.enabled () then
    Trace.emit (Trace.Pkt_drop { nic = t.nic; reason })

let frames_in t = t.counts.(slot_in)
let frames_out t = t.counts.(slot_out)
let dropped t reason = t.counts.(slot reason)

let drops t =
  let n = ref 0 in
  for i = slot_out + 1 to slots - 1 do
    n := !n + t.counts.(i)
  done;
  !n

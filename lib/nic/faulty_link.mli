(** A {!Link} with an optional {!Ash_sim.Fault} plan on it.

    Both NIC models transmit through this wrapper. With no plan
    installed (the default) it is a pass-through. With a plan, each
    frame is offered to the plan after the sender's CRC is computed:
    dropped frames still occupy the wire but never deliver, corrupted
    and truncated frames arrive damaged (the receiver's link CRC catches
    them), duplicates deliver twice, and reordered/jittered frames
    deliver late so later traffic overtakes them. Every injection emits
    {!Ash_obs.Trace.kind.Fault_injected} under the ambient correlation
    id, so faults land in the same causal chain as their victim. *)

type t

val wrap : Link.t -> nic:string -> t
(** No plan installed; [nic] names the trace emission site. *)

val set_plan : t -> Ash_sim.Fault.t option -> unit
(** Install (or clear) the fault plan for this transmit direction. *)

val plan : t -> Ash_sim.Fault.t option

val transmit :
  t ->
  ?deliver_via:Ash_sim.Engine.exec ->
  wire_bytes:int ->
  frame:Bytes.t ->
  (Bytes.t -> unit) ->
  unit
(** [transmit t ~wire_bytes ~frame deliver]: put [frame] on the wire
    ([wire_bytes] is the occupancy charge, which may exceed the frame —
    Ethernet framing); [deliver] receives the bytes that actually
    arrive, possibly mutated, truncated, or twice. With no plan, [deliver]
    gets [frame] itself, so the sender must leave it unmodified; with a
    plan, the plan works on a private copy (it may damage it, or deliver
    it after the sender was acked and reused its buffer), and [frame] is
    never written. The payload each copy delivers is computed
    here, at transmit time, so [deliver_via] (see {!Link.transmit}) can
    hand the arrival to another shard without touching source-shard
    state. *)

val busy_until : t -> Ash_sim.Time.ns

(** One direction of a point-to-point wire, with an optional
    {!Ash_sim.Fault} plan on it.

    Frames occupy the wire for [bytes * ns_per_byte] and are delivered
    [fixed_ns] after their wire time completes (host-interface + switch
    + DMA overhead). Back-to-back transmissions queue behind each other,
    which is what bounds train throughput in Fig. 3.

    Every wire in the fabric is one of these: both NIC models transmit
    through it, and the switch's egress ports too. With no plan
    installed (the default) the sender's frame crosses untouched. With
    a plan, each frame is offered to the plan after the sender's CRC is
    computed: dropped frames still occupy the wire but never deliver,
    corrupted and truncated frames arrive damaged (the receiver's link
    CRC catches them), duplicates deliver twice, and reordered/jittered
    frames deliver late so later traffic overtakes them — their wire
    occupancy is unchanged. Every injection emits
    {!Ash_obs.Trace.kind.Fault_injected} under the ambient correlation
    id, before the frame's [Wire_tx], so faults land in the same causal
    chain as their victim. *)

type t

val create :
  Ash_sim.Engine.t ->
  nic:string ->
  ?pkt_occupancy_ns:int ->
  fixed_ns:int ->
  ns_per_byte:float ->
  unit ->
  t
(** No plan installed; [nic] names the fault-injection trace site.
    [pkt_occupancy_ns] is a fixed per-frame occupancy (host-interface
    descriptor handling, cell framing) serialized with the byte time;
    [fixed_ns] is pipelined latency added after the frame leaves the
    wire. *)

val set_plan : t -> Ash_sim.Fault.t option -> unit
(** Install (or clear) the fault plan for this direction. *)

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
    arrive, possibly mutated, truncated, or twice. With no plan,
    [deliver] gets [frame] itself, so the sender must leave it
    unmodified; with a plan, the plan works on a private copy (it may
    damage it, or deliver it after the sender was acked and reused its
    buffer), and [frame] is never written. The payload each copy
    delivers is computed here, at transmit time. [deliver_via]
    schedules the arrival through the given executor instead of this
    link's own engine, so a sharded fabric can run the receive side on
    the destination shard; the transmit-side state (wire occupancy,
    trace emission) stays on the caller's shard. *)

val busy_until : t -> Ash_sim.Time.ns
(** When the wire frees up (for tests and utilization stats). *)

(** The 10-Mb/s Lance-style Ethernet model (§IV-A, §V-A1).

    Two properties drive the paper's Ethernet results, both modeled:
    - the device owns a small ring of kernel receive buffers ("the
      network buffers available to the device to receive into are
      limited, and therefore a message must not stay in them very long
      ... at least one copy is always necessary");
    - its DMA engine {e stripes} an N-byte packet into a 2N-byte buffer,
      alternating 16 bytes of data with 16 bytes of padding (§III-C) —
      so the mandatory copy out of the ring is a de-striping copy, and
      interface-specific DILP back ends must exist.

    Demultiplexing is done in software (the DPF engine in the kernel),
    not by the board: every arriving frame is handed to the single
    driver handler. *)

type t

type rx = {
  ring_addr : int;   (** Striped landing area in the device ring. *)
  len : int;         (** Payload length (data bytes, un-striped). *)
  crc_ok : bool;
}

val create : Ash_sim.Engine.t -> Ash_sim.Machine.t -> t
(** Allocates the device's receive ring ([eth_rx_ring_slots] buffers of
    [2 * eth_mtu] bytes) out of the machine's memory. *)

val connect : t -> t -> unit
(** Wire two NICs back to back (the two-node testbed). Mutually
    exclusive with {!attach_fabric}. *)

val broadcast_mac : int
(** The all-ones station address (48 bits). *)

val set_mac : t -> int -> unit
(** Station address used as [src_mac] on a switched fabric (low 48
    bits; default {!broadcast_mac}). *)

val mac : t -> int

val set_route : t -> (Bytes.t -> int option) -> unit
(** Install the destination-address hook consulted per transmitted
    frame on a switched fabric: the model's frames carry no Ethernet
    header (demux filters read the IP/ARP payload directly), so the
    destination station travels out of band. [None] (or no hook)
    means broadcast. Unused in point-to-point mode. *)

val attach_fabric :
  ?ingress_via:Ash_sim.Engine.exec ->
  t ->
  ingress:(src_mac:int -> dst_mac:int -> frame:Bytes.t -> crc_sent:int32 ->
           unit) ->
  unit
(** Attach this NIC to a switch port: builds the host-to-switch wire
    (same rate model as {!connect}) and hands every transmitted frame,
    once it has fully crossed that wire, to [ingress] together with the
    out-of-band addresses and the sender-computed CRC. On a sharded
    fabric [ingress_via] is the switch shard's executor, so ingress
    runs where the switch state lives. Mutually exclusive with
    {!connect}. Called by {!Switch.attach}. *)

val set_rx_exec : t -> Ash_sim.Engine.exec -> unit
(** Register the executor for this NIC's receive side. The switch uses
    it as the [deliver_via] of the switch-to-host wire, so the frame's
    DMA, CRC check, and driver upcall all run on the shard that owns
    this NIC's kernel. *)

val rx_exec : t -> Ash_sim.Engine.exec option

val deliver_frame : t -> payload:Bytes.t -> crc_sent:int32 -> unit
(** Egress entry used by the switch: DMA the frame into the receive
    ring (striped), verify [crc_sent] against the received bytes, and
    run the driver handler — exactly the point-to-point receive path. *)

val set_rx_handler : t -> (rx -> unit) -> unit

val transmit : t -> Bytes.t -> unit
(** Send a frame to the peer. Short frames are padded to the 64-byte
    minimum on the wire (the receiver still sees the true length).
    Raises [Invalid_argument] if the payload exceeds the MTU. Ownership
    passes to the stack as on {!An2.transmit}: the caller must not
    mutate the frame once sent. *)

val release_buffer : t -> ring_addr:int -> unit
(** Return a ring buffer to the device after the driver has copied the
    packet out. Raises [Invalid_argument] for an address that is not a
    ring slot or that is not outstanding. *)

val destripe : t -> rx -> dst:int -> unit
(** The mandatory copy out of the ring: gathers the 16-byte data chunks
    of a striped packet into a contiguous buffer at [dst], charging the
    machine through the normal copy-cost model. *)

val corrupt_next_frame : t -> unit

val set_fault_plan : t -> Ash_sim.Fault.t option -> unit
(** Install (or clear) a deterministic fault plan on this NIC's
    transmit direction (see {!An2.set_fault_plan}); on a fabric this is
    the host-to-switch wire (use {!Switch.set_fault_plan} for the
    switch-to-host direction). Raises [Invalid_argument] if not
    connected. *)

val rx_hop : t -> Ash_obs.Hop.t
(** The device's receive side: in, every frame off the wire; out,
    every frame DMA'd into a ring slot and handed to the driver (a CRC
    failure included); dropped as [No_buffer] when every slot is still
    held by the driver. *)

val rx_crc_errors : t -> int
(** Frames handed to the driver with a failed CRC verdict. *)

val outstanding_buffers : t -> int

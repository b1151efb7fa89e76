(** A store-and-forward Ethernet switch: the many-host fabric.

    N ports, each wired to one {!Ethernet} NIC. A frame fully crosses
    the host-to-switch wire ({!Ethernet.attach_fabric}), then the
    switch learns the source station's port, looks up the destination
    and queues the frame on the egress port — or floods every other
    attached port when the destination is unknown or broadcast.

    Each egress port has a {e finite} output queue ([queue_limit]
    frames): a frame arriving at a full queue is tail-dropped as
    [Queue_full] at the port's {!port_hop} —
    congestion at a shared destination (the scale suite's single server
    host) shows up here, and the transports recover end to end.

    The switch never recomputes CRCs: the sender's CRC rides with the
    frame through the store-and-forward hop, so corruption injected on
    either wire (see {!set_fault_plan}) is caught by the receiving
    NIC's link CRC exactly as on a point-to-point segment.

    Everything is deterministic: FIFO queues, array-ordered flooding,
    and the shared engine's FIFO-at-same-instant event order. *)

type t

type stats = {
  forwarded : int;   (** Known-unicast relays. *)
  flooded : int;     (** Unknown-destination or broadcast frames (counted
                         once per ingress frame, not per copy). *)
}

val create :
  Ash_sim.Engine.t ->
  ?queue_limit:int ->
  costs:Ash_sim.Costs.t ->
  ports:int ->
  unit ->
  t
(** [queue_limit] (default 16, ≥ 1) bounds each egress queue. [costs]
    sets the per-port wire rate (Ethernet constants). *)

val attach : t -> port:int -> Ethernet.t -> unit
(** Wire a NIC to a port: builds the switch-to-host wire and registers
    the switch as the NIC's fabric. Raises [Invalid_argument] if the
    port is out of range or already attached. *)

val attach_rss : t -> port:int -> Ethernet.t array -> unit
(** Wire a multi-queue host to a port: all rings share the port (and
    its single switch-to-host wire), and each egressing frame is
    steered to one ring by the {!Rss} flow hash — computed on the
    queued, pre-corruption frame, so damaged frames still land on
    their flow's ring. Each ring keeps its own host-to-switch TX wire
    (independent DMA channels). Ring 0 is the port's nominal NIC
    (unparseable frames, e.g. ARP, land there). *)

val set_exec : t -> Ash_sim.Engine.exec -> unit
(** Register the executor of the shard that owns this switch. Must be
    called before {!attach}/{!attach_rss}: attached NICs use it to run
    switch ingress on the switch's shard. *)

val num_ports : t -> int

val set_fault_plan : t -> port:int -> Ash_sim.Fault.t option -> unit
(** Install (or clear) a deterministic fault plan on the
    switch-to-host direction of a port — a lossy egress port. *)

val lookup_port : t -> mac:int -> int option
(** The learned station table (for tests). *)

val port_hop : t -> port:int -> Ash_obs.Hop.t
(** A port's egress: in, every frame offered to the attached port
    (one per flooded copy); out, every frame put on its switch-to-host
    wire; dropped as [Queue_full] at the queue bound. The difference
    [in - out - drops] is the queue length, zero once the fabric has
    run to quiescence. An unattached port's hop stays at zero. *)

val queue_peak : t -> port:int -> int
(** High-water mark of a port's egress queue depth. *)

val stats : t -> stats

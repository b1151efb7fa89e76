(** The AN2 ATM network interface model (§IV-A).

    Properties the paper's experiments depend on, all modeled here:
    - demultiplexing by virtual-circuit identifier, done by the board;
    - DMA of arriving frames directly into application-provided,
      pinned receive buffers ("providing a section of their memory for
      messages to be DMA'ed to") — the basis of zero-copy delivery;
    - a per-VC notification ring shared between kernel and user;
    - a link-level CRC computed by the board, which the "no checksum"
      protocol configurations rely on (§IV-D);
    - ~48-us fixed hardware cost per one-way message and a ~16.8-MB/s
      link, from the 96-us hardware round trip and Fig. 3's plateau.

    The driver (our simulated kernel) registers an [rx] handler; the
    model calls it after DMA completes. The handler is responsible for
    the software cache flush of the landing area and all CPU-side cost
    accounting. *)

type t

type rx = {
  vc : int;
  addr : int;      (** Where the frame landed (application memory). *)
  len : int;       (** Frame length. *)
  buf_len : int;   (** Capacity of the consumed receive buffer (for
                       reposting it). *)
  crc_ok : bool;   (** Board-computed CRC verdict. *)
}

val create : Ash_sim.Engine.t -> Ash_sim.Machine.t -> t
(** A NIC attached to the given machine; link parameters come from the
    machine's cost profile. *)

val connect : t -> t -> unit
(** Wire two NICs together full duplex (the two-DECstation testbed with
    an AN2 switch between them). Raises [Invalid_argument] if either
    side is already connected. *)

val bind_vc : t -> vc:int -> unit
(** Open a virtual circuit for receiving. Raises [Invalid_argument] if
    already bound. *)

val unbind_vc : t -> vc:int -> unit
(** Close a virtual circuit: subsequent arrivals on it drop as
    [No_vc] at {!rx_hop}, and still-posted buffers are forgotten. Raises
    [Invalid_argument] if not bound. *)

val post_buffer : t -> vc:int -> addr:int -> len:int -> unit
(** Give the board a pinned receive buffer for the VC (applications
    "use those message buffers directly, as long as [they] eventually
    return or replace them"). Buffers are consumed in FIFO order. *)

val free_buffers : t -> vc:int -> int

val set_rx_handler : t -> (rx -> unit) -> unit

val transmit : t -> vc:int -> Bytes.t -> unit
(** Queue a frame for the peer. Raises [Failure] if not connected, or
    [Invalid_argument] if the frame exceeds the board's maximum
    (4 KB in our configuration, comfortably above the 3072-byte MSS).
    The stack owns the frame from here on and the caller must not
    mutate it: without injected faults its bytes go on the wire
    uncopied. {!corrupt_next_frame} and a fault plan damage a private
    copy, never the caller's buffer. *)

val corrupt_next_frame : t -> unit
(** Fault injection: flip a bit in the next transmitted frame so the
    peer's board reports a CRC error. *)

val set_fault_plan : t -> Ash_sim.Fault.t option -> unit
(** Install (or clear) a deterministic fault plan on this NIC's
    transmit direction — per-direction, so an asymmetric network is two
    plans. Raises [Invalid_argument] if not connected. Corrupted and
    truncated frames surface at the peer as CRC errors, exactly like
    {!corrupt_next_frame}'s damage; the board's payload CRC is the AN2's
    payload-integrity check. *)

val fault_plan : t -> Ash_sim.Fault.t option

val rx_hop : t -> Ash_obs.Hop.t
(** The board's receive side: in, every frame off the wire; out, every
    frame DMA'd into a posted buffer and handed to the driver (a CRC
    failure included); dropped as [No_vc] (closed VC), [No_buffer]
    (nothing posted) or [Too_big] (frame larger than the next posted
    buffer). *)

val rx_crc_errors : t -> int
(** Frames handed to the driver with a failed CRC verdict. The kernel
    drops them at its receive boundary, not the board. *)

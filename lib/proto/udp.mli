(** The user-level UDP library (§IV-D): "a straightforward
    implementation of the UDP protocol as specified in RFC 768", linked
    into the application and running over the raw AN2 or Ethernet
    interface.

    Delivery configurations mirror Table II's rows:
    - [in_place = true]: the application consumes the payload where the
      board DMA'ed it (zero copy); otherwise the library copies it into
      an application data buffer through a traditional read interface.
    - [checksum = true]: the library computes/verifies the end-to-end
      Internet checksum over the payload (non-integrated: a separate
      traversal, like a conventional stack).

    On AN2 the socket is demultiplexed by virtual circuit ("the UDP
    implementation currently uses only the VC index"); on Ethernet a DPF
    filter on the UDP destination port does the demux. *)

type medium =
  | An2 of { vc : int }
  | Ethernet  (** demux by a compiled DPF filter on the UDP port. *)

type config = {
  medium : medium;
  local_ip : int;
  local_port : int;
  remote_ip : int;
  remote_port : int;
  checksum : bool;
  in_place : bool;
  rx_buffers : int;     (** Receive buffers to pin and post (AN2). *)
  mtu_payload : int;    (** Maximum UDP payload this socket accepts. *)
}

val default_config : config
(** AN2 VC 5, ports 7000->7001, checksum off, copy mode, 8 buffers,
    3044-byte max payload (3072-byte AN2 MTU minus headers). *)

type t

type stats = {
  tx_datagrams : int;
  rx_datagrams : int;
  rx_bad_header : int;
  rx_bad_checksum : int;
}

val create : Ash_kern.Kernel.t -> config -> t
(** Binds the demux point, allocates and posts receive buffers, installs
    the receive path. *)

val set_receiver : t -> (addr:int -> len:int -> unit) -> unit
(** Application datagram handler. [addr] is the payload's address in
    application memory: inside the receive buffer for [in_place]
    sockets, inside the library's application-side data buffer after the
    read-interface copy otherwise. The buffer is valid until the handler
    returns. *)

val send : t -> addr:int -> len:int -> unit
(** Send [len] payload bytes from application memory: allocates a send
    buffer, copies the payload into it, fills IP/UDP headers, optionally
    checksums, and transmits via the user send path. Raises
    [Invalid_argument] if [len] exceeds the configured maximum. *)

val send_string : t -> string -> unit
(** Convenience for examples: stage a string into the socket's staging
    region, then {!send}. *)

val stats : t -> stats

(** Wire formats: IPv4, UDP and TCP headers (RFC 791/768/793 subsets).

    These are the real big-endian layouts, built and parsed over
    [Bytes.t] for frames and over simulated {!Ash_sim.Memory.t} for
    zero-copy header inspection. One deliberate simplification, recorded
    in DESIGN.md: the UDP/TCP checksum field covers the {e payload} only
    (header integrity is protected by the link CRC in our testbed, and
    the paper's "with checksum" configurations are about end-to-end
    payload checksumming costs). *)

val ip_header_len : int (* 20 *)
val udp_header_len : int (* 8 *)
val tcp_header_len : int (* 20 *)

module Ip : sig
  type t = {
    src : int;            (** 32-bit address. *)
    dst : int;
    proto : int;          (** 6 = TCP, 17 = UDP. *)
    total_len : int;      (** Header + payload. *)
    ttl : int;
    id : int;
  }

  val proto_udp : int
  val proto_tcp : int
  val off_proto : int (* field offsets: 8-bit protocol, 32-bit addresses *)
  val off_src : int
  val off_dst : int

  val write : Bytes.t -> off:int -> t -> unit
  (** Fills all 20 bytes including the header checksum. *)

  val read : Bytes.t -> off:int -> (t, string) result
  (** Validates version, header length and header checksum. *)
end

module Udp : sig
  type t = {
    src_port : int;
    dst_port : int;
    length : int;         (** Header + payload, per RFC 768. *)
    checksum : int;       (** 0 = not computed. *)
  }

  val write : Bytes.t -> off:int -> t -> unit
  val read : Bytes.t -> off:int -> (t, string) result

  val off_src_port : int (* 16-bit field offsets *)
  val off_dst_port : int
  val off_length : int

  val dst_port_filter : int -> Ash_kern.Dpf.t
  (** The DPF filter that accepts IPv4 UDP datagrams to this port. *)
end

module Tcp : sig
  type flags = { syn : bool; ack : bool; fin : bool; rst : bool; psh : bool }

  val flags_none : flags
  val flag_ack : flags
  val flag_syn : flags
  val flag_synack : flags
  val flag_fin_ack : flags

  type t = {
    src_port : int;
    dst_port : int;
    seq : int;            (** 32-bit sequence number. *)
    ack : int;
    flags : flags;
    window : int;
    checksum : int;
  }

  val write : Bytes.t -> off:int -> t -> unit
  val read : Bytes.t -> off:int -> (t, string) result

  (* Field offsets within the TCP header, shared with the fast-path ASH
     generator so VM code and OCaml code agree on the layout. *)
  val off_src_port : int
  val off_dst_port : int
  val off_seq : int
  val off_ack : int
  val off_dataoff_flags : int (* 16-bit: data offset + reserved + flags *)
  val off_window : int
  val off_checksum : int

  val flags_bits : flags -> int
  (** The low 6 flag bits as they appear in the [dataoff_flags] word
      (data-offset bits excluded). *)
end

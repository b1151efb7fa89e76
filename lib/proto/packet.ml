module Bytesx = Ash_util.Bytesx
module Checksum = Ash_util.Checksum

let ip_header_len = 20
let udp_header_len = 8
let tcp_header_len = 20

module Ip = struct
  type t = {
    src : int;
    dst : int;
    proto : int;
    total_len : int;
    ttl : int;
    id : int;
  }

  let proto_udp = 17
  let proto_tcp = 6
  let off_proto = 9
  let off_src = 12
  let off_dst = 16

  let write b ~off t =
    Bytesx.set_u8 b off 0x45; (* version 4, IHL 5 *)
    Bytesx.set_u8 b (off + 1) 0; (* TOS *)
    Bytesx.set_u16 b (off + 2) t.total_len;
    Bytesx.set_u16 b (off + 4) t.id;
    Bytesx.set_u16 b (off + 6) 0; (* flags/fragment *)
    Bytesx.set_u8 b (off + 8) t.ttl;
    Bytesx.set_u8 b (off + off_proto) t.proto;
    Bytesx.set_u16 b (off + 10) 0; (* checksum placeholder *)
    Bytesx.set_u32 b (off + off_src) t.src;
    Bytesx.set_u32 b (off + off_dst) t.dst;
    let c = Checksum.checksum b ~off ~len:ip_header_len in
    Bytesx.set_u16 b (off + 10) c

  let read b ~off =
    if off + ip_header_len > Bytes.length b then Error "ip: truncated header"
    else if Bytesx.get_u8 b off <> 0x45 then Error "ip: bad version/ihl"
    else if not (Checksum.verify b ~off ~len:ip_header_len) then
      Error "ip: bad header checksum"
    else
      Ok
        {
          src = Bytesx.get_u32 b (off + off_src);
          dst = Bytesx.get_u32 b (off + off_dst);
          proto = Bytesx.get_u8 b (off + off_proto);
          total_len = Bytesx.get_u16 b (off + 2);
          ttl = Bytesx.get_u8 b (off + 8);
          id = Bytesx.get_u16 b (off + 4);
        }
end

module Udp = struct
  type t = { src_port : int; dst_port : int; length : int; checksum : int }

  let off_src_port = 0
  let off_dst_port = 2
  let off_length = 4

  let write b ~off t =
    Bytesx.set_u16 b (off + off_src_port) t.src_port;
    Bytesx.set_u16 b (off + off_dst_port) t.dst_port;
    Bytesx.set_u16 b (off + off_length) t.length;
    Bytesx.set_u16 b (off + 6) t.checksum

  let read b ~off =
    if off + udp_header_len > Bytes.length b then Error "udp: truncated header"
    else
      Ok
        {
          src_port = Bytesx.get_u16 b (off + off_src_port);
          dst_port = Bytesx.get_u16 b (off + off_dst_port);
          length = Bytesx.get_u16 b (off + off_length);
          checksum = Bytesx.get_u16 b (off + 6);
        }

  let dst_port_filter port =
    [
      Ash_kern.Dpf.atom ~offset:Ip.off_proto ~width:1 Ip.proto_udp;
      Ash_kern.Dpf.atom ~offset:(ip_header_len + off_dst_port) ~width:2 port;
    ]
end

module Tcp = struct
  type flags = { syn : bool; ack : bool; fin : bool; rst : bool; psh : bool }

  let flags_none = { syn = false; ack = false; fin = false; rst = false;
                     psh = false }

  let flag_ack = { flags_none with ack = true }
  let flag_syn = { flags_none with syn = true }
  let flag_synack = { flags_none with syn = true; ack = true }
  let flag_fin_ack = { flags_none with fin = true; ack = true }

  type t = {
    src_port : int;
    dst_port : int;
    seq : int;
    ack : int;
    flags : flags;
    window : int;
    checksum : int;
  }

  let off_src_port = 0
  let off_dst_port = 2
  let off_seq = 4
  let off_ack = 8
  let off_dataoff_flags = 12
  let off_window = 14
  let off_checksum = 16

  let flags_bits f =
    (if f.fin then 1 else 0)
    lor (if f.syn then 2 else 0)
    lor (if f.rst then 4 else 0)
    lor (if f.psh then 8 else 0)
    lor if f.ack then 16 else 0

  let write b ~off t =
    Bytesx.set_u16 b (off + off_src_port) t.src_port;
    Bytesx.set_u16 b (off + off_dst_port) t.dst_port;
    Bytesx.set_u32 b (off + off_seq) t.seq;
    Bytesx.set_u32 b (off + off_ack) t.ack;
    (* data offset 5 words in the high nibble *)
    Bytesx.set_u16 b (off + off_dataoff_flags) (0x5000 lor flags_bits t.flags);
    Bytesx.set_u16 b (off + off_window) t.window;
    Bytesx.set_u16 b (off + off_checksum) t.checksum;
    Bytesx.set_u16 b (off + 18) 0 (* urgent pointer *)

  let read b ~off =
    if off + tcp_header_len > Bytes.length b then Error "tcp: truncated header"
    else begin
      let df = Bytesx.get_u16 b (off + off_dataoff_flags) in
      if df lsr 12 <> 5 then Error "tcp: options unsupported"
      else
        Ok
          {
            src_port = Bytesx.get_u16 b (off + off_src_port);
            dst_port = Bytesx.get_u16 b (off + off_dst_port);
            seq = Bytesx.get_u32 b (off + off_seq);
            ack = Bytesx.get_u32 b (off + off_ack);
            flags =
              {
                fin = df land 1 <> 0;
                syn = df land 2 <> 0;
                rst = df land 4 <> 0;
                psh = df land 8 <> 0;
                ack = df land 16 <> 0;
              };
            window = Bytesx.get_u16 b (off + off_window);
            checksum = Bytesx.get_u16 b (off + off_checksum);
          }
    end
end

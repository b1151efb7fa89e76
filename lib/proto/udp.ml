module Kernel = Ash_kern.Kernel
module Machine = Ash_sim.Machine
module Memory = Ash_sim.Memory
module Baseline = Ash_pipes.Baseline

type medium = An2 of { vc : int } | Ethernet

type config = {
  medium : medium;
  local_ip : int;
  local_port : int;
  remote_ip : int;
  remote_port : int;
  checksum : bool;
  in_place : bool;
  rx_buffers : int;
  mtu_payload : int;
}

let default_config =
  {
    medium = An2 { vc = 5 };
    local_ip = 0x0a000001;
    local_port = 7000;
    remote_ip = 0x0a000002;
    remote_port = 7001;
    checksum = false;
    in_place = false;
    rx_buffers = 8;
    mtu_payload = 3072 - Packet.ip_header_len - Packet.udp_header_len;
  }

type stats = {
  tx_datagrams : int;
  rx_datagrams : int;
  rx_bad_header : int;
  rx_bad_checksum : int;
}

type t = {
  kernel : Kernel.t;
  cfg : config;
  send_buf : Memory.region;
  staging : Memory.region;
  app_buf : Memory.region;
  mutable receiver : (addr:int -> len:int -> unit) option;
  mutable ip_id : int;
  mutable s_tx : int;
  mutable s_rx : int;
  mutable s_bad_hdr : int;
  mutable s_bad_cksum : int;
}

let headers_len = Packet.ip_header_len + Packet.udp_header_len

(* The receive path of the library: header validation, optional
   end-to-end checksum, then either in-place delivery or the
   read-interface copy into application data structures (§IV-D). *)
let on_datagram_body t ~addr ~len =
  let m = Kernel.machine t.kernel in
  Kernel.app_compute t.kernel Protocost.udp_rx_overhead_ns;
  if len < headers_len then t.s_bad_hdr <- t.s_bad_hdr + 1
  else begin
    (* Touch the header fields the real code reads (charged loads),
       then validate logically over a host-side view. *)
    let udp = addr + Packet.ip_header_len in
    ignore (Machine.load16 m addr);
    ignore (Machine.load32 m (addr + Packet.Ip.off_src));
    ignore (Machine.load16 m (udp + Packet.Udp.off_dst_port));
    ignore (Machine.load16 m (udp + Packet.Udp.off_length));
    let view = Bytes.create headers_len in
    Memory.blit_to_bytes (Machine.mem m) ~src:addr ~dst:view ~dst_off:0
      ~len:headers_len;
    match Packet.Ip.read view ~off:0 with
    | Error _ -> t.s_bad_hdr <- t.s_bad_hdr + 1
    | Ok ip ->
      if ip.Packet.Ip.proto <> Packet.Ip.proto_udp
         || ip.Packet.Ip.total_len > len
      then t.s_bad_hdr <- t.s_bad_hdr + 1
      else begin
        match Packet.Udp.read view ~off:Packet.ip_header_len with
        | Error _ -> t.s_bad_hdr <- t.s_bad_hdr + 1
        | Ok udp ->
          let plen = udp.Packet.Udp.length - Packet.udp_header_len in
          if plen < 0 || udp.Packet.Udp.dst_port <> t.cfg.local_port
             || headers_len + plen > len
          then t.s_bad_hdr <- t.s_bad_hdr + 1
          else begin
            let payload = addr + headers_len in
            let cksum_ok =
              if not t.cfg.checksum then true
              else begin
                Kernel.app_compute t.kernel Protocost.cksum_call_overhead_ns;
                Baseline.cksum16_pass m ~addr:payload ~len:plen
                = udp.Packet.Udp.checksum
              end
            in
            if not cksum_ok then t.s_bad_cksum <- t.s_bad_cksum + 1
            else begin
              t.s_rx <- t.s_rx + 1;
              let deliver_addr =
                if t.cfg.in_place then payload
                else begin
                  (* Traditional read interface: copy into the
                     application's data structures. *)
                  Machine.copy m ~src:payload ~dst:t.app_buf.Memory.base
                    ~len:plen;
                  t.app_buf.Memory.base
                end
              in
              match t.receiver with
              | Some f -> f ~addr:deliver_addr ~len:plen
              | None -> ()
            end
          end
      end
  end

let on_datagram t ~addr ~len =
  let module Trace = Ash_obs.Trace in
  let module Span = Ash_obs.Span in
  let corr = Trace.current_corr () in
  if Trace.enabled () then
    Span.begin_span ~corr ~off:(Kernel.span_off t.kernel) Trace.Proto;
  on_datagram_body t ~addr ~len;
  if Trace.enabled () then
    Span.end_span ~corr ~off:(Kernel.span_off t.kernel) Trace.Proto

let repost_rx_buffer t ~addr ~len =
  match t.cfg.medium with
  | An2 { vc } -> Kernel.post_receive_buffer t.kernel ~vc ~addr ~len
  | Ethernet -> () (* kernel pktbufs are managed by the kernel *)

let create kernel cfg =
  let mem = Machine.mem (Kernel.machine kernel) in
  let frame_len = cfg.mtu_payload + headers_len in
  let bind_vc =
    match cfg.medium with
    | An2 { vc } ->
      Kernel.bind_vc kernel ~vc Kernel.Deliver_user;
      vc
    | Ethernet ->
      Kernel.bind_eth_filter kernel
        (Packet.Udp.dst_port_filter cfg.local_port)
        Kernel.Deliver_user
  in
  let t =
    {
      kernel;
      cfg;
      send_buf = Memory.alloc mem ~name:"udp-sendbuf" frame_len;
      staging = Memory.alloc mem ~name:"udp-staging" (max cfg.mtu_payload 16);
      app_buf = Memory.alloc mem ~name:"udp-appbuf" (max cfg.mtu_payload 16);
      receiver = None;
      ip_id = 1;
      s_tx = 0;
      s_rx = 0;
      s_bad_hdr = 0;
      s_bad_cksum = 0;
    }
  in
  (match cfg.medium with
   | An2 { vc } ->
     for i = 1 to cfg.rx_buffers do
       let r =
         Memory.alloc mem ~name:(Printf.sprintf "udp-rx-%d" i) frame_len
       in
       Kernel.post_receive_buffer kernel ~vc ~addr:r.Memory.base
         ~len:r.Memory.len
     done
   | Ethernet -> ());
  Kernel.set_user_handler kernel ~vc:bind_vc (fun ~addr ~len ->
      on_datagram t ~addr ~len;
      repost_rx_buffer t ~addr ~len);
  t

let set_receiver t f = t.receiver <- Some f

let send t ~addr ~len =
  if len < 0 || len > t.cfg.mtu_payload then invalid_arg "Udp.send: length";
  let m = Kernel.machine t.kernel in
  Kernel.app_compute t.kernel Protocost.udp_send_overhead_ns;
  let base = t.send_buf.Memory.base in
  (* Copy the payload into the freshly allocated send buffer. *)
  Machine.copy m ~src:addr ~dst:(base + headers_len) ~len;
  let cksum =
    if not t.cfg.checksum then 0
    else begin
      Kernel.app_compute t.kernel Protocost.cksum_call_overhead_ns;
      Baseline.cksum16_pass m ~addr:(base + headers_len) ~len
    end
  in
  (* Initialize IP and UDP fields (build on the host view, write the
     header bytes into the send buffer; header-size stores charged). *)
  let hdr = Bytes.create headers_len in
  Packet.Ip.write hdr ~off:0
    {
      Packet.Ip.src = t.cfg.local_ip;
      dst = t.cfg.remote_ip;
      proto = Packet.Ip.proto_udp;
      total_len = headers_len + len;
      ttl = 64;
      id = t.ip_id;
    };
  t.ip_id <- (t.ip_id + 1) land 0xffff;
  Packet.Udp.write hdr ~off:Packet.ip_header_len
    {
      Packet.Udp.src_port = t.cfg.local_port;
      dst_port = t.cfg.remote_port;
      length = Packet.udp_header_len + len;
      checksum = cksum;
    };
  Memory.blit_from_bytes (Machine.mem m) ~src:hdr ~src_off:0 ~dst:base
    ~len:headers_len;
  Machine.charge_cycles m (headers_len / 4 * 3); (* header field stores *)
  (* Hand the frame to the kernel's user-level send path. *)
  let frame = Bytes.create (headers_len + len) in
  Memory.blit_to_bytes (Machine.mem m) ~src:base ~dst:frame ~dst_off:0
    ~len:(headers_len + len);
  t.s_tx <- t.s_tx + 1;
  (match t.cfg.medium with
   | An2 { vc } -> Kernel.user_send t.kernel ~vc frame
   | Ethernet -> Kernel.eth_user_send t.kernel frame)

let send_string t s =
  let len = String.length s in
  if len > t.staging.Memory.len then invalid_arg "Udp.send_string: too long";
  Memory.blit_from_bytes
    (Machine.mem (Kernel.machine t.kernel))
    ~src:(Bytes.of_string s) ~src_off:0 ~dst:t.staging.Memory.base ~len;
  send t ~addr:t.staging.Memory.base ~len

let stats t =
  {
    tx_datagrams = t.s_tx;
    rx_datagrams = t.s_rx;
    rx_bad_header = t.s_bad_hdr;
    rx_bad_checksum = t.s_bad_cksum;
  }

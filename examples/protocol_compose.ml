(* Dynamic protocol composition (§II-C): write each protocol's
   validation routine once, then compose stacks at runtime — here the
   same IPv4 fragment is spliced into an IP|UDP handler and an IP|TCP
   handler, each downloaded as its own ASH behind a different demux
   point.

   Run with:  dune exec examples/protocol_compose.exe *)

module Fabric = Ash_core.Fabric
module Kernel = Ash_kern.Kernel
module Memory = Ash_sim.Memory
module Compose = Ash_proto.Compose
module Packet = Ash_proto.Packet

let mk_frame ~proto ~mk_l4 payload =
  let l4_len =
    if proto = 17 then Packet.udp_header_len else Packet.tcp_header_len
  in
  let hl = Packet.ip_header_len + l4_len in
  let frame = Bytes.create (hl + String.length payload) in
  Packet.Ip.write frame ~off:0
    { Packet.Ip.src = 0x0a000001; dst = 0x0a000002; proto;
      total_len = Bytes.length frame; ttl = 64; id = 0 };
  mk_l4 frame;
  Bytes.blit_string payload 0 frame hl (String.length payload);
  frame

let () =
  let tb = Fabric.pair () in
  let server = Fabric.host tb 0 and client = Fabric.host tb 1 in
  let srv = server.Fabric.kernel and cli = client.Fabric.kernel in

  (* One IP routine, written once... *)
  let ip_udp = Compose.ipv4 ~proto:17 () in
  let ip_tcp = Compose.ipv4 ~proto:6 () in

  (* ...composed with UDP on VC 4 and with TCP ports on VC 5. *)
  let udp_landing = Fabric.alloc server ~name:"udp-landing" 2048 in
  let udp_stack =
    Compose.compose ~name:"ip|udp|deposit"
      [ ip_udp; Compose.udp ~dst_port:7001 ]
      (Compose.Deposit { dst_addr = udp_landing.Memory.base })
  in
  let tcp_stack =
    Compose.compose ~name:"ip|tcp|echo"
      [ ip_tcp; Compose.tcp_ports ~src_port:4000 ~dst_port:4001 ]
      Compose.Echo
  in
  Format.printf "composed IP|UDP handler: %d instructions@."
    (Ash_vm.Program.length udp_stack);
  Format.printf "composed IP|TCP handler: %d instructions@.@."
    (Ash_vm.Program.length tcp_stack);

  let bind vc prog =
    match Kernel.download_ash srv prog with
    | Ok id ->
      Kernel.bind_vc srv ~vc (Kernel.Deliver_ash id);
      Kernel.set_auto_repost srv ~vc true;
      Fabric.post_buffers server ~vc ~count:4 ~size:2048;
      Kernel.set_user_handler srv ~vc (fun ~addr:_ ~len:_ ->
          Format.printf "  (a packet fell back to the library)@.")
    | Error e ->
      Format.eprintf "rejected: %a@." Ash_vm.Verify.pp_error e;
      exit 1
  in
  bind 4 udp_stack;
  bind 5 tcp_stack;

  (* Client side: a raw listener on VC 5 for the TCP echo. *)
  Kernel.bind_vc cli ~vc:5 Kernel.Deliver_user;
  Kernel.set_auto_repost cli ~vc:5 true;
  Fabric.post_buffers client ~vc:5 ~count:2 ~size:256;
  Kernel.set_user_handler cli ~vc:5 (fun ~addr:_ ~len ->
      Format.printf "client: TCP-stack echo came back (%d bytes)@." len);

  (* Traffic: a matching UDP datagram, a matching TCP segment, and a
     datagram for a port nobody composed a handler for. *)
  let udp_frame =
    mk_frame ~proto:17
      ~mk_l4:(fun f ->
          Packet.Udp.write f ~off:20
            { Packet.Udp.src_port = 7000; dst_port = 7001; length = 24;
              checksum = 0 })
      "composed delivery"
  in
  let tcp_frame =
    mk_frame ~proto:6
      ~mk_l4:(fun f ->
          Packet.Tcp.write f ~off:20
            { Packet.Tcp.src_port = 4000; dst_port = 4001; seq = 1; ack = 0;
              flags = Packet.Tcp.flag_ack; window = 0; checksum = 0 })
      "bounce me"
  in
  let stray =
    mk_frame ~proto:17
      ~mk_l4:(fun f ->
          Packet.Udp.write f ~off:20
            { Packet.Udp.src_port = 7000; dst_port = 9999; length = 13;
              checksum = 0 })
      "stray"
  in
  Kernel.kernel_send cli ~vc:4 udp_frame;
  Kernel.kernel_send cli ~vc:5 tcp_frame;
  Kernel.kernel_send cli ~vc:4 stray;
  Fabric.run tb;

  let mem = Ash_sim.Machine.mem (Kernel.machine srv) in
  Format.printf "server: UDP-stack handler deposited %S@."
    (Memory.read_string mem ~addr:udp_landing.Memory.base ~len:17);
  let st = Kernel.stats srv in
  Format.printf
    "server stats: %d handled by composed ASHs, %d aborted to the library@."
    st.Kernel.ash_committed st.Kernel.ash_aborted_voluntary

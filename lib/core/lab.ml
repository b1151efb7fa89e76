module Memory = Ash_sim.Memory
module Machine = Ash_sim.Machine
module Costs = Ash_sim.Costs
module Kernel = Ash_kern.Kernel
module Sched = Ash_kern.Sched
module Tcp = Ash_proto.Tcp
module Udp = Ash_proto.Udp
module Packet = Ash_proto.Packet
module Stats = Ash_util.Stats

type server_mode =
  | Srv_user
  | Srv_ash of { sandbox : bool }
  | Srv_upcall
  | Srv_hardwired

let vc = 7

(* Download [prog] as [mode] asks (any mode but [Srv_user]) and bind it
   to [vc]. *)
let bind_handler kernel mode prog =
  let hardwired = mode = Srv_hardwired in
  let sandbox = match mode with Srv_ash { sandbox } -> sandbox | _ -> false in
  match Kernel.download_ash kernel ~sandbox ~hardwired prog with
  | Error e ->
    failwith
      (Format.asprintf "%s rejected: %a" prog.Ash_vm.Program.name
         Ash_vm.Verify.pp_error e)
  | Ok id ->
    Kernel.bind_vc kernel ~vc
      (if mode = Srv_upcall then Kernel.Deliver_upcall id
       else Kernel.Deliver_ash id);
    id

let install_echo_server node mode =
  let kernel = node.Fabric.kernel in
  match mode with
  | Srv_user ->
    Kernel.bind_vc kernel ~vc Kernel.Deliver_user;
    Kernel.set_user_handler kernel ~vc (fun ~addr:_ ~len ->
        Kernel.user_send kernel ~vc (Bytes.make len 'r'))
  | Srv_ash _ | Srv_upcall | Srv_hardwired ->
    ignore (bind_handler kernel mode (Handlers.echo ()))

(* The closed-loop sampler behind every latency driver: one request
   outstanding, [iters] round trips. [reply_hook k] installs [k] as the
   client's reply callback; each reply records the round trip in
   microseconds and sends the next request while iterations remain.
   Runs the pair to quiescence and summarizes the samples, dropping
   the first (cold) one when there are enough. *)
let closed_loop tb ~iters ~reply_hook send =
  let samples = ref [] in
  let t0 = ref 0 in
  let remaining = ref iters in
  let send () =
    t0 := Fabric.now tb;
    send ()
  in
  reply_hook (fun () ->
      samples := (float_of_int (Fabric.now tb - !t0) /. 1000.) :: !samples;
      decr remaining;
      if !remaining > 0 then send ());
  send ();
  Fabric.run tb;
  match List.rev !samples with
  | _ :: (_ :: _ as rest) -> Stats.summarize rest
  | other -> Stats.summarize other

(* A user-level polling client on [vc] that sends [request ()] in
   closed loop, with four [buf_size]-byte receive buffers. *)
let user_client tb ~buf_size ~iters request =
  let client = Fabric.host tb 1 in
  let kernel = client.Fabric.kernel in
  Kernel.bind_vc kernel ~vc Kernel.Deliver_user;
  Kernel.set_auto_repost kernel ~vc true;
  Fabric.post_buffers client ~vc ~count:4 ~size:buf_size;
  closed_loop tb ~iters
    ~reply_hook:(fun k ->
        Kernel.set_user_handler kernel ~vc (fun ~addr:_ ~len:_ -> k ()))
    (fun () -> Kernel.user_send kernel ~vc (request ()))

let raw_pingpong ?(payload_len = 4) ?(iters = 11) ?(server_suspended = false)
    mode =
  let tb = Fabric.pair () in
  let server = Fabric.host tb 0 in
  install_echo_server server mode;
  Kernel.set_auto_repost server.Fabric.kernel ~vc true;
  Fabric.post_buffers server ~vc ~count:4 ~size:(max payload_len 64);
  if server_suspended then
    Kernel.set_app_state server.Fabric.kernel Kernel.Suspended;
  user_client tb ~buf_size:(max payload_len 64) ~iters (fun () ->
      Bytes.make payload_len 'p')

let inkernel_pingpong ?(payload_len = 4) ?(iters = 10) () =
  let tb = Fabric.pair () in
  let client = Fabric.host tb 1 and server = Fabric.host tb 0 in
  install_echo_server server Srv_hardwired;
  Kernel.set_auto_repost server.Fabric.kernel ~vc true;
  Fabric.post_buffers server ~vc ~count:4 ~size:(max payload_len 64);
  (* Client: a hardwired handler that bounces until the counter drains. *)
  let state = Fabric.alloc client ~name:"pp-state" 16 in
  let mem = Machine.mem (Kernel.machine client.Fabric.kernel) in
  Memory.store32 mem
    (state.Memory.base + Handlers.pp_off_remaining)
    (iters - 1);
  (match
     Kernel.download_ash client.Fabric.kernel ~sandbox:false ~hardwired:true
       (Handlers.pingpong_client ~state_addr:state.Memory.base)
   with
   | Error e ->
     failwith (Format.asprintf "client rejected: %a" Ash_vm.Verify.pp_error e)
   | Ok id -> Kernel.bind_vc client.Fabric.kernel ~vc (Kernel.Deliver_ash id));
  Kernel.set_auto_repost client.Fabric.kernel ~vc true;
  Fabric.post_buffers client ~vc ~count:4 ~size:(max payload_len 64);
  let start = Fabric.now tb in
  Kernel.kernel_send client.Fabric.kernel ~vc (Bytes.make payload_len 'k');
  Fabric.run tb;
  let elapsed = Fabric.now tb - start in
  assert (Memory.load32 mem (state.Memory.base + Handlers.pp_off_done) = 1);
  float_of_int elapsed /. 1000. /. float_of_int iters

let remote_increment ?(iters = 11) ?(server_suspended = false) ?nprocs
    ?(policy = Sched.Oblivious_rr) ?(server_costs = Costs.decstation) mode =
  let tb = Fabric.pair ~server_costs () in
  let server = Fabric.host tb 0 in
  let kernel = server.Fabric.kernel in
  let slot = Fabric.alloc server ~name:"incr-slot" 8 in
  let prog = Handlers.remote_increment ~slot_addr:slot.Memory.base in
  let ash_id = ref None in
  (match mode with
   | Srv_user ->
     Kernel.bind_vc kernel ~vc Kernel.Deliver_user;
     (* The user-level server: parse, increment, reply — the same work
        as the handler, performed by the application. *)
     let mem = Machine.mem (Kernel.machine kernel) in
     Kernel.set_user_handler kernel ~vc (fun ~addr ~len:_ ->
         let delta = Memory.load32 mem (addr + Handlers.incr_off_delta) in
         let cur = Memory.load32 mem slot.Memory.base in
         Memory.store32 mem slot.Memory.base (cur + delta);
         Kernel.app_compute kernel 1_000;
         let reply = Bytes.create 4 in
         Ash_util.Bytesx.set_u32 reply 0 (cur + delta);
         Kernel.user_send kernel ~vc reply)
   | Srv_ash _ | Srv_upcall | Srv_hardwired ->
     ash_id := Some (bind_handler kernel mode prog));
  Kernel.set_auto_repost kernel ~vc true;
  Fabric.post_buffers server ~vc ~count:4 ~size:64;
  if server_suspended then Kernel.set_app_state kernel Kernel.Suspended;
  (match nprocs with
   | Some n -> Kernel.setup_scheduler kernel ~policy ~nprocs:n
   | None -> ());
  (* Client: user-level polling sender of [magic | delta] requests. *)
  let request =
    let b = Bytes.create Handlers.incr_len in
    Ash_util.Bytesx.set_u32 b Handlers.incr_off_magic Handlers.incr_magic;
    Ash_util.Bytesx.set_u32 b Handlers.incr_off_delta 1;
    b
  in
  let rtt =
    user_client tb ~buf_size:64 ~iters (fun () -> Bytes.copy request)
  in
  let last = Option.map (Kernel.ash_last_result kernel) !ash_id in
  (rtt, Option.join last)

let raw_train_throughput ~size ~count () =
  let tb = Fabric.pair () in
  let client = Fabric.host tb 1 and server = Fabric.host tb 0 in
  (* Server: count packets; after the last, reply with a 4-byte ack. *)
  Kernel.bind_vc server.Fabric.kernel ~vc Kernel.Deliver_user;
  Kernel.set_auto_repost server.Fabric.kernel ~vc true;
  Fabric.post_buffers server ~vc ~count:(count + 4) ~size;
  let seen = ref 0 in
  Kernel.set_user_handler server.Fabric.kernel ~vc (fun ~addr:_ ~len:_ ->
      incr seen;
      if !seen = count then
        Kernel.user_send server.Fabric.kernel ~vc (Bytes.make 4 'a'));
  Kernel.bind_vc client.Fabric.kernel ~vc Kernel.Deliver_user;
  Kernel.set_auto_repost client.Fabric.kernel ~vc true;
  Fabric.post_buffers client ~vc ~count:2 ~size:64;
  let finished = ref 0 in
  Kernel.set_user_handler client.Fabric.kernel ~vc (fun ~addr:_ ~len:_ ->
      finished := Fabric.now tb);
  let start = Fabric.now tb in
  for _ = 1 to count do
    Kernel.user_send client.Fabric.kernel ~vc (Bytes.make size 'd')
  done;
  Fabric.run tb;
  assert (!finished > start);
  Ash_sim.Time.mbytes_per_sec ~bytes:(size * count) (!finished - start)

let eth_pingpong ?(payload_len = 4) ?(iters = 10) () =
  let tb = Fabric.pair ~ethernet:true () in
  let client = Fabric.host tb 1 and server = Fabric.host tb 0 in
  (* Trivial accept-all filters on both sides. *)
  let svc =
    Kernel.bind_eth_filter server.Fabric.kernel [] Kernel.Deliver_user
  in
  Kernel.set_user_handler server.Fabric.kernel ~vc:svc (fun ~addr:_ ~len ->
      Kernel.eth_user_send server.Fabric.kernel (Bytes.make len 'r'));
  let ckernel = client.Fabric.kernel in
  let cvc = Kernel.bind_eth_filter ckernel [] Kernel.Deliver_user in
  (closed_loop tb ~iters
     ~reply_hook:(fun k ->
         Kernel.set_user_handler ckernel ~vc:cvc (fun ~addr:_ ~len:_ -> k ()))
     (fun () -> Kernel.eth_user_send ckernel (Bytes.make payload_len 'p')))
    .Stats.mean

(* ------------------------------------------------------------------ *)
(* UDP                                                                 *)
(* ------------------------------------------------------------------ *)

(* The largest datagram payload one frame carries on [medium]. *)
let udp_max_payload medium =
  let mtu =
    match medium with
    | `An2 -> Costs.decstation.Costs.an2_mtu
    | `Eth -> Costs.decstation.Costs.eth_mtu
  in
  mtu - Packet.ip_header_len - Packet.udp_header_len

let udp_pair ~checksum ~in_place ~medium tb =
  let mk local remote kernel =
    Udp.create kernel
      { Udp.default_config with
        Udp.medium =
          (match medium with
           | `An2 -> Udp.An2 { vc = 5 }
           | `Eth -> Udp.Ethernet);
        checksum; in_place; local_port = local; remote_port = remote;
        mtu_payload = udp_max_payload medium }
  in
  let c = mk 7000 7001 (Fabric.host tb 1).Fabric.kernel in
  let s = mk 7001 7000 (Fabric.host tb 0).Fabric.kernel in
  (c, s)

let udp_latency ~checksum ~in_place ~medium () =
  let tb = Fabric.pair ~ethernet:(medium = `Eth) () in
  let c, s = udp_pair ~checksum ~in_place ~medium tb in
  Udp.set_receiver s (fun ~addr:_ ~len -> Udp.send_string s (String.make len 'r'));
  (closed_loop tb ~iters:11
     ~reply_hook:(fun k -> Udp.set_receiver c (fun ~addr:_ ~len:_ -> k ()))
     (fun () -> Udp.send_string c "ping"))
    .Stats.mean

let udp_train_throughput ~checksum ~in_place ~medium ?(train = 6) ?(rounds = 8)
    () =
  let tb = Fabric.pair ~ethernet:(medium = `Eth) () in
  let c, s = udp_pair ~checksum ~in_place ~medium tb in
  let size = udp_max_payload medium in
  let payload = Fabric.alloc_filled (Fabric.host tb 1) ~seed:3 size in
  let seen = ref 0 in
  Udp.set_receiver s (fun ~addr:_ ~len:_ ->
      incr seen;
      if !seen mod train = 0 then Udp.send_string s "ack!");
  let start = Fabric.now tb in
  let finished = ref start in
  let remaining = ref rounds in
  let send_train () =
    for _ = 1 to train do
      Udp.send c ~addr:payload.Memory.base ~len:size
    done
  in
  Udp.set_receiver c (fun ~addr:_ ~len:_ ->
      decr remaining;
      if !remaining > 0 then send_train ()
      else finished := Fabric.now tb);
  send_train ();
  Fabric.run tb;
  Ash_sim.Time.mbytes_per_sec
    ~bytes:(size * train * rounds)
    (!finished - start)

(* ------------------------------------------------------------------ *)
(* TCP                                                                 *)
(* ------------------------------------------------------------------ *)

let tcp_pair ~mode ~checksum ~in_place ?(mss = 3072) ?(suspended = false)
    ?(medium = `An2) ?(rto = Tcp.default_rto) ?(fast_retransmit = true) tb =
  let tcp_medium =
    match medium with
    | `An2 -> Tcp.Tcp_an2 { vc = 6 }
    | `Eth -> Tcp.Tcp_ethernet
  in
  let mss = match medium with `An2 -> mss | `Eth -> min mss 1460 in
  let mk local remote iss kernel =
    Tcp.create kernel
      { Tcp.default_config with
        Tcp.medium = tcp_medium; local_port = local; remote_port = remote;
        iss; mode; checksum; in_place; mss; rto; fast_retransmit }
  in
  let c = mk 4000 4001 1000 (Fabric.host tb 1).Fabric.kernel in
  let s = mk 4001 4000 5000 (Fabric.host tb 0).Fabric.kernel in
  Tcp.listen s;
  let connected = ref false in
  Tcp.connect c ~on_connected:(fun () -> connected := true);
  Fabric.run tb;
  if not !connected then failwith "Lab.tcp_pair: connection failed";
  if suspended then
    for h = 0 to 1 do
      Kernel.set_app_state (Fabric.host tb h).Fabric.kernel Kernel.Suspended
    done;
  (c, s)

let tcp_latency ~mode ~checksum ?(suspended = false) ?(iters = 11)
    ?(medium = `An2) () =
  let tb = Fabric.pair ~ethernet:(medium = `Eth) () in
  let c, s = tcp_pair ~mode ~checksum ~in_place:false ~suspended ~medium tb in
  Tcp.set_reader s (fun ~addr:_ ~len ->
      Tcp.write_string s (String.make len 'r') ~on_complete:(fun () -> ()));
  (closed_loop tb ~iters
     ~reply_hook:(fun k -> Tcp.set_reader c (fun ~addr:_ ~len:_ -> k ()))
     (fun () -> Tcp.write_string c "ping" ~on_complete:(fun () -> ())))
    .Stats.mean

let tcp_throughput ~mode ~checksum ~in_place ?(mss = 3072) ?(chunk = 8192)
    ?(total = 2 * 1024 * 1024) ?(suspended = false) ?(medium = `An2) () =
  let tb = Fabric.pair ~ethernet:(medium = `Eth) () in
  let c, s = tcp_pair ~mode ~checksum ~in_place ~mss ~suspended ~medium tb in
  Tcp.set_reader s (fun ~addr:_ ~len:_ -> ());
  let src = Fabric.alloc_filled (Fabric.host tb 1) ~seed:1 chunk in
  let start = Fabric.now tb in
  let sent = ref 0 in
  let rec send_chunk () =
    if !sent < total then begin
      sent := !sent + chunk;
      Tcp.write c ~addr:src.Memory.base ~len:chunk ~on_complete:send_chunk
    end
  in
  send_chunk ();
  Fabric.run tb;
  let dt = Fabric.now tb - start in
  ( float_of_int total /. (float_of_int dt /. 1e9) /. 1e6,
    Tcp.stats s )

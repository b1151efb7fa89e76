module Engine = Ash_sim.Engine
module Memory = Ash_sim.Memory
module Machine = Ash_sim.Machine
module Costs = Ash_sim.Costs
module Kernel = Ash_kern.Kernel
module Sched = Ash_kern.Sched
module Tcp = Ash_proto.Tcp
module Udp = Ash_proto.Udp
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
  let kernel = node.Testbed.kernel in
  match mode with
  | Srv_user ->
    Kernel.bind_vc kernel ~vc Kernel.Deliver_user;
    Kernel.set_user_handler kernel ~vc (fun ~addr:_ ~len ->
        Kernel.user_send kernel ~vc (Bytes.make len 'r'))
  | Srv_ash _ | Srv_upcall | Srv_hardwired ->
    ignore (bind_handler kernel mode (Handlers.echo ()))

(* A user-level polling client that ping-pongs [iters] times and records
   per-round-trip samples. *)
let user_client tb ~payload_len ~iters ~samples =
  let client = tb.Testbed.client in
  let kernel = client.Testbed.kernel in
  Kernel.bind_vc kernel ~vc Kernel.Deliver_user;
  Kernel.set_auto_repost kernel ~vc true;
  Testbed.post_buffers client ~vc ~count:4 ~size:(max payload_len 64);
  let t0 = ref 0 in
  let remaining = ref iters in
  let send () =
    t0 := Engine.now tb.Testbed.engine;
    Kernel.user_send kernel ~vc (Bytes.make payload_len 'p')
  in
  Kernel.set_user_handler kernel ~vc (fun ~addr:_ ~len:_ ->
      samples :=
        (float_of_int (Engine.now tb.Testbed.engine - !t0) /. 1000.)
        :: !samples;
      decr remaining;
      if !remaining > 0 then send ());
  send

let summarize_steady samples =
  (* Drop the first (cold) sample when there are enough. *)
  match List.rev samples with
  | _ :: (_ :: _ as rest) -> Stats.summarize rest
  | other -> Stats.summarize other

let raw_pingpong ?(payload_len = 4) ?(iters = 11) ?(server_suspended = false)
    ?(client_costs = Costs.decstation) mode =
  let tb = Testbed.create ~client_costs () in
  install_echo_server tb.Testbed.server mode;
  Kernel.set_auto_repost tb.Testbed.server.Testbed.kernel ~vc true;
  Testbed.post_buffers tb.Testbed.server ~vc ~count:4
    ~size:(max payload_len 64);
  if server_suspended then
    Kernel.set_app_state tb.Testbed.server.Testbed.kernel Kernel.Suspended;
  let samples = ref [] in
  let send = user_client tb ~payload_len ~iters ~samples in
  send ();
  Testbed.run tb;
  summarize_steady !samples

let inkernel_pingpong ?(payload_len = 4) ?(iters = 10) () =
  let tb = Testbed.create () in
  let client = tb.Testbed.client and server = tb.Testbed.server in
  install_echo_server server Srv_hardwired;
  Kernel.set_auto_repost server.Testbed.kernel ~vc true;
  Testbed.post_buffers server ~vc ~count:4 ~size:(max payload_len 64);
  (* Client: a hardwired handler that bounces until the counter drains. *)
  let state = Testbed.alloc client ~name:"pp-state" 16 in
  let mem = Machine.mem (Kernel.machine client.Testbed.kernel) in
  Memory.store32 mem
    (state.Memory.base + Handlers.pp_off_remaining)
    (iters - 1);
  (match
     Kernel.download_ash client.Testbed.kernel ~sandbox:false ~hardwired:true
       (Handlers.pingpong_client ~state_addr:state.Memory.base)
   with
   | Error e ->
     failwith (Format.asprintf "client rejected: %a" Ash_vm.Verify.pp_error e)
   | Ok id -> Kernel.bind_vc client.Testbed.kernel ~vc (Kernel.Deliver_ash id));
  Kernel.set_auto_repost client.Testbed.kernel ~vc true;
  Testbed.post_buffers client ~vc ~count:4 ~size:(max payload_len 64);
  let start = Engine.now tb.Testbed.engine in
  Kernel.kernel_send client.Testbed.kernel ~vc (Bytes.make payload_len 'k');
  Testbed.run tb;
  let elapsed = Engine.now tb.Testbed.engine - start in
  assert (Memory.load32 mem (state.Memory.base + Handlers.pp_off_done) = 1);
  float_of_int elapsed /. 1000. /. float_of_int iters

let remote_increment ?(iters = 11) ?(server_suspended = false) ?nprocs
    ?(policy = Sched.Oblivious_rr) ?(server_costs = Costs.decstation) mode =
  let tb = Testbed.create ~server_costs () in
  let server = tb.Testbed.server in
  let kernel = server.Testbed.kernel in
  let slot = Testbed.alloc server ~name:"incr-slot" 8 in
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
  Testbed.post_buffers server ~vc ~count:4 ~size:64;
  if server_suspended then Kernel.set_app_state kernel Kernel.Suspended;
  (match nprocs with
   | Some n -> Kernel.setup_scheduler kernel ~policy ~nprocs:n
   | None -> ());
  (* Client: user-level polling sender of [magic | delta] requests. *)
  let client = tb.Testbed.client in
  let ckernel = client.Testbed.kernel in
  Kernel.bind_vc ckernel ~vc Kernel.Deliver_user;
  Kernel.set_auto_repost ckernel ~vc true;
  Testbed.post_buffers client ~vc ~count:4 ~size:64;
  let samples = ref [] in
  let t0 = ref 0 in
  let remaining = ref iters in
  let request =
    let b = Bytes.create Handlers.incr_len in
    Ash_util.Bytesx.set_u32 b Handlers.incr_off_magic Handlers.incr_magic;
    Ash_util.Bytesx.set_u32 b Handlers.incr_off_delta 1;
    b
  in
  let send () =
    t0 := Engine.now tb.Testbed.engine;
    Kernel.user_send ckernel ~vc (Bytes.copy request)
  in
  Kernel.set_user_handler ckernel ~vc (fun ~addr:_ ~len:_ ->
      samples :=
        (float_of_int (Engine.now tb.Testbed.engine - !t0) /. 1000.)
        :: !samples;
      decr remaining;
      if !remaining > 0 then send ());
  send ();
  Testbed.run tb;
  let last = Option.map (Kernel.ash_last_result kernel) !ash_id in
  (summarize_steady !samples, Option.join last)

let raw_train_throughput ~size ~count () =
  let tb = Testbed.create () in
  let client = tb.Testbed.client and server = tb.Testbed.server in
  (* Server: count packets; after the last, reply with a 4-byte ack. *)
  Kernel.bind_vc server.Testbed.kernel ~vc Kernel.Deliver_user;
  Kernel.set_auto_repost server.Testbed.kernel ~vc true;
  Testbed.post_buffers server ~vc ~count:(count + 4) ~size;
  let seen = ref 0 in
  Kernel.set_user_handler server.Testbed.kernel ~vc (fun ~addr:_ ~len:_ ->
      incr seen;
      if !seen = count then
        Kernel.user_send server.Testbed.kernel ~vc (Bytes.make 4 'a'));
  Kernel.bind_vc client.Testbed.kernel ~vc Kernel.Deliver_user;
  Kernel.set_auto_repost client.Testbed.kernel ~vc true;
  Testbed.post_buffers client ~vc ~count:2 ~size:64;
  let finished = ref 0 in
  Kernel.set_user_handler client.Testbed.kernel ~vc (fun ~addr:_ ~len:_ ->
      finished := Engine.now tb.Testbed.engine);
  let start = Engine.now tb.Testbed.engine in
  for _ = 1 to count do
    Kernel.user_send client.Testbed.kernel ~vc (Bytes.make size 'd')
  done;
  Testbed.run tb;
  assert (!finished > start);
  Ash_sim.Time.mbytes_per_sec ~bytes:(size * count) (!finished - start)

let eth_pingpong ?(payload_len = 4) ?(iters = 10) () =
  let tb = Testbed.create ~ethernet:true () in
  let client = tb.Testbed.client and server = tb.Testbed.server in
  (* Trivial accept-all filters on both sides. *)
  let svc =
    Kernel.bind_eth_filter server.Testbed.kernel [] Kernel.Deliver_user
  in
  Kernel.set_user_handler server.Testbed.kernel ~vc:svc (fun ~addr:_ ~len ->
      Kernel.eth_user_send server.Testbed.kernel (Bytes.make len 'r'));
  let cvc =
    Kernel.bind_eth_filter client.Testbed.kernel [] Kernel.Deliver_user
  in
  let samples = ref [] in
  let t0 = ref 0 in
  let remaining = ref iters in
  let send () =
    t0 := Engine.now tb.Testbed.engine;
    Kernel.eth_user_send client.Testbed.kernel (Bytes.make payload_len 'p')
  in
  Kernel.set_user_handler client.Testbed.kernel ~vc:cvc (fun ~addr:_ ~len:_ ->
      samples :=
        (float_of_int (Engine.now tb.Testbed.engine - !t0) /. 1000.)
        :: !samples;
      decr remaining;
      if !remaining > 0 then send ());
  send ();
  Testbed.run tb;
  (summarize_steady !samples).Stats.mean

(* ------------------------------------------------------------------ *)
(* UDP                                                                 *)
(* ------------------------------------------------------------------ *)

let udp_pair ~checksum ~in_place ~medium tb =
  let mk local remote kernel =
    let medium =
      match medium with
      | `An2 -> Udp.An2 { vc = 5 }
      | `Eth -> Udp.Ethernet
    in
    Udp.create kernel
      { Udp.default_config with
        Udp.medium; checksum; in_place; local_port = local;
        remote_port = remote;
        mtu_payload =
          (match medium with
           | Udp.An2 _ -> 3072 - 28
           | Udp.Ethernet -> 1472) }
  in
  let c = mk 7000 7001 tb.Testbed.client.Testbed.kernel in
  let s = mk 7001 7000 tb.Testbed.server.Testbed.kernel in
  (c, s)

let udp_latency ~checksum ~in_place ~medium () =
  let ethernet = medium = `Eth in
  let tb = Testbed.create ~ethernet () in
  let c, s = udp_pair ~checksum ~in_place ~medium tb in
  Udp.set_receiver s (fun ~addr:_ ~len -> Udp.send_string s (String.make len 'r'));
  let samples = ref [] in
  let t0 = ref 0 in
  let remaining = ref 11 in
  let send () =
    t0 := Engine.now tb.Testbed.engine;
    Udp.send_string c "ping"
  in
  Udp.set_receiver c (fun ~addr:_ ~len:_ ->
      samples :=
        (float_of_int (Engine.now tb.Testbed.engine - !t0) /. 1000.)
        :: !samples;
      decr remaining;
      if !remaining > 0 then send ());
  send ();
  Testbed.run tb;
  (summarize_steady !samples).Stats.mean

let udp_train_throughput ~checksum ~in_place ~medium ?(train = 6) ?(rounds = 8)
    () =
  let ethernet = medium = `Eth in
  let tb = Testbed.create ~ethernet () in
  let c, s = udp_pair ~checksum ~in_place ~medium tb in
  let size = match medium with `An2 -> 3072 - 28 | `Eth -> 1472 in
  let payload = Testbed.alloc_filled tb.Testbed.client ~seed:3 size in
  let seen = ref 0 in
  Udp.set_receiver s (fun ~addr:_ ~len:_ ->
      incr seen;
      if !seen mod train = 0 then Udp.send_string s "ack!");
  let start = Engine.now tb.Testbed.engine in
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
      else finished := Engine.now tb.Testbed.engine);
  send_train ();
  Testbed.run tb;
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
  let c = mk 4000 4001 1000 tb.Testbed.client.Testbed.kernel in
  let s = mk 4001 4000 5000 tb.Testbed.server.Testbed.kernel in
  Tcp.listen s;
  let connected = ref false in
  Tcp.connect c ~on_connected:(fun () -> connected := true);
  Testbed.run tb;
  if not !connected then failwith "Lab.tcp_pair: connection failed";
  if suspended then begin
    Kernel.set_app_state tb.Testbed.client.Testbed.kernel Kernel.Suspended;
    Kernel.set_app_state tb.Testbed.server.Testbed.kernel Kernel.Suspended
  end;
  (c, s)

let tcp_latency ~mode ~checksum ?(suspended = false) ?(iters = 11)
    ?(medium = `An2) () =
  let tb = Testbed.create ~ethernet:(medium = `Eth) () in
  let c, s = tcp_pair ~mode ~checksum ~in_place:false ~suspended ~medium tb in
  Tcp.set_reader s (fun ~addr:_ ~len ->
      Tcp.write_string s (String.make len 'r') ~on_complete:(fun () -> ()));
  let samples = ref [] in
  let t0 = ref 0 in
  let remaining = ref iters in
  let send () =
    t0 := Engine.now tb.Testbed.engine;
    Tcp.write_string c "ping" ~on_complete:(fun () -> ())
  in
  Tcp.set_reader c (fun ~addr:_ ~len:_ ->
      samples :=
        (float_of_int (Engine.now tb.Testbed.engine - !t0) /. 1000.)
        :: !samples;
      decr remaining;
      if !remaining > 0 then send ());
  send ();
  Testbed.run tb;
  (summarize_steady !samples).Stats.mean

let tcp_throughput ~mode ~checksum ~in_place ?(mss = 3072) ?(chunk = 8192)
    ?(total = 2 * 1024 * 1024) ?(suspended = false) ?(medium = `An2) () =
  let tb = Testbed.create ~ethernet:(medium = `Eth) () in
  let c, s = tcp_pair ~mode ~checksum ~in_place ~mss ~suspended ~medium tb in
  Tcp.set_reader s (fun ~addr:_ ~len:_ -> ());
  let src = Testbed.alloc_filled tb.Testbed.client ~seed:1 chunk in
  let start = Engine.now tb.Testbed.engine in
  let sent = ref 0 in
  let rec send_chunk () =
    if !sent < total then begin
      sent := !sent + chunk;
      Tcp.write c ~addr:src.Memory.base ~len:chunk ~on_complete:send_chunk
    end
  in
  send_chunk ();
  Testbed.run tb;
  let dt = Engine.now tb.Testbed.engine - start in
  ( float_of_int total /. (float_of_int dt /. 1e9) /. 1e6,
    Tcp.stats s )

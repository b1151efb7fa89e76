(* The multicore experiment (`ashbench run exp_multicore`): simulated
   goodput versus server cores at a fixed offered load.

   Not a paper table — the paper's DECstation has one CPU — but the
   scaling counterpart of its per-message costs: with handler dispatch,
   demux and ASH execution all charged to one simulated CPU, a single
   server core saturates, and the RSS-sharded multi-queue server
   ({!Fabric} with [server_cores > 1]) recovers nearly linear goodput
   because each flow's handler runs start-to-finish on the core that
   owns the flow (§V atomicity, per core). *)

module Engine = Ash_sim.Engine
module Costs = Ash_sim.Costs
module Time = Ash_sim.Time
module Kernel = Ash_kern.Kernel
module Dpf = Ash_kern.Dpf
module Rss = Ash_nic.Rss
module Packet = Ash_proto.Packet
module Bytesx = Ash_util.Bytesx
module Isa = Ash_vm.Isa
module Builder = Ash_vm.Builder

let service_port = 7_777
let net_header = Packet.ip_header_len + Packet.udp_header_len (* 28 *)

(* Stock Ethernet at 800 ns/byte would bottleneck the shared server
   port long before one simulated CPU does; a fast wire (8 ns/byte,
   roughly 1 Gb/s) moves the bottleneck to the server cores, which is
   the thing being measured. The fixed one-way latency is untouched, so
   the cluster's cross-shard lookahead holds unchanged. *)
let fast_eth =
  { Costs.decstation with name = "fast-eth"; eth_ns_per_byte = 8.0 }

(* The per-core service handler: validate, run [work_loops] checksum
   passes over the payload (the application's per-request CPU work),
   swap IP addresses and UDP ports in place, and send the frame back.
   Swapping two aligned 32-bit words leaves the IP header checksum
   invariant, so the reply reroutes without a header rebuild. *)
let echo_work ~work_loops =
  let b = Builder.create ~name:"mc-echo" () in
  let bad = Builder.fresh_label b in
  let ptr = Builder.temp b
  and wrd = Builder.temp b
  and acc = Builder.temp b
  and cnt = Builder.temp b
  and rep = Builder.temp b
  and a = Builder.temp b
  and c = Builder.temp b
  and t = Builder.temp b in
  (* Header plus at least one payload word. *)
  Builder.li b t (net_header + 4);
  Builder.bltu b Isa.reg_msg_len t bad;
  Builder.li b rep work_loops;
  let outer = Builder.here b in
  (* One checksum pass: fold every payload word into the accumulator. *)
  Builder.emit b (Isa.Addi (ptr, Isa.reg_msg_addr, net_header));
  Builder.emit b (Isa.Addi (cnt, Isa.reg_msg_len, -net_header));
  Builder.emit b (Isa.Srl (cnt, cnt, 2));
  let inner = Builder.here b in
  Builder.emit b (Isa.Ld32 (wrd, ptr, 0));
  Builder.emit b (Isa.Cksum32 (acc, wrd));
  Builder.emit b (Isa.Addi (ptr, ptr, 4));
  Builder.emit b (Isa.Addi (cnt, cnt, -1));
  Builder.bne b cnt Isa.reg_zero inner;
  Builder.emit b (Isa.Addi (rep, rep, -1));
  Builder.bne b rep Isa.reg_zero outer;
  (* Swap src/dst IP addresses (words 12 and 16). *)
  Builder.emit b (Isa.Ld32 (a, Isa.reg_msg_addr, 12));
  Builder.emit b (Isa.Ld32 (c, Isa.reg_msg_addr, 16));
  Builder.emit b (Isa.St32 (a, Isa.reg_msg_addr, 16));
  Builder.emit b (Isa.St32 (c, Isa.reg_msg_addr, 12));
  (* Swap UDP ports (16-bit fields at 20 and 22). *)
  Builder.emit b (Isa.Ld16 (a, Isa.reg_msg_addr, Packet.ip_header_len));
  Builder.emit b (Isa.Ld16 (c, Isa.reg_msg_addr, Packet.ip_header_len + 2));
  Builder.emit b (Isa.St16 (a, Isa.reg_msg_addr, Packet.ip_header_len + 2));
  Builder.emit b (Isa.St16 (c, Isa.reg_msg_addr, Packet.ip_header_len));
  (* Reply with the whole frame. *)
  Builder.emit b (Isa.Mov (Isa.reg_arg0, Isa.reg_msg_addr));
  Builder.emit b (Isa.Mov (Isa.reg_arg1, Isa.reg_msg_len));
  Builder.call b Isa.K_send;
  Builder.commit b;
  Builder.place b bad;
  Builder.abort b;
  Builder.assemble b

(* The client-side reply sink: consume and count (via the kernel's
   commit counter) without waking the application. *)
let sink () =
  let b = Builder.create ~name:"mc-sink" () in
  Builder.commit b;
  Builder.assemble b

type mc_spec = {
  cores : int;           (* server cores = fabric shards *)
  jobs : int;
  clients : int;
  flows_per_client : int;
  payload : int;         (* request payload bytes (word multiple) *)
  work_loops : int;      (* checksum passes per request *)
  interval_ns : int;     (* per-flow request period *)
  warmup_ns : int;
  window_ns : int;       (* measurement window after warmup *)
}

let default_mc =
  {
    cores = 1;
    jobs = 1;
    clients = 8;
    flows_per_client = 4;
    payload = 64;
    work_loops = 3;
    interval_ns = 250_000;
    warmup_ns = 50_000_000;
    window_ns = 250_000_000;
  }

type mc_result = {
  offered_rps : float;
  goodput_rps : float;
  replies_counted : int;
  ring_flows : int array; (* flows the hash assigned to each ring *)
}

let run_mc spec =
  if spec.cores < 1 then invalid_arg "Exp_multicore.run_mc: cores";
  if spec.payload < 4 || spec.payload mod 4 <> 0 then
    invalid_arg "Exp_multicore.run_mc: payload must be a word multiple";
  let fab =
    Fabric.create ~costs:fast_eth ~shards:spec.cores ~jobs:spec.jobs
      ~server_cores:spec.cores
      ~hosts:(spec.clients + 1)
      ()
  in
  Fabric.warm_arp fab ~server:0;
  let cores =
    let cs = Fabric.cores fab in
    if Array.length cs > 0 then cs
    else begin
      let n = Fabric.host fab 0 in
      [|
        {
          Fabric.core_idx = 0;
          core_shard = 0;
          core_kernel = n.Fabric.kernel;
          core_eth = n.Fabric.eth;
        };
      |]
    end
  in
  let service_filter port =
    [
      Dpf.atom ~offset:9 ~width:1 Packet.Ip.proto_udp;
      Dpf.atom ~offset:(Packet.ip_header_len + 2) ~width:2 port;
    ]
  in
  let download k prog =
    match Kernel.download_ash k ~sandbox:true prog with
    | Ok id -> Kernel.Deliver_ash id
    | Error e ->
      failwith
        (Format.asprintf "Exp_multicore.run_mc: %a" Ash_vm.Verify.pp_error e)
  in
  Array.iter
    (fun (c : Fabric.core) ->
      let k = c.Fabric.core_kernel in
      let delivery = download k (echo_work ~work_loops:spec.work_loops) in
      let vc = Kernel.bind_eth_filter k (service_filter service_port)
          ~compiled:true delivery
      in
      Kernel.set_auto_repost k ~vc true;
      Kernel.set_user_handler k ~vc (fun ~addr:_ ~len:_ -> ()))
    cores;
  (* One sink binding per flow on its client's kernel: replies come
     back with the flow's source port as UDP destination. *)
  let nflows = spec.clients * spec.flows_per_client in
  let sport g = 20_000 + g in
  let client_of g = 1 + (g mod spec.clients) in
  let ring_flows = Array.make (Array.length cores) 0 in
  for g = 0 to nflows - 1 do
    let h = client_of g in
    let k = (Fabric.host fab h).Fabric.kernel in
    let vc =
      Kernel.bind_eth_filter k (service_filter (sport g)) ~compiled:true
        (download k (sink ()))
    in
    Kernel.set_auto_repost k ~vc true;
    Kernel.set_user_handler k ~vc (fun ~addr:_ ~len:_ -> ());
    let ring =
      Rss.hash_tuple
        {
          Rss.src_addr = (Fabric.host fab h).Fabric.ip;
          dst_addr = (Fabric.host fab 0).Fabric.ip;
          proto = Packet.Ip.proto_udp;
          src_port = sport g;
          dst_port = service_port;
        }
      mod Array.length cores
    in
    ring_flows.(ring) <- ring_flows.(ring) + 1
  done;
  (* Request frames, one per flow, sent again on every request: the
     stack never writes to a frame it was handed. *)
  let frame_of g =
    let h = client_of g in
    let total = net_header + spec.payload in
    let frame = Bytes.create total in
    Packet.Ip.write frame ~off:0
      {
        Packet.Ip.src = (Fabric.host fab h).Fabric.ip;
        dst = (Fabric.host fab 0).Fabric.ip;
        proto = Packet.Ip.proto_udp;
        total_len = total;
        ttl = 64;
        id = g + 1;
      };
    Packet.Udp.write frame ~off:Packet.ip_header_len
      {
        Packet.Udp.src_port = sport g;
        dst_port = service_port;
        length = Packet.udp_header_len + spec.payload;
        checksum = 0;
      };
    for w = 0 to (spec.payload / 4) - 1 do
      Bytesx.set_u32 frame (net_header + (4 * w)) ((g * 65_537) + w)
    done;
    frame
  in
  let t0 = Fabric.now fab in
  let t_start = t0 + 1_000_000 in
  let t_warm = t_start + spec.warmup_ns in
  let t_end = t_warm + spec.window_ns in
  for g = 0 to nflows - 1 do
    let h = client_of g in
    let heng = Fabric.host_engine fab h in
    let kernel = (Fabric.host fab h).Fabric.kernel in
    let frame = frame_of g in
    let first = t_start + (g * spec.interval_ns / nflows) in
    let at = ref first in
    while !at < t_end do
      ignore
        (Engine.schedule_at heng ~at:!at (fun () ->
             Kernel.eth_kernel_send kernel frame));
      at := !at + spec.interval_ns
    done
  done;
  (* Reply counters: snapshot each client kernel's commit count at the
     window edges, from that client's own shard. *)
  let warm = Array.make (spec.clients + 1) 0 in
  let fin = Array.make (spec.clients + 1) 0 in
  for h = 1 to spec.clients do
    let heng = Fabric.host_engine fab h in
    let k = (Fabric.host fab h).Fabric.kernel in
    ignore
      (Engine.schedule_at heng ~at:t_warm (fun () ->
           warm.(h) <- (Kernel.stats k).Kernel.ash_committed));
    ignore
      (Engine.schedule_at heng ~at:t_end (fun () ->
           fin.(h) <- (Kernel.stats k).Kernel.ash_committed))
  done;
  Fabric.run_until fab (t_end + 1_000_000);
  let replies = ref 0 in
  for h = 1 to spec.clients do
    replies := !replies + fin.(h) - warm.(h)
  done;
  {
    offered_rps =
      float_of_int nflows /. (float_of_int spec.interval_ns /. 1e9);
    goodput_rps =
      float_of_int !replies /. (float_of_int spec.window_ns /. 1e9);
    replies_counted = !replies;
    ring_flows;
  }

(* ------------------------------------------------------------------ *)
(* The bench table                                                     *)
(* ------------------------------------------------------------------ *)

let cores_grid = [ 1; 2; 4 ]

let multicore () =
  let runs =
    List.map (fun c -> (c, run_mc { default_mc with cores = c })) cores_grid
  in
  let g1 =
    match runs with
    | (_, r) :: _ -> r.goodput_rps
    | [] -> 1.0
  in
  let goodput_rows =
    List.concat_map
      (fun (c, r) ->
        [
          Report.row
            ~label:(Printf.sprintf "%d-core server | goodput" c)
            ~measured:(r.goodput_rps /. 1e3) ~unit_:"kreq/s" ();
          Report.row
            ~label:(Printf.sprintf "%d-core server | speedup vs 1" c)
            ~measured:(r.goodput_rps /. g1) ~unit_:"x" ();
        ])
      runs
  in
  let offered =
    match runs with (_, r) :: _ -> r.offered_rps | [] -> 0.0
  in
  let balance =
    let r4 = List.assoc_opt 4 runs in
    match r4 with
    | Some r ->
      Printf.sprintf "flow balance at 4 rings: %s"
        (String.concat "/"
           (Array.to_list (Array.map string_of_int r.ring_flows)))
    | None -> "no 4-core run"
  in
  {
    Report.id = "exp_multicore";
    title =
      "Multicore: RSS-sharded server goodput vs cores at fixed offered \
       load";
    rows = goodput_rows;
    notes =
      [
        Printf.sprintf
          "offered load fixed at %.0f kreq/s (32 flows, 64-byte \
           payloads, 3 checksum passes of per-request CPU work); the \
           1-core server saturates, RSS cores recover the rest"
          (offered /. 1e3);
        balance;
      ];
  }

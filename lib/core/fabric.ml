module Engine = Ash_sim.Engine
module Machine = Ash_sim.Machine
module Memory = Ash_sim.Memory
module Costs = Ash_sim.Costs
module Kernel = Ash_kern.Kernel
module An2 = Ash_nic.An2
module Ethernet = Ash_nic.Ethernet
module Switch = Ash_nic.Switch
module Arp = Ash_proto.Arp
module Tcp = Ash_proto.Tcp
module Packet = Ash_proto.Packet
module Bytesx = Ash_util.Bytesx

type node = {
  ip : int;
  mac : int;
  kernel : Kernel.t;
  arp : Arp.t option;
}

type core = { core_idx : int; core_shard : int; core_kernel : Kernel.t }

type t = {
  switch : Switch.t option; (* None on the back-to-back pair *)
  nodes : node array;
  cluster : Engine.Cluster.t;
  jobs : int;
  cores : core array; (* host 0's RSS cores, or host 0 alone as core 0 *)
}

let ip_of_index i = 0x0a00_0000 lor (i + 1)
let mac_of_index i = 0x0200_0000_0000 lor (i + 1)

(* Destination-station hook, consulted per transmitted frame: IPv4
   frames route by the destination address through the node's ARP
   cache; ARP replies unicast back to the requester whose station
   address is right there in the packet; everything else (notably ARP
   requests) broadcasts. An IPv4 destination the cache cannot resolve
   also goes out as broadcast — harmless before the ARP warm-up, exact
   afterwards. *)
let route arp frame =
  let len = Bytes.length frame in
  if len >= Packet.ip_header_len && Bytesx.get_u8 frame 0 = 0x45 then
    Arp.lookup arp ~ip:(Bytesx.get_u32 frame Packet.Ip.off_dst)
  else
    match Arp.Wire.read frame with
    | Ok p when p.Arp.Wire.op = Arp.Wire.op_reply ->
      Some p.Arp.Wire.target_mac
    | _ -> None

(* The RSS cores of a multi-queue host share one station address but
   only core 0 owns an ARP endpoint, so the other rings route from the
   fabric's static address plan instead of a (cross-shard) ARP cache:
   addresses here are a pure function of the host index. *)
let static_route ~hosts frame =
  let len = Bytes.length frame in
  if len >= Packet.ip_header_len && Bytesx.get_u8 frame 0 = 0x45 then begin
    let dst = Bytesx.get_u32 frame Packet.Ip.off_dst in
    let i = (dst land 0x00ff_ffff) - 1 in
    if dst lsr 24 = 0x0a && i >= 0 && i < hosts then Some (mac_of_index i)
    else None
  end
  else
    match Arp.Wire.read frame with
    | Ok p when p.Arp.Wire.op = Arp.Wire.op_reply ->
      Some p.Arp.Wire.target_mac
    | _ -> None

let single_core n =
  [| { core_idx = 0; core_shard = 0; core_kernel = n.kernel } |]

(* The paper's testbed (§IV-A): host 0 serves, host 1 is the client,
   their AN2 boards are connected back to back and, with [ethernet],
   their Ethernet NICs by a cable. The client is built first, and on
   each host the AN2 board before the Ethernet NIC: Ethernet rings
   allocate simulated memory, so this order fixes every address. *)
let pair ?(server_costs = Costs.decstation) ?(ethernet = false) () =
  let cluster = Engine.Cluster.create ~shards:1 () in
  let engine = Engine.Cluster.engine cluster 0 in
  let make i costs =
    let kernel =
      Kernel.create engine costs ~name:(Printf.sprintf "host%d" i)
    in
    let machine = Kernel.machine kernel in
    Kernel.attach_an2 kernel (An2.create engine machine);
    if ethernet then
      Kernel.attach_ethernet kernel (Ethernet.create engine machine);
    { ip = ip_of_index i; mac = mac_of_index i; kernel; arp = None }
  in
  let client = make 1 Costs.decstation in
  let server = make 0 server_costs in
  An2.connect (Kernel.an2 client.kernel) (Kernel.an2 server.kernel);
  if ethernet then
    Ethernet.connect
      (Kernel.ethernet client.kernel)
      (Kernel.ethernet server.kernel);
  { switch = None; nodes = [| server; client |]; cluster; jobs = 1;
    cores = single_core server }

let create ?(costs = Costs.decstation) ?(queue_limit = 16)
    ?notify_queue_limit ?(shards = 1) ?(jobs = 1) ?(server_cores = 1) ~hosts
    () =
  if hosts < 2 then invalid_arg "Fabric.create: need at least two hosts";
  if shards < 1 then invalid_arg "Fabric.create: shards must be >= 1";
  if server_cores < 1 then
    invalid_arg "Fabric.create: server_cores must be >= 1";
  (* The epoch must not exceed the minimum cross-shard virtual latency;
     every cross-shard hop in this topology is a wire with at least
     [eth_hw_oneway_ns] of fixed delay, so events posted during an
     epoch always land beyond it and sharding cannot change virtual
     timing. *)
  let epoch_ns = min 25_000 costs.Costs.eth_hw_oneway_ns in
  let cluster = Engine.Cluster.create ~epoch_ns ~shards () in
  (* Telemetry: per-shard event backlog — the load-balance view of a
     sharded run (all shards sampled together at the epoch barrier). *)
  (match Ash_obs.Timeseries.current () with
   | None -> ()
   | Some ts ->
     for s = 0 to shards - 1 do
       let e = Engine.Cluster.engine cluster s in
       Ash_obs.Timeseries.register_gauge ts
         (Printf.sprintf "engine.shard%d.pending" s)
         (fun () -> float_of_int (Engine.pending e))
     done);
  let shard_engine s = Engine.Cluster.engine cluster s in
  let shard_exec s =
    if shards > 1 then Some (Engine.Cluster.exec cluster s) else None
  in
  let switch =
    Switch.create (shard_engine 0) ~queue_limit ~costs ~ports:hosts ()
  in
  (match shard_exec 0 with
   | Some exec -> Switch.set_exec switch exec
   | None -> ());
  let set_rx nic s =
    match shard_exec s with
    | Some exec -> Ethernet.set_rx_exec nic exec
    | None -> ()
  in
  let cores = ref [||] in
  let nodes =
    Array.init hosts (fun i ->
        let s = i mod shards in
        let e = shard_engine s in
        if i = 0 && server_cores > 1 then begin
          (* Multi-queue server: one kernel + ring NIC per core, all
             behind one RSS switch port. Core c lives on shard
             (c mod shards); the flow hash decides which core — and
             therefore which shard — serves each flow. *)
          let built =
            Array.init server_cores (fun c ->
                let cs = c mod shards in
                let ce = shard_engine cs in
                let k =
                  Kernel.create ?notify_queue_limit ce costs
                    ~name:(Printf.sprintf "host0.core%d" c)
                in
                let ring = Ethernet.create ce (Kernel.machine k) in
                Kernel.attach_ethernet k ring;
                Ethernet.set_mac ring (mac_of_index 0);
                Ethernet.set_route ring (static_route ~hosts);
                set_rx ring cs;
                { core_idx = c; core_shard = cs; core_kernel = k })
          in
          cores := built;
          Switch.attach_rss switch ~port:0
            (Array.map (fun c -> Kernel.ethernet c.core_kernel) built);
          let k0 = built.(0).core_kernel in
          let arp =
            Arp.create k0 ~my_ip:(ip_of_index 0) ~my_mac:(mac_of_index 0)
          in
          { ip = ip_of_index 0; mac = mac_of_index 0; kernel = k0;
            arp = Some arp }
        end
        else begin
          let kernel =
            Kernel.create ?notify_queue_limit e costs
              ~name:(Printf.sprintf "host%d" i)
          in
          let eth = Ethernet.create e (Kernel.machine kernel) in
          Kernel.attach_ethernet kernel eth;
          Ethernet.set_mac eth (mac_of_index i);
          set_rx eth s;
          Switch.attach switch ~port:i eth;
          let arp =
            Arp.create kernel ~my_ip:(ip_of_index i) ~my_mac:(mac_of_index i)
          in
          Ethernet.set_route eth (route arp);
          { ip = ip_of_index i; mac = mac_of_index i; kernel;
            arp = Some arp }
        end)
  in
  let cores =
    if Array.length !cores > 0 then !cores else single_core nodes.(0)
  in
  { switch = Some switch; nodes; cluster; jobs; cores }

let hosts t = Array.length t.nodes
let host t i = t.nodes.(i)
let engine t = Engine.Cluster.engine t.cluster 0

let switch t =
  match t.switch with
  | Some s -> s
  | None -> invalid_arg "Fabric.switch: a back-to-back pair has no switch"

let cluster t = t.cluster

let host_engine t h =
  Engine.Cluster.engine t.cluster (h mod Engine.Cluster.shards t.cluster)

let cores t = t.cores
let now t = Engine.Cluster.now t.cluster
let run t = Engine.Cluster.run ~jobs:t.jobs t.cluster
let run_until t at = Engine.Cluster.run_until ~jobs:t.jobs t.cluster at
let run_for t d = run_until t (now t + d)
let now_us t = Ash_sim.Time.us_of_ns (now t)

let alloc n ?(name = "app") len =
  Memory.alloc (Machine.mem (Kernel.machine n.kernel)) ~name len

let alloc_filled n ?(name = "payload") ~seed len =
  let r = alloc n ~name len in
  let payload = Bytes.create len in
  Ash_util.Rng.fill_bytes (Ash_util.Rng.create seed) payload;
  Memory.blit_from_bytes
    (Machine.mem (Kernel.machine n.kernel))
    ~src:payload ~src_off:0 ~dst:r.Memory.base ~len;
  r

let post_buffers n ~vc ~count ~size =
  for i = 1 to count do
    let r = alloc n ~name:(Printf.sprintf "rxbuf-%d-%d" vc i) size in
    Kernel.post_receive_buffer n.kernel ~vc ~addr:r.Memory.base
      ~len:r.Memory.len
  done

(* Pre-resolve the server's station address from every other host, one
   host per virtual millisecond so the request broadcasts don't pile up
   on the finite egress queues. The broadcasts teach the server (and
   the switch) every client's address in the same sweep, so a warmed
   fabric runs all-unicast. Each resolution is scheduled on its host's
   own shard. *)
let warm_arp t ~server =
  let arps =
    Array.map
      (fun n ->
         match n.arp with
         | Some a -> a
         | None -> invalid_arg "Fabric.warm_arp: a back-to-back pair has no ARP")
      t.nodes
  in
  let ip = t.nodes.(server).ip in
  Array.iteri
    (fun h arp ->
       if h <> server then
         ignore
           (Engine.schedule (host_engine t h) ~delay:(h * 1_000_000)
              (fun () -> Arp.resolve arp ~ip (fun _ -> ()))))
    arps;
  run t;
  Array.iteri
    (fun h arp ->
       if h <> server && Arp.lookup arp ~ip = None then
         failwith "Fabric.warm_arp: resolution failed")
    arps

(* A connection's two endpoints, preconfigured for each other. Ports
   must be unique per live connection: Ethernet TCP demux filters match
   (proto, src_port, dst_port). Creation installs the endpoint's demux
   filter, so on a sharded fabric each side must be created on its own
   host's shard — hence the split constructors. *)
let tcp_base ~mss ~window ~checksum ~rto =
  { Tcp.default_config with
    medium = Tcp.Tcp_ethernet; mss; window; checksum; rto }

let tcp_client t ~client ~server ~client_port ~server_port
    ?(mss = 1460) ?(window = 4096) ?(checksum = false)
    ?(rto = Tcp.default_rto) () =
  let cn = t.nodes.(client) and sn = t.nodes.(server) in
  Tcp.create cn.kernel
    { (tcp_base ~mss ~window ~checksum ~rto) with
      local_ip = cn.ip; local_port = client_port;
      remote_ip = sn.ip; remote_port = server_port;
      iss = 1_000 + client_port }

let tcp_server t ~client ~server ~client_port ~server_port
    ?(mss = 1460) ?(window = 4096) ?(checksum = false)
    ?(rto = Tcp.default_rto) () =
  let cn = t.nodes.(client) and sn = t.nodes.(server) in
  Tcp.create sn.kernel
    { (tcp_base ~mss ~window ~checksum ~rto) with
      local_ip = sn.ip; local_port = server_port;
      remote_ip = cn.ip; remote_port = client_port;
      iss = 5_000 + server_port }

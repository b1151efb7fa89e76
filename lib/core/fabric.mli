(** The many-host switched fabric: {!Testbed} generalized to N hosts.

    N simulated DECstations, each with its own kernel, Ethernet NIC and
    ARP endpoint, all wired to one store-and-forward {!Ash_nic.Switch}.
    Host [i] owns IP [10.0.0.(i+1)] and station address
    [02:00:00:00:xx:xx]. Transmit routing is per frame: IPv4
    destinations resolve through the sender's ARP cache, ARP replies
    unicast to the requester, everything unresolved broadcasts.

    With [shards > 1] the fabric runs on an {!Ash_sim.Engine.Cluster}:
    host [h] lives on shard [h mod shards] (the switch on shard 0), all
    cross-shard traffic rides the wires' fixed latency through the
    cluster's epoch barrier, and [jobs] worker domains execute the
    shards — with byte-identical results at any [jobs], including 1.

    With [server_cores > 1] host 0 becomes a multi-queue server: one
    kernel (its own handler cache, DPF trie, machine) and one RSS ring
    NIC per core behind a single switch port, with the {!Ash_nic.Rss}
    flow hash steering each arriving frame to the core that owns its
    flow. Core [c] lives on shard [c mod shards].

    The scale suite drives thousands of concurrent TCP connections with
    accept/teardown churn through one server host of this topology; see
    {!Exp_scale}. *)

type node = {
  idx : int;
  ip : int;
  mac : int;
  kernel : Ash_kern.Kernel.t;
  eth : Ash_nic.Ethernet.t;
  arp : Ash_proto.Arp.t;
}

type core = {
  core_idx : int;
  core_shard : int;
  core_kernel : Ash_kern.Kernel.t;
  core_eth : Ash_nic.Ethernet.t;
}

type t = {
  engine : Ash_sim.Engine.t;
      (** Shard 0's engine — the whole fabric when [shards = 1]. *)
  costs : Ash_sim.Costs.t;
  switch : Ash_nic.Switch.t;
  nodes : node array;
  cluster : Ash_sim.Engine.Cluster.t;
  jobs : int;
  cores : core array;
      (** Host 0's RSS cores, or host 0 itself as the one core 0 when
          [server_cores = 1]; [cores.(0).core_kernel == (host t 0).kernel]. *)
}

val create :
  ?costs:Ash_sim.Costs.t ->
  ?queue_limit:int ->
  ?notify_queue_limit:int ->
  ?shards:int ->
  ?jobs:int ->
  ?epoch_ns:Ash_sim.Time.ns ->
  ?server_cores:int ->
  hosts:int ->
  unit ->
  t
(** [hosts ≥ 2] nodes on a [hosts]-port switch. [queue_limit] bounds
    each switch egress queue (default 16); [notify_queue_limit] is
    passed to every kernel. [shards] (default 1) splits the fabric
    across a cluster and [jobs] (default 1) sets how many domains
    execute it; results are independent of [jobs]. [epoch_ns] overrides
    the merge-barrier epoch (default [min 25_000 eth_hw_oneway_ns];
    must not exceed [eth_hw_oneway_ns], the fabric's minimum
    cross-shard latency). [server_cores] (default 1) gives host 0 that
    many RSS cores. *)

val hosts : t -> int
val host : t -> int -> node
val engine : t -> Ash_sim.Engine.t
val switch : t -> Ash_nic.Switch.t
val cluster : t -> Ash_sim.Engine.Cluster.t
val shards : t -> int
val jobs : t -> int

val shard_of_host : t -> int -> int
(** [h mod shards]. *)

val host_engine : t -> int -> Ash_sim.Engine.t
(** The engine of host [h]'s shard: schedule a host's driver events
    here, never on another shard's engine. *)

val cores : t -> core array

val now : t -> Ash_sim.Time.ns
(** Max over shard clocks. *)

val run : t -> unit
(** Run to quiescence through the cluster (all shards, [jobs] domains). *)

val run_until : t -> Ash_sim.Time.ns -> unit
val run_for : t -> Ash_sim.Time.ns -> unit
val now_us : t -> float

val alloc : node -> ?name:string -> int -> Ash_sim.Memory.region
val alloc_filled :
  node -> ?name:string -> seed:int -> int -> Ash_sim.Memory.region

val warm_arp : t -> server:int -> unit
(** Resolve the server's station address from every other host (one
    host per virtual millisecond, so request broadcasts don't overrun
    the finite egress queues) and run the fabric until done. The
    broadcast requests teach the server and the switch every client's
    address, so subsequent traffic is all-unicast. Raises [Failure] if
    any resolution fails. *)

val tcp_pair :
  t ->
  client:int ->
  server:int ->
  client_port:int ->
  server_port:int ->
  ?mss:int ->
  ?window:int ->
  ?checksum:bool ->
  ?rto:Ash_proto.Tcp.rto_policy ->
  unit ->
  Ash_proto.Tcp.t * Ash_proto.Tcp.t
(** Build a (client, server) endpoint pair over the fabric's Ethernet.
    Neither side is opened: callers [listen]/[connect]. Ports must be
    unique per live connection (Ethernet TCP filters demux on the port
    pair). Defaults: mss 1460 (one MTU), window 4096, no checksum,
    adaptive RTO. The server endpoint lives on [(host t server).kernel]
    — on a multi-queue server that is core 0, so TCP service stays
    single-core; the multicore experiments drive per-core ASHs
    instead. *)

val tcp_client :
  t ->
  client:int ->
  server:int ->
  client_port:int ->
  server_port:int ->
  ?mss:int ->
  ?window:int ->
  ?checksum:bool ->
  ?rto:Ash_proto.Tcp.rto_policy ->
  unit ->
  Ash_proto.Tcp.t

val tcp_server :
  t ->
  client:int ->
  server:int ->
  client_port:int ->
  server_port:int ->
  ?mss:int ->
  ?window:int ->
  ?checksum:bool ->
  ?rto:Ash_proto.Tcp.rto_policy ->
  unit ->
  Ash_proto.Tcp.t
(** The two halves of {!tcp_pair}, for callers that must create each
    endpoint on its own host's shard (endpoint creation installs the
    demux filter in that host's kernel): on a sharded fabric, build the
    side for host [h] from an event running on [host_engine t h]. *)

val udp_pair :
  t ->
  client:int ->
  server:int ->
  client_port:int ->
  server_port:int ->
  ?checksum:bool ->
  unit ->
  Ash_proto.Udp.t * Ash_proto.Udp.t

val ip_of_index : int -> int
val mac_of_index : int -> int

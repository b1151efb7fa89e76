(** The simulated hosts and how they are wired. One module builds both
    topologies the experiments run on, with one node type and one set
    of run/alloc helpers:

    - {!pair} is the paper's testbed (§IV-A): two DECstations whose AN2
      boards are connected back to back, optionally with an Ethernet
      cable between them too. Host 0 is the server and host 1 the
      client (the client initiates, the server responds). There is no
      switch and no ARP.
    - {!create} puts N hosts, each with an Ethernet NIC and an ARP
      endpoint, on one store-and-forward {!Ash_nic.Switch}. Transmit
      routing is per frame: IPv4 destinations resolve through the
      sender's ARP cache, ARP replies unicast to the requester,
      everything unresolved broadcasts.

    Host [i] owns IP [10.0.0.(i+1)] and station address
    [02:00:00:00:xx:xx]; the switched fabric configures its NIC and ARP
    endpoint with them, the back-to-back pair routes nothing by
    address. A host's NICs are read from its kernel
    ({!Ash_kern.Kernel.an2}, {!Ash_kern.Kernel.ethernet}).

    With [shards > 1] the switched fabric runs on an
    {!Ash_sim.Engine.Cluster}: host [h] lives on shard [h mod shards]
    (the switch on shard 0), all cross-shard traffic rides the wires'
    fixed latency through the cluster's epoch barrier, and [jobs]
    worker domains execute the shards — with byte-identical results at
    any [jobs], including 1. The pair is a one-shard cluster.

    With [server_cores > 1] host 0 becomes a multi-queue server: one
    kernel (its own handler cache, DPF trie, machine) and one RSS ring
    NIC per core behind a single switch port, with the {!Ash_nic.Rss}
    flow hash steering each arriving frame to the core that owns its
    flow. Core [c] lives on shard [c mod shards].

    The scale suite drives thousands of concurrent TCP connections with
    accept/teardown churn through one server host of the switched
    topology; see {!Exp_scale}. *)

type node = {
  ip : int;
  mac : int;
  kernel : Ash_kern.Kernel.t;
  arp : Ash_proto.Arp.t option;  (** Switched hosts only. *)
}

type core = {
  core_idx : int;
  core_shard : int;
  core_kernel : Ash_kern.Kernel.t;
}

type t

val pair : ?server_costs:Ash_sim.Costs.t -> ?ethernet:bool -> unit -> t
(** The back-to-back testbed. Both hosts use
    {!Ash_sim.Costs.decstation} unless [server_costs] overrides host
    0's. [ethernet] (default false) also gives each host an Ethernet
    NIC and connects the two. *)

val create :
  ?costs:Ash_sim.Costs.t ->
  ?queue_limit:int ->
  ?notify_queue_limit:int ->
  ?shards:int ->
  ?jobs:int ->
  ?server_cores:int ->
  hosts:int ->
  unit ->
  t
(** [hosts ≥ 2] nodes on a [hosts]-port switch. [queue_limit] bounds
    each switch egress queue (default 16); [notify_queue_limit] is
    passed to every kernel. [shards] (default 1) splits the fabric
    across a cluster and [jobs] (default 1) sets how many domains
    execute it; results are independent of [jobs]. [server_cores]
    (default 1) gives host 0 that many RSS cores. *)

val hosts : t -> int
val host : t -> int -> node

val engine : t -> Ash_sim.Engine.t
(** Shard 0's engine: the whole simulation on a pair or an unsharded
    fabric, and the switch's shard otherwise. *)

val switch : t -> Ash_nic.Switch.t
(** Raises [Invalid_argument] on a pair. *)

val cluster : t -> Ash_sim.Engine.Cluster.t

val host_engine : t -> int -> Ash_sim.Engine.t
(** The engine of host [h]'s shard: schedule a host's driver events
    here, never on another shard's engine. *)

val cores : t -> core array
(** Host 0's RSS cores, or host 0 itself as the one core 0 when it has
    a single core; [(cores t).(0).core_kernel == (host t 0).kernel]. *)

val now : t -> Ash_sim.Time.ns
(** Max over shard clocks. *)

val run : t -> unit
(** Run to quiescence through the cluster (all shards, [jobs] domains). *)

val run_until : t -> Ash_sim.Time.ns -> unit
val run_for : t -> Ash_sim.Time.ns -> unit
val now_us : t -> float

val alloc : node -> ?name:string -> int -> Ash_sim.Memory.region
(** Allocate pinned application memory on a host. *)

val alloc_filled :
  node -> ?name:string -> seed:int -> int -> Ash_sim.Memory.region
(** Allocate and fill with deterministic pseudo-random payload. *)

val post_buffers : node -> vc:int -> count:int -> size:int -> unit
(** Allocate [count] receive buffers and post them on the AN2 VC. *)

val warm_arp : t -> server:int -> unit
(** Resolve the server's station address from every other host (one
    host per virtual millisecond, so request broadcasts don't overrun
    the finite egress queues) and run the fabric until done. The
    broadcast requests teach the server and the switch every client's
    address, so subsequent traffic is all-unicast. Raises [Failure] if
    any resolution fails, [Invalid_argument] on a pair. *)

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
(** The two endpoints of a connection over the fabric's Ethernet,
    preconfigured for each other. Neither is opened: callers
    [listen]/[connect]. Ports must be unique per live connection
    (Ethernet TCP filters demux on the port pair). Defaults: mss 1460
    (one MTU), window 4096, no checksum, adaptive RTO. Creating an
    endpoint installs its demux filter in the host's kernel, so on a
    sharded fabric build the side for host [h] from an event running
    on [host_engine t h]. The server endpoint lives on
    [(host t server).kernel] — on a multi-queue server that is core 0,
    so TCP service stays single-core; the multicore experiments drive
    per-core ASHs instead. *)

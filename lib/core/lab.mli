(** Shared experiment drivers.

    Each function builds a fresh back-to-back pair ({!Fabric.pair}:
    host 1 is the client, host 0 the server), runs one workload from
    the paper's evaluation, and returns the measurement. The
    methodology follows §IV-B: several iterations, warmup discarded,
    statistics over the rest (the simulation is deterministic, so the
    confidence intervals mostly certify steady state was reached). *)

type server_mode =
  | Srv_user                    (** User-level library delivery. *)
  | Srv_ash of { sandbox : bool }
  | Srv_upcall
  | Srv_hardwired               (** Hand-written in-kernel code. *)

val raw_pingpong :
  ?payload_len:int ->
  ?iters:int ->
  ?server_suspended:bool ->
  server_mode ->
  Ash_util.Stats.summary
(** Raw AN2 round-trip latency in microseconds (Tables I and V's
    echo-shaped variants): the client is a user-level polling process;
    the server answers with the selected mechanism. *)

val inkernel_pingpong : ?payload_len:int -> ?iters:int -> unit -> float
(** Both sides hardwired in the kernel (Table I row 1): microseconds
    per round trip. *)

val remote_increment :
  ?iters:int ->
  ?server_suspended:bool ->
  ?nprocs:int ->
  ?policy:Ash_kern.Sched.policy ->
  ?server_costs:Ash_sim.Costs.t ->
  server_mode ->
  Ash_util.Stats.summary * Ash_vm.Interp.result option
(** The remote-increment experiment (Table V, Fig. 4): round-trip
    microseconds plus, for handler modes, the last invocation's
    interpreter result (dynamic instruction counts). [nprocs] installs
    the Fig. 4 process-rotation model on the server. *)

val raw_train_throughput : size:int -> count:int -> unit -> float
(** User-level AN2 packet-train throughput in MB/s (Fig. 3): [count]
    packets of [size] bytes, then a 4-byte acknowledgment. *)

val eth_pingpong : ?payload_len:int -> ?iters:int -> unit -> float
(** User-level Ethernet round trip in microseconds (Table I row 3),
    demultiplexed through a compiled DPF filter. *)

(* -- UDP ---------------------------------------------------------------- *)

val udp_latency :
  checksum:bool -> in_place:bool -> medium:[ `An2 | `Eth ] -> unit -> float
(** 4-byte UDP ping-pong, microseconds (Table II). *)

val udp_train_throughput :
  checksum:bool ->
  in_place:bool ->
  medium:[ `An2 | `Eth ] ->
  ?train:int ->
  ?rounds:int ->
  unit ->
  float
(** UDP throughput, MB/s: trains of maximum-segment datagrams, each
    train acknowledged by a small reply (Table II methodology). *)

(* -- TCP ---------------------------------------------------------------- *)

val tcp_pair :
  mode:Ash_proto.Tcp.mode ->
  checksum:bool ->
  in_place:bool ->
  ?mss:int ->
  ?suspended:bool ->
  ?medium:[ `An2 | `Eth ] ->
  ?rto:Ash_proto.Tcp.rto_policy ->
  ?fast_retransmit:bool ->
  Fabric.t ->
  Ash_proto.Tcp.t * Ash_proto.Tcp.t
(** Create, connect and (optionally) suspend a client/server connection
    pair on an existing {!Fabric.pair}. Returns (client, server). [rto] and
    [fast_retransmit] (defaults: adaptive, on) select the loss-recovery
    policy — the chaos experiments compare policies under injected
    faults. *)

val tcp_latency :
  mode:Ash_proto.Tcp.mode ->
  checksum:bool ->
  ?suspended:bool ->
  ?iters:int ->
  ?medium:[ `An2 | `Eth ] ->
  unit ->
  float
(** 4-byte TCP ping-pong, microseconds (Tables II and VI). *)

val tcp_throughput :
  mode:Ash_proto.Tcp.mode ->
  checksum:bool ->
  in_place:bool ->
  ?mss:int ->
  ?chunk:int ->
  ?total:int ->
  ?suspended:bool ->
  ?medium:[ `An2 | `Eth ] ->
  unit ->
  float * Ash_proto.Tcp.stats
(** Bulk transfer throughput in MB/s: [total] bytes written in [chunk]
    pieces over a synchronous connection (Tables II and VI). Also
    returns the server-side stats (fast-path hit/abort counts). *)

(** Multicore scaling: RSS-sharded server goodput versus cores.

    A fixed offered load of small UDP requests (each costing the
    handler a few checksum passes of CPU work) is aimed at host 0. With
    one simulated server CPU the service time saturates the core and
    goodput caps at its capacity; with [cores > 1] the RSS flow hash
    spreads flows over per-core kernels and goodput recovers. Goodput is
    virtual time, so it is host-independent. *)

type mc_spec = {
  cores : int;  (** Server cores = fabric shards. *)
  jobs : int;
  clients : int;
  flows_per_client : int;
  payload : int;  (** Request payload bytes (word multiple). *)
  work_loops : int;  (** Checksum passes over the payload per request. *)
  interval_ns : int;  (** Per-flow request period. *)
  warmup_ns : int;
  window_ns : int;  (** Measurement window after warmup. *)
}

val default_mc : mc_spec
(** 8 clients x 4 flows at 4k req/s each (32k req/s offered), 64-byte
    payloads, 3 work loops, 50 ms warmup, 250 ms window. *)

type mc_result = {
  offered_rps : float;
  goodput_rps : float;  (** Replies per second inside the window. *)
  replies_counted : int;
  ring_flows : int array;
      (** How many flows the hash assigned to each ring. *)
}

val run_mc : mc_spec -> mc_result
(** One goodput measurement on a fresh fabric. Replies are counted
    in-kernel on each client (a bare-commit sink handler per flow), so
    the number is end-to-end: request wire crossing, server demux +
    handler + serialized per-core CPU time, reply wire crossing. *)

val multicore : unit -> Report.table
(** The [exp_multicore] table: goodput and speedup-vs-1-core at 1, 2
    and 4 cores. *)

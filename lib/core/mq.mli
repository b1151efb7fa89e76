(** In-kernel replicated message queue with at-least-once delivery.

    Two broker hosts (0 = primary, 1 = replica) serve produce,
    replicate, fetch and poll entirely from downloaded ASHs over three
    memory segments each — a log ring, a one-word offset counter, and
    a per-producer session table that doubles as the dedup window
    ({!Handlers.mq_produce} etc.). Producer hosts 2.. run a
    stop-and-wait client with per-producer sequence numbers,
    exponential-backoff retransmission, and failover redirection after
    [redirect_after] consecutive timeouts.

    The primary's produce handler chains a replicate to the replica
    inside the handler (message-initiation chaining) and the {e
    replica} acks the client, so an acknowledgement implies the
    message is durable on both logs at the acknowledged offset. Under
    partition or primary crash, clients redirect to the replica and
    replay from their last acknowledged sequence; the replica's
    session table dedups the replay, so the surviving log holds every
    acknowledged message exactly once, in per-producer sequence order
    — which {!audit} checks mechanically. The replica's log is
    append-only in every scenario scheduled here (only the primary is
    crashed or partitioned); consumers therefore fetch from the
    replica only, and re-syncing a lost replica is explicitly out of
    scope (DESIGN.md §13).

    Telemetry: registers [mq.appends], [mq.dedup_hits],
    [mq.redeliveries], [mq.repl_lag] and [mq.log_depth] on the ambient
    {!Ash_obs.Timeseries} when one is installed, emits
    {!Ash_obs.Trace.kind.Mq_redelivery} events on every retransmit,
    and mirrors the handler-maintained drop counters into the unified
    [drops.mq.dup-seq] / [drops.mq.stale-seq] / [drops.mq.repl-gap]
    metric namespace via a periodic housekeeping tick. *)

type spec = {
  producers : int;  (** one producer process per host, hosts 2.. *)
  capacity : int;  (** log slots per broker *)
  payload_words : int;  (** 32-bit payload words per message (1..12) *)
  produce_port : int;  (** produce/ack UDP port, bound on both brokers *)
  repl_port : int;  (** replication port, replica only *)
  fetch_port : int;  (** fetch/poll port, bound on both brokers *)
  retry_base_ns : int;  (** first retransmit timeout *)
  retry_cap_ns : int;  (** backoff ceiling *)
  redirect_after : int;  (** consecutive timeouts before failover *)
  max_attempts : int;
      (** bound the audit enforces on per-message attempts; retries
          continue at the capped interval regardless (liveness) *)
  housekeep_ns : int;  (** broker telemetry/drop-mirror tick *)
  consumer_rto_ns : int;  (** consumer re-fetch timeout *)
  horizon_ns : int;
      (** periodic ticks stop at this virtual time so full event-queue
          drains still terminate *)
}

val default_spec : spec

type t

val create : Fabric.t -> spec -> t
(** Warm ARP both ways, allocate broker segments, download and bind
    the handlers, bind per-producer ack endpoints, and start the
    housekeeping ticks. Requires [hosts >= 2 + producers]. *)

val produce : t -> producer:int -> count:int -> at:int -> unit
(** Enqueue [count] messages on [producer]'s host at virtual time
    [at]. The client sends them stop-and-wait; payload contents are a
    deterministic function of (producer, seq) that {!audit}
    recomputes. *)

val add_consumer :
  t -> host:int -> start_at:int -> interval_ns:int -> until:int -> int
(** Start a consumer on [host] (>= 2; may share a producer host): from
    [start_at], every [interval_ns] until [until], fetch the next
    offset from the replica (or poll for the head), with
    [consumer_rto_ns] retransmission. Returns the consumer index. *)

(** {1 Chaos} *)

val install_chaos : t -> config:Ash_sim.Fault.config -> seed:int -> unit
(** [config] on every link, both directions, each direction seeded
    distinctly ([seed + 2h], [seed + 2h + 1]). Setup-time or
    scheduled-callback use only. *)

val schedule_crash : t -> broker:int -> Ash_sim.Fault.outage -> unit
(** Kernel crash with scheduled heal, on the broker's own engine: at
    [down_at] the broker's segments are zeroed and its kernel
    {!Ash_kern.Kernel.reboot}s (every binding gone, arrivals drop at
    the demux boundary); at [heal_at] the data plane reinstalls cold.
    The delivery argument assumes only the {e primary} is crashed. *)

val schedule_partition :
  t -> broker:int -> ?seed:int -> Ash_sim.Fault.outage -> unit
(** Total loss in both directions for the outage window —
    {!Ash_sim.Fault.partition} plans installed from the engines that
    own each direction, so runs are deterministic at any [--jobs]. *)

(** {1 Outcome} *)

val drain : t -> deadline:int -> bool
(** Run the fabric until every producer is idle (no inflight, no
    pending) or [deadline]; true when drained. *)

type stats = {
  s_produced : int;  (** sequences started *)
  s_acked : int;
  s_redeliveries : int;  (** producer retransmissions *)
  s_refetches : int;  (** consumer retransmissions *)
  s_delivered : int;  (** consumer records *)
  s_appends : int * int;  (** (primary, replica), crash-surviving *)
  s_dedup : int * int;
  s_stale : int * int;
  s_gap : int * int;
  s_log : int * int;  (** live log depths (0 while wiped) *)
  s_max_attempt : int;  (** worst per-message attempt count *)
  s_blackout_ns : int;  (** widest producer send-to-ack gap: the
                            produce-blackout window under failover *)
}

val stats : t -> stats

type audit = {
  a_ok : bool;
  a_errors : string list;  (** first few failures, human-readable *)
  a_log_len : int;  (** replica log length *)
  a_acked : int;
  a_delivered : int;
}

val audit : ?check_prefix_equal:bool -> t -> audit
(** Replay the replica log and verify the delivery contract: no
    duplicate (producer, seq); per-producer sequences strictly
    increasing in offset order; payloads intact; every acknowledged
    message present at its acknowledged offset; every consumer record
    present in the log; producers drained and within [max_attempts].
    [check_prefix_equal] (clean runs) additionally requires the
    primary log to be byte-identical. *)

val acked_offsets : t -> producer:int -> (int * int * int) list
(** [(seq, offset, ack_ts)] in ack order. *)

val delivered : t -> consumer:int -> (int * int * int * bool) list
(** [(offset, producer, seq, payload_ok)] in delivery order. *)

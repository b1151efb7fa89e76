(** Connection-churn scale experiment over the many-host {!Fabric}
    (`ashbench exp_scale`, the "exp_scale" bench table).

    Drives up to thousands of concurrent TCP echo connections through
    one server host of a switched fabric — staggered connects, a
    concurrent data phase, then close/teardown churn — and measures
    goodput, echo round-trip percentiles, per-connection fairness and
    resource reclamation. A second section measures worst-case demux
    cost through the merged DPF trie at 64 vs 4096 installed filters
    (the flatness claim behind scaling the demux point count). *)

type churn_spec = {
  connections : int;
  client_hosts : int;   (** Connections round-robin over this many hosts. *)
  rounds : int;         (** Request/response cycles per connection. *)
  payload : int;        (** Bytes per request (echoed back verbatim). *)
  queue_limit : int;    (** Switch egress queue bound. *)
  connect_stagger_ns : int;
  data_stagger_ns : int;
  verify : bool;        (** Byte-verify every echoed payload. *)
  deadline_ns : int;    (** Virtual-time cap on the whole run. *)
  shards : int;
      (** Fabric shards: host [h] runs on shard [h mod shards], driver
          events included. Results are identical at any shard count. *)
  jobs : int;           (** Worker domains executing the shards. *)
}

val env_spec : unit -> churn_spec
(** 64 connections over 8 client hosts, 4 rounds of 256-byte echoes,
    16-deep switch queues, 100 us connect / 250 us data stagger, no
    byte verification, 60 virtual-second deadline. [shards]/[jobs]
    come from the [ASH_SHARDS]/[ASH_JOBS] environment variables as they
    are at the call (else 1/1), so a [putenv] made after start-up, as
    by [ashbench run --jobs], takes effect. {!scale} and the registry's
    churn kernel start from this. *)

val default_spec : churn_spec
(** {!env_spec} as the environment stood at start-up, so the whole
    scale suite can be re-run sharded without touching any test. *)

type churn_result = {
  completed : int;
      (** Connections that finished every round and closed both sides. *)
  stragglers : int;
      (** Endpoints force-torn-down at the deadline (0 on a clean run). *)
  echoed_bytes : int;    (** Application bytes echoed back to clients. *)
  makespan_ns : int;     (** Data-phase span: barrier to last close. *)
  goodput_mbs : float;   (** [echoed_bytes] over the data-phase span. *)
  rtt_p50_us : float;    (** Echo round trip, median. *)
  rtt_p99_us : float;    (** Echo round trip, 99th percentile. *)
  fairness_ratio : float;
      (** Max/min per-connection mean round trip, over connections that
          completed all rounds. 1.0 is perfectly fair. *)
  verify_failures : int; (** Byte mismatches (when [verify] is set). *)
  leaked_bindings : int; (** Kernel bindings above baseline, all hosts. *)
  leaked_filters : int;  (** Trie filters above baseline, all hosts. *)
  leaked_regions : int;  (** Memory regions above baseline, all hosts. *)
  switch_drops : int;    (** Egress tail drops across all switch ports. *)
  retransmits : int;     (** TCP segments resent, both directions. *)
}

val run_churn : ?configure:(Fabric.t -> unit) -> churn_spec -> churn_result
(** One full churn run on a fresh fabric ([client_hosts + 1] hosts,
    server at host 0). Deterministic: same spec, same result.
    [configure] runs on the warmed fabric before any connection opens —
    the chaos suite uses it to install switch-port fault plans. *)

val scale : unit -> Report.table
(** The goodput/latency-vs-connections table at 16, 64, 256 and 1024
    connections, and the demux-flatness table ([ashbench run
    exp_scale]). *)

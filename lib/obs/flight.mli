(** Always-on black-box flight recorder.

    A {!t} arms a {!Trace.add_tap} on the root event stream and keeps a
    small secondary ring of recent events — independent of any
    {!Trace.recorder}, so it stays live across [record]/[stop] cycles
    and costs nothing to the rest of the stack beyond event emission.
    When an anomaly trigger fires it snapshots a postmortem {!dump}:
    the triggering event, the recent event window, the causal spans
    recoverable from that window, and the trailing samples of the
    ambient {!Timeseries} (when one is installed).

    Triggers (thresholds in {!config}):
    - {e quarantine}: any {!Trace.kind.Ash_quarantine} event;
    - {e queue-full burst}: ≥ [queue_full_burst] kernel [Queue_full]
      drops within [burst_window_ns];
    - {e retransmit storm}: ≥ [retransmit_storm]
      {!Trace.kind.Tcp_retransmit} events within [burst_window_ns];
    - {e redelivery storm}: ≥ [redelivery_storm]
      {!Trace.kind.Mq_redelivery} events within [burst_window_ns] —
      the message-queue clients are resending faster than the brokers
      acknowledge;
    - {e switch-drop spike}: ≥ [switch_drop_spike] switch tail drops
      within [burst_window_ns];
    - {e stalled epoch}: events keep flowing (or {!heartbeat} keeps
      arriving) but no delivery-progress event has been seen for
      [stall_ns]. A single event or heartbeat arriving after a quiet
      gap of [stall_ns] or more does {e not} fire: the simulation
      fast-forwarded over idle virtual time (an RTO backoff, a
      TIME_WAIT expiry), which is the engine working as designed — a
      real stall has activity landing {e inside} the window with no
      progress among it.

    After a dump the recorder goes quiet for [cooldown_ns] so one
    sustained anomaly produces one dump, not thousands; at most
    [max_dumps] dumps are retained per arming. Virtual time running
    backwards (a new engine in the same process) resets the windows. *)

type trigger =
  | Quarantine
  | Queue_full_burst
  | Retransmit_storm
  | Redelivery_storm
  | Switch_drop_spike
  | Stalled_epoch

val trigger_label : trigger -> string
(** Stable dashed label, e.g. ["queue-full-burst"]. *)

type config = {
  ring_capacity : int;
      (** retained recent events (default 2048); [engine.scheduled] and
          [engine.fired] are never retained *)
  metric_window : int;  (** trailing samples per series (default 32) *)
  queue_full_burst : int;  (** threshold; [<= 0] disables (default 8) *)
  retransmit_storm : int;  (** threshold; [<= 0] disables (default 12) *)
  redelivery_storm : int;  (** threshold; [<= 0] disables (default 12) *)
  switch_drop_spike : int;  (** threshold; [<= 0] disables (default 8) *)
  burst_window_ns : int;  (** burst-counting window (default 1 ms) *)
  stall_ns : int;  (** progress-starvation bound; [<= 0] disables
                       (default 50 ms) *)
  cooldown_ns : int;  (** quiet period after a dump (default 5 ms) *)
  max_dumps : int;  (** retained dumps per arming (default 8) *)
}

val default_config : config

type dump = {
  d_trigger : trigger;
  d_ts : int;  (** virtual time the trigger fired *)
  d_event : Trace.event option;
      (** the triggering event ([None] for a heartbeat-detected
          stall) *)
  d_events : Trace.event list;  (** the recent-event window, oldest
                                    first *)
  d_spans : Span.interval list;  (** causal spans closed within the
                                     window *)
  d_metrics : Timeseries.view list;
      (** trailing metric samples at dump time; [[]] without an
          ambient timeseries *)
  d_interval_ns : int;  (** the sampled timeseries' grid pitch *)
}

type t

val arm : ?config:config -> ?timeseries:Timeseries.t -> unit -> t
(** Install the tap. [timeseries] defaults to {!Timeseries.current}
    read lazily at each dump, so arming order never matters. While any
    flight recorder is armed, {!Trace.enabled} is true and every layer
    emits events. *)

val disarm : t -> unit
(** Remove the tap. Dumps stay readable. *)

val heartbeat : t -> now:int -> unit
(** Progress-starvation check without an event: the cluster calls this
    at every epoch barrier so a stall on a quiet shard layout is still
    caught. *)

val heartbeat_all : now:int -> unit
(** {!heartbeat} on every armed recorder (the cluster's barrier
    hook). *)

val dumps : t -> dump list
(** Retained dumps, oldest first (at most [max_dumps]). *)

val dump_count : t -> int
(** Dumps ever fired, including any beyond [max_dumps]. *)

val dump_to_json : dump -> string
(** Schema ["ashs-flight-dump/1"]: trigger, timestamp, triggering
    event, event window, span intervals, metric window. *)

val write_dumps : t -> prefix:string -> string list
(** Write each retained dump to ["<prefix>-<n>.json"], returning the
    paths — the chaos/scale suites call this on failure so CI can
    upload the black box. *)

(** Render a recorder's trace and metrics as text or JSON. *)

val pp_recorder :
  ?max_events:int -> Format.formatter -> Trace.recorder -> unit
(** Text dump: the most recent [max_events] events (default 200,
    negative = all), then counters and histogram summaries. *)

val to_json : Trace.recorder -> string
(** Full machine-readable dump: every retained event plus counters and
    histogram summaries, as a single JSON object. *)

val event_to_json : Trace.event -> string
(** One event as a JSON object (seq/ts/corr/kind plus typed fields) —
    the element format of {!to_json}'s ["events"] array, shared with
    the flight recorder's dumps. *)

val to_chrome_json :
  ?shards:int -> ?jobs:int -> ?host_cores:int -> Trace.recorder -> string
(** Chrome-trace-event JSON (loadable in Perfetto / chrome://tracing).
    One "process" per message (pid = correlation id), one thread per
    stage, B/E pairs from matched span intervals, instants for other
    correlated events; timestamps in span-clock microseconds, sorted
    non-decreasing. When [shards > 1], process names carry the
    message's home shard (correlation ids are strided, so shard
    [= (pid - 1) mod shards]) plus the jobs/host-core counts, so
    Perfetto views of sharded runs are labeled per shard. *)

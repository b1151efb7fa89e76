(** Time-series telemetry: periodic snapshots of registered gauges and
    rate counters into bounded per-metric rings.

    A {!t} owns a registry of named sources and a sampling grid on
    virtual time. Layers register sources when they are constructed
    (switch queue depth, kernel dispatch totals, TCP retransmits, ...);
    the simulation engine calls {!tick_current} as time advances and a
    sample of every source is taken whenever the clock crosses a grid
    point. Under [Engine.Cluster] with more than one shard the per-step
    tick is disabled and the cluster ticks at every epoch barrier
    instead, with the deterministic epoch deadline as [now] — so the
    sampled stream depends only on the seed and the shard count, never
    on the worker-domain count (same [--jobs] invariance as the trace
    stream).

    Two source kinds:
    - a {e gauge} is an instantaneous read function ([unit -> float]):
      queue depth, busy backlog, current RTO;
    - a {e rate} is a cumulative total ([unit -> int]); each sample
      records the {e delta} since the previous sample, and the running
      total survives ring wraparound for Prometheus-style export. *)

type t

val create : ?interval_ns:int -> ?capacity:int -> unit -> t
(** [interval_ns] is the sampling-grid pitch in virtual ns (default
    {!default_interval_ns}); [capacity] bounds each per-metric ring
    (default 512, oldest samples fall off). *)

val default_interval_ns : int

val interval_ns : t -> int

(** {1 Source registry} *)

val register_gauge : t -> string -> (unit -> float) -> unit
(** Last-wins: re-registering a name replaces the read function but
    keeps the ring, so a component re-created under the same name
    continues its series instead of double-reporting. *)

val register_rate : t -> string -> (unit -> int) -> unit
(** The total is read once at registration to set the delta baseline;
    re-registering likewise rebaselines (a fresh component restarting
    from 0 does not produce a negative delta). *)

val unregister : t -> string -> unit
(** Drop the source and its ring (e.g. TCP teardown). *)

(** {1 Sampling} *)

val tick : t -> now:int -> unit
(** Sample every source once if [now] has reached the next grid point,
    stamping the sample with the grid time; then advance the grid past
    [now]. If the clock ran backwards by more than one interval (a new
    engine started in the same process) the grid realigns to [now]'s
    interval. O(1) when no grid point was crossed. *)

val sample : t -> now:int -> unit
(** Unconditionally sample every source stamped at [now] (used once at
    the end of a run so the final state is always captured). *)

(** {1 Ambient instance}

    The engine's per-step hook and the cluster's barrier hook read the
    ambient instance so construction order never matters. Root domain
    only — worker domains never tick (the cluster ticks on the main
    domain at barriers). *)

val set_current : t -> unit
val clear_current : unit -> unit
val current : unit -> t option

val tick_current : now:int -> unit
(** [tick] on the ambient instance; no-op when none is installed. *)

(** {1 Reading and export} *)

type kind = Gauge | Rate

type view = {
  name : string;
  kind : kind;
  cum : int;  (** rates: cumulative delta since registration; 0 for gauges *)
  samples : (int * float) list;  (** (grid ts, value), oldest first *)
}

val series : t -> view list
(** Every registered series with its full retained ring, sorted by
    name (deterministic export order). *)

val window : t -> last:int -> view list
(** Like {!series} but each ring truncated to its most recent [last]
    samples — the flight recorder's metric window. *)

val to_json : ?meta:(string * string) list -> t -> string
(** Schema ["ashs-telemetry/1"]: interval, optional string metadata,
    and one entry per series with kind, cumulative total and the
    retained [[ts, value]] samples. Deterministic byte-for-byte for a
    deterministic run. *)

val views_to_json : ?meta:(string * string) list -> interval_ns:int ->
  view list -> string
(** The serializer behind {!to_json}, usable on a {!window} slice. *)

val to_prometheus : t -> string
(** Prometheus exposition text: one [# TYPE] line and one sample per
    series. Rates export as [counter] with the cumulative total,
    gauges as [gauge] with the last sampled value (skipped when never
    sampled). Names are sanitized to the metric charset and prefixed
    ["ash_"]. *)

(** Discrete-event simulation engine.

    A single global virtual clock with a pending-event priority queue.
    Events scheduled for the same instant fire in scheduling order
    (FIFO), which keeps experiments deterministic. The queue is an
    indexed binary heap: {!cancel} takes the event out in O(log n), so
    the heap holds only events that will fire. *)

type t

type event_id
(** Handle for cancelling a scheduled event (e.g. an ASH watchdog timer
    that the handler cleared before expiry). *)

val create : unit -> t

val now : t -> Time.ns
(** Current virtual time. *)

val schedule : t -> delay:Time.ns -> (unit -> unit) -> event_id
(** [schedule t ~delay f] runs [f] at [now t + delay]. Negative delays
    raise [Invalid_argument]. *)

val schedule_at : t -> at:Time.ns -> (unit -> unit) -> event_id
(** Schedule at an absolute time, which must not be in the past. *)

val cancel : t -> event_id -> unit
(** Remove the event from the queue, dropping the queue's reference to
    its action. Cancelling an already-fired or already-cancelled event
    is a no-op; cancelling a queued event on an engine other than the
    one it was scheduled on raises [Invalid_argument]. *)

val run : t -> unit
(** Run until the event queue drains. If an action raises, the
    exception propagates out of [run] with the trace clock and the
    ambient correlation id as they were before the call; the events
    still queued fire on the next run. *)

val run_until : t -> Time.ns -> unit
(** Run events with timestamps [<= deadline]; afterwards [now t] is the
    deadline if the queue drained early or still has later events. *)

val pending : t -> int
(** Number of scheduled events that have neither fired nor been
    cancelled: the heap length. *)

(** {1 Sharded execution}

    A {!Cluster} splits the simulation into N per-shard engines that
    advance in lockstep through virtual-time epochs
    [[t_min, t_min + epoch_ns)]. Within an epoch each shard executes
    only its own events — on its own OCaml domain when [jobs > 1] —
    and cross-shard work goes through {!Cluster.exec}, which buffers
    it in per-(src, dst) outboxes that the epoch barrier drains in
    fixed src-major order. Shard trace events are buffered locally and
    merged at the barrier in (ts, shard) order. The result: the whole
    run — heap contents, trace stream, counters — is a pure function
    of the inputs, byte-identical at any [jobs], including 1.

    Correctness requires every cross-shard interaction to carry at
    least [epoch_ns] of virtual latency (the fabric's fixed one-way
    wire latency provides it); {!Cluster.exec} enforces this with a
    lookahead check. *)

type exec = at:Time.ns -> (unit -> unit) -> unit
(** An executor: schedule an action at absolute virtual time [at] on
    some shard's engine, through a cluster's cross-shard outboxes
    ({!Cluster.exec}). Posted actions cannot be cancelled. *)

type engine = t

module Cluster : sig
  type t

  val create : ?epoch_ns:Time.ns -> shards:int -> unit -> t
  (** [shards] engines sharing one epoch clock. [epoch_ns] (default
      25_000) must not exceed the minimum cross-shard virtual latency
      of the system being simulated. *)

  val shards : t -> int
  val engine : t -> int -> engine

  val now : t -> Time.ns
  (** Max over shard clocks. *)

  val exec : t -> int -> exec
  (** [exec c dst] schedules actions on shard [dst]. From inside a
      different shard's slice it buffers into an outbox (raising
      [Invalid_argument] if [at] lands inside the current epoch); from
      shard [dst] itself, or outside any slice, it schedules
      directly. *)

  val run : ?jobs:int -> t -> unit
  (** Run epochs until every shard's queue drains, executing shard
      slices on [min jobs shards] domains (default 1). The result is
      independent of [jobs]. *)

  val run_until : ?jobs:int -> t -> Time.ns -> unit
  (** Like {!run} but only events with timestamps [<= deadline]; all
      shard clocks end at the deadline at the latest. *)
end

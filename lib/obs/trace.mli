(** Structured event tracing for the whole stack.

    Every layer emits typed events through a single global sink. By
    default the sink is a no-op. Emission sites guard on {!enabled}, so
    event payloads are never allocated when tracing is off. Outside
    shard slices that check is a few loads, the shard count and then
    the root context's flag, with no domain-local lookup (see
    "Emission contexts" below). Installing a {!recorder} captures
    events into a bounded in-memory ring, stamps them with virtual time
    and the ambient correlation id, and derives named counters and
    histograms from them.

    A recorded run is a replayable, assertable event stream: the
    determinism and differential test suites compare streams
    structurally, and [ashbench --trace] dumps them for inspection. *)

(** Why a frame was dropped. A closed vocabulary so drop counters
    cannot fragment on emission-site typos; counters and dumps render
    it as stable dashed labels, e.g. ["no-pktbuf"]. *)
type drop_reason =
  | Crc  (** checksum failed on receive *)
  | Unbound  (** VC has no registered handler *)
  | No_buffer  (** receive queue full *)
  | No_vc  (** frame named a VC outside the table *)
  | No_pktbuf  (** kernel packet-buffer pool exhausted *)
  | Dpf_miss  (** demux matched no filter *)
  | Too_big  (** frame exceeds the link MTU *)
  | Queue_full  (** bounded kernel notification queue overflowed *)
  | Dup_seq  (** MQ produce already appended (dedup window hit) *)
  | Stale_seq  (** MQ produce below the dedup window — ignored *)
  | Repl_gap  (** MQ replicate above the replica's gapless prefix *)

(** What the deterministic fault-injection layer ({!Ash_sim.Fault} via
    the NIC faulty-link wrappers) did to a frame. Closed for the same
    reason as {!drop_reason}. *)
type fault_kind =
  | F_drop  (** lost mid-flight; the wire time is still consumed *)
  | F_corrupt  (** one bit flipped; caught by the receiver's link CRC *)
  | F_truncate  (** delivered short; caught by the link CRC *)
  | F_duplicate  (** delivered twice *)
  | F_reorder  (** delivery delayed so later frames overtake it *)
  | F_jitter  (** delivery delayed without reordering intent *)

(** The causal stages one message passes through — the paper's
    Table 2/6 decomposition. Every span event names one of these. *)
type stage =
  | Wire  (** serialization + propagation on the link *)
  | Rx_dma  (** NIC receive DMA and per-frame kernel rx work *)
  | Demux  (** VC lookup / DPF evaluation *)
  | Ash_run  (** in-kernel handler execution (incl. pipes it calls) *)
  | Pipe  (** DILP integrated copy/checksum words *)
  | Proto  (** protocol library processing (UDP/TCP) *)
  | Deliver  (** upcall + application handler *)
  | Reply  (** send-side work from app call to NIC transmit *)

val stage_label : stage -> string
(** Stable dashed label, e.g. ["ash-run"]. *)

val all_stages : stage list
(** Every stage, in causal order. *)

(** The trace event taxonomy. Field units: [bytes] are frame bytes,
    [cycles] are simulated CPU cycles, timestamps are virtual ns. *)
type kind =
  | Ev_scheduled of { at : int }  (** engine event enqueued for time [at] *)
  | Ev_fired  (** engine event dispatched *)
  | Pkt_tx of { nic : string; bytes : int }  (** frame left a NIC *)
  | Pkt_rx of { nic : string; bytes : int }  (** frame DMA'd into memory *)
  | Pkt_drop of { nic : string; reason : drop_reason }  (** frame lost *)
  | Wire_tx of { bytes : int; busy_until : int }
      (** link-level occupancy: the wire is busy until [busy_until] *)
  | Dpf_eval of { compiled : bool; matched : bool }
      (** one filter evaluation (compiled or tree-interpreted) *)
  | Dpf_match of { vc : int }  (** demux found a binding *)
  | Dpf_miss  (** demux exhausted all bindings *)
  | Upcall of { vc : int }  (** handler run at user level via upcall *)
  | User_deliver of { vc : int }  (** message handed to the application *)
  | Ash_dispatch of { id : int; vc : int }  (** ASH invoked in-kernel *)
  | Ash_commit of { id : int }
  | Ash_abort of { id : int }  (** voluntary abort: kernel path takes over *)
  | Ash_kill of { id : int; reason : string }  (** involuntary termination *)
  | Sandbox_violation of { reason : string }
      (** a VM run was killed (gas, memory fault, wild jump, ...) *)
  | Vm_run of {
      name : string;
      outcome : string;
      insns : int;
      check_insns : int;
      cycles : int;
    }  (** one interpreter run, with the paper's §V-D counters *)
  | Dilp_compile of { name : string; insns : int }
  | Dilp_run of { name : string; len : int }
  | Tcp_fast_hit  (** TCP fast-path handler committed *)
  | Tcp_fast_miss  (** segment fell back to the library path *)
  | Tcp_retransmit of { how : string; seq : int }
      (** one segment resent: [how] is ["timeout"] (RTO expiry, also
          go-back-N resends it triggers) or ["fast"] (3 dup ACKs);
          [seq] is the segment's ending sequence number *)
  | Mq_redelivery of { producer : int; seq : int; attempt : int }
      (** a message-queue client resent an unacked produce; [attempt]
          counts retries of this (producer, seq), starting at 1 *)
  | Ash_download of {
      id : int;
      cache_hit : bool;
      checks_elided : int;
      static_bound : int option;
    }
      (** handler installed, noting whether PR 2's cache supplied it,
          how many sandbox checks download-time absint elided, and the
          static worst-case cycle bound when one was provable *)
  | Fault_injected of { nic : string; fault : fault_kind }
      (** the injection layer perturbed a frame on [nic]'s transmit
          direction; the ambient correlation id names the victim *)
  | Ash_quarantine of { id : int; kills : int }
      (** handler demoted to the user path after [kills] involuntary
          kills; it stays demoted until {!Ash_kern.Kernel.rearm_ash} *)
  | Ash_rearm of { id : int }  (** quarantine cleared by the owner *)
  | Span_begin of { corr : int; stage : stage; off : int }
      (** stage span opened for message [corr]; the span clock is
          [event ts + off] (see {!Span}) *)
  | Span_end of { corr : int; stage : stage; off : int; cycles : int }
      (** stage span closed; [cycles] is the CPU work metered inside *)
  | Mark of string  (** free-form annotation *)

type event = { seq : int; ts : int; corr : int; kind : kind }
(** [corr] is the correlation id ambient when the event was emitted
    (0 when no message was in flight). *)

(** {1 Emission contexts}

    All ambient trace state — clock, sink, enabled flag, correlation
    allocator — lives in an emission context, so engine shards running
    on worker domains never race on it. The main domain's context is
    the "root": recorders install there, and on a single domain
    everything behaves exactly like the historical process-global
    state. Shard execution swaps in a {!shard_buf} context (see below)
    for the calling domain only.

    While no {!with_shard} slice is running on any domain, every call
    here uses the root context directly, without a domain-local
    lookup, so the off path of {!enabled}, {!current_corr} and
    {!set_corr} is a few loads, inlined into their callers. This rests
    on one precondition:
    {b outside a shard slice, only the main domain runs simulation
    code.} The cluster's worker pool is the only code that spawns
    domains, and its workers emit only inside {!with_shard}. Code that
    runs simulation on another domain must do it inside a shard
    slice. *)

val set_clock : (unit -> int) -> unit
(** Register the virtual-time source used to stamp events in the
    current domain's context. The simulation engine calls this on
    creation; the default clock returns 0. *)

val swap_clock : (unit -> int) -> (unit -> int)
(** Install a clock and return the previously installed one. The
    simulation engine brackets event dispatch with this so that with
    several live engines, events are always stamped by the engine that
    is actually running (not the last one created). *)

val now : unit -> int

val enabled : unit -> bool
(** True when a sink is installed — or, on the root context, when at
    least one {!tap} is armed. Emission sites use this to skip event
    construction entirely when tracing is off. *)

val emit : kind -> unit
(** Send an event to the current sink (a no-op when tracing is off). *)

val clear_sink : unit -> unit

(** {1 Taps}

    A tap is a secondary consumer of the root event stream — the
    flight recorder's feed. Taps run beside the recorder sink and see
    every event the root context emits (including shard events merged
    in at epoch barriers), whether or not a recorder is installed, so
    a black-box recorder stays armed across {!record}/{!stop} cycles.
    Main-domain only: shard/worker contexts never dispatch to taps
    directly. *)

type tap_id

val add_tap : (ts:int -> corr:int -> kind -> unit) -> tap_id
(** Arm a tap; it fires in registration order after the sink. While
    any tap is armed, {!enabled} is true on the root context. *)

val remove_tap : tap_id -> unit

val emit_at : ts:int -> corr:int -> kind -> unit
(** Deliver an already-stamped event to the current sink. Used by the
    cluster's epoch barrier to inject merged shard events into the
    root recorder with the timestamps and correlation ids they carried
    on their home shard. *)

(** {1 Shard buffers}

    A shard buffer is the emission context used while one engine shard
    executes, possibly on a worker domain. Events are stamped with the
    shard's clock and ambient correlation id and appended to a local
    buffer; at each epoch barrier the cluster merges all shard buffers
    in (ts, shard index) order and re-emits them into the root context
    via {!emit_at}. Correlation ids are allocated from a strided
    sequence — shard [s] of [N] hands out [s+1], [s+1+N], ... — so id
    assignment depends only on the shard layout, never on domain
    interleaving. *)

type shard_buf

val shard_buf : shard:int -> shards:int -> shard_buf
(** A fresh shard context for shard [shard] of [shards]. Disabled and
    clockless until configured. *)

val shard_set_clock : shard_buf -> (unit -> int) -> unit
(** Register the shard's virtual-time source (its engine's clock). *)

val shard_set_enabled : shard_buf -> bool -> unit
(** Propagate the root context's enabled flag into the shard context.
    The cluster calls this at every epoch start, on the main domain,
    so mid-run recorder changes take effect at the next barrier. *)

val with_shard : shard_buf -> (unit -> 'a) -> 'a
(** Run [f] with the current domain's emission context swapped to the
    shard's, restoring the previous context on exit, also when [f]
    raises. Slices nest, and run on any number of domains at once. *)

val active_shards : unit -> int
(** {!with_shard} slices running now, over all domains (nested slices
    count once each). 0 outside cluster epochs. *)

val shard_len : shard_buf -> int
(** Buffered events since the last {!shard_clear}. *)

val shard_get : shard_buf -> int -> int * int * kind
(** [shard_get sb i] is the [i]th buffered event as (ts, corr, kind). *)

val shard_clear : shard_buf -> unit

(** {1 Correlation ids}

    A correlation id names one message's causal chain, from the
    application call that initiated it through every kernel, NIC, and
    handler event it triggers — including an in-kernel ASH reply. Id 0
    means "no message in flight". The id is ambient: the engine captures
    it into each scheduled event and restores it around dispatch, so
    asynchronous continuations inherit the id of the message that
    scheduled them. *)

val new_corr : unit -> int
(** Allocate a fresh (positive) correlation id without installing it. *)

val current_corr : unit -> int
(** The ambient correlation id (0 when none). *)

val set_corr : int -> unit
(** Install [c] as the ambient correlation id. *)

val ensure_corr : unit -> int
(** The ambient id, allocating and installing a fresh one if none. *)

val with_corr : int -> (unit -> 'a) -> 'a
(** Run [f] with the ambient id set to [c], restoring on exit. *)

(** {1 Span sampling}

    [set_span_sample n] records every [n]th message's spans (messages
    [1, n+1, 2n+1, ...]). Counters and non-span events stay exact; only
    {!kind.Span_begin}/{!kind.Span_end} emission is gated, and all
    endpoints of one message share the same verdict so pairs never
    tear. *)

val set_span_sample : int -> unit
(** Raises [Invalid_argument] when [n < 1]. Default 1 (every message). *)

val span_on : int -> bool
(** [span_on corr]: should spans for message [corr] be emitted now? *)

val label : kind -> string
(** Stable dotted name of the event type, e.g. ["ash.dispatch"]. *)

val fields : kind -> (string * string) list
(** The event's payload as name/value pairs, for rendering. *)

val pp_kind : Format.formatter -> kind -> unit
val pp_event : Format.formatter -> event -> unit

(** {1 Recorder} *)

type recorder
(** A bounded ring of the most recent events plus metrics derived from
    the full stream (counters per event type, cycle/size histograms). *)

val record : ?capacity:int -> unit -> recorder
(** Create a recorder holding the last [capacity] events (default
    65536) and install it as the global sink. Also restarts
    correlation numbering so same-seed runs produce identical streams. *)

val stop : recorder -> unit
(** Uninstall the global sink (the recorder's contents stay readable). *)

val events : recorder -> event list
(** The retained events, oldest first. At most [capacity] events; the
    ring keeps the most recent ones. *)

val total : recorder -> int
(** Events recorded over the recorder's lifetime, including dropped. *)

val dropped : recorder -> int
(** Events that fell out of the ring ([total - capacity], floored). *)

val metrics : recorder -> Metrics.t

val clear : recorder -> unit
(** Reset the ring and metrics without uninstalling the sink. *)

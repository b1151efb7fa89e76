(** Deterministic frame-level fault plans.

    A plan perturbs one transmit direction of a link: it can drop,
    bit-flip, truncate, duplicate, reorder (delay past later frames),
    or jitter-delay frames, each with an independent configured rate.
    All randomness flows through one {!Ash_util.Rng} stream seeded at
    {!create}, and exactly one uniform draw is consumed per frame (plus
    branch-local draws inside the selected fault), so two same-seed runs
    of the same scenario perturb the same frames the same way — the
    chaos suites rely on this to assert byte-identical trace streams.

    The plan itself only decides and mutates bytes; wiring it onto a
    link (wire occupancy for dropped frames, delayed delivery for
    reorder/jitter, the {!Ash_obs.Trace.kind.Fault_injected} event) is
    the NIC layer's job ({!Ash_nic.Link}). Corruption and
    truncation are applied to the frame after the sender's link CRC is
    computed, so they surface at the receiver exactly like real wire
    damage: as a CRC mismatch. *)

type config = {
  seed : int;
  drop : float;           (** loss rate, [0,1] *)
  corrupt : float;        (** single-bit-flip rate *)
  truncate : float;       (** delivered-short rate *)
  duplicate : float;      (** double-delivery rate *)
  reorder : float;        (** delayed-reinsertion rate *)
  reorder_delay_ns : int; (** reordered frames arrive [d, 2d] ns late *)
  jitter : float;         (** small-delay rate *)
  jitter_max_ns : int;    (** jittered frames arrive [1, max] ns late *)
}

val none : config
(** All rates zero (every frame passes); seed 1; default delays. Use
    with record-update syntax to enable specific faults. *)

val lossy : ?seed:int -> float -> config
(** Pure loss at the given rate. *)

val storm : ?seed:int -> float -> config
(** Every fault kind at the given (per-kind) rate. *)

val partition : ?seed:int -> unit -> config
(** A network partition on the direction the plan is installed on:
    total loss (drop rate 1.0). Still consumes one uniform draw per
    frame like every plan, so installing and later clearing a partition
    does not disturb any other plan's RNG stream. *)

type outage = { down_at : int; heal_at : int }
(** A crash/restart (or partition) window on the virtual clock, in ns:
    the component is down on [\[down_at, heal_at)]. The record is pure
    schedule data — callers put the crash and heal actions on their own
    engines so sharded runs stay deterministic. *)

val outage : down_at:int -> heal_at:int -> outage
(** Raises [Invalid_argument] unless [0 <= down_at < heal_at]. *)

val outage_active : outage -> now:int -> bool

type t

val create : config -> t
(** Raises [Invalid_argument] if any rate is outside [0,1], the rates
    sum past 1, or a delay is negative. *)

type action =
  | Pass
  | Drop
  | Corrupt of { bit : int }      (** bit index within the frame *)
  | Truncate of { keep : int }    (** prefix length delivered *)
  | Duplicate
  | Reorder of { delay_ns : int }
  | Jitter of { delay_ns : int }

val decide : t -> len:int -> action
(** Draw the fault verdict for the next [len]-byte frame. Exposed for
    unit tests; {!apply} is the normal entry point. *)

val apply :
  t -> frame:Bytes.t -> (Bytes.t * int) list * Ash_obs.Trace.fault_kind option
(** [apply t ~frame] decides and applies a fault: the result lists the
    byte strings to put on the wire with their extra delivery delay in
    ns (empty = dropped; two entries = duplicated), plus the injected
    fault kind for tracing ([None] = passed clean). [frame] must be
    owned by the caller: corruption mutates it in place. *)

type stats = {
  frames : int;     (** frames offered to the plan *)
  injected : int;   (** frames perturbed (sum of the rest) *)
  drops : int;
  corrupts : int;
  truncates : int;
  duplicates : int;
  reorders : int;
  jitters : int;
}

val stats : t -> stats

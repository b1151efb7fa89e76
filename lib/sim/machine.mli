(** The simulated endpoint machine: CPU cycle accounting + data cache +
    application memory.

    Every software component (VM interpreter, copy engines, protocol
    library baselines) performs its memory traffic through this module so
    that all of it is charged through the same cache model. Work is
    accumulated on an internal meter; the kernel/testbed layer drains the
    meter with {!take_ns} and turns it into simulated elapsed time. *)

type t

val create : Costs.t -> t

val costs : t -> Costs.t
val mem : t -> Memory.t
val cache : t -> Cache.t

(* -- Cycle meter ------------------------------------------------------- *)

val charge_cycles : t -> int -> unit
val charge_ns : t -> Time.ns -> unit

val take_ns : t -> Time.ns
(** Drain the meter: total accumulated work in nanoseconds, resetting it
    to zero. *)

val pending_ns : t -> Time.ns
(** What {!take_ns} would return, without draining. Used by the tracer's
    span clock to place endpoints inside an undrained stretch of work. *)

val consumed_cycles : t -> int
(** Cycles charged since creation (monotonic; unaffected by [take_ns]). *)

(* -- Accounted memory operations --------------------------------------- *)

(** Each accessor charges the base instruction cost plus cache-modelled
    access cost, then performs the access. *)

val load8 : t -> int -> int
val load16 : t -> int -> int
val load32 : t -> int -> int
val store8 : t -> int -> int -> unit
val store16 : t -> int -> int -> unit
val store32 : t -> int -> int -> unit

val copy : t -> src:int -> dst:int -> len:int -> unit
(** The trusted data-copy engine (§III-B2: "specialized trusted function
    calls, implemented in the kernel"): word-at-a-time, unrolled by four,
    charged through the cache model. Handles unaligned lengths with
    byte-sized tail operations. *)

val destripe : t -> src:int -> dst:int -> len:int -> stripe:int -> unit
(** Gather [len] bytes from a striped source — [stripe] bytes of data,
    then [stripe] bytes of padding, repeating (§III-C) — into
    [dst, dst+len). Charged and faulting exactly as one {!copy} per
    stripe; when the striped span and the destination each lie in one
    resident region, both are located once for all stripes. Raises
    [Invalid_argument] if [len < 0] or [stripe <= 0]. *)

val flush_cache : t -> unit
val flush_range : t -> addr:int -> len:int -> unit
val warm_range : t -> addr:int -> len:int -> unit

(** One place on a frame's path that either passes the frame on or
    drops it: a NIC's receive side, a switch egress port, or a kernel's
    receive boundary or notification queue for one medium.

    A hop's counter is one plain [int array]: frames in, frames out,
    and one slot per {!Trace.drop_reason}. Counting is always on and
    allocates nothing. {!drop} also emits the frame's
    {!Trace.kind.Pkt_drop} under the hop's label when tracing is on, so
    the count and the event come from one call and cannot disagree.

    Once the frames a hop holds have moved on (a switch port's egress
    queue is the only hop that holds any), every hop balances:
    [frames_in = frames_out + drops]. A hop is written only by the
    shard that owns it. *)

type t

val create : string -> t
(** A hop whose drops are traced under [nic], the emitting layer's
    trace label (["an2"], ["eth"], ["switch"]). *)

val frame_in : t -> unit
(** A frame reached the hop. *)

val frame_out : t -> unit
(** The hop passed a frame on. *)

val drop : t -> Trace.drop_reason -> unit
(** The hop dropped a frame: count it under [reason] and, when tracing
    is on, emit [Pkt_drop { nic; reason }]. *)

val frames_in : t -> int
val frames_out : t -> int

val dropped : t -> Trace.drop_reason -> int
(** Frames dropped for one reason. *)

val drops : t -> int
(** Frames dropped for any reason. *)

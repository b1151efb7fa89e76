(** Stage spans: paired begin/end markers over the trace stream.

    A span brackets one causal stage of one message's processing. The
    span clock is [event ts + off]: virtual time is frozen while an
    engine event runs, so emission sites pass [off] — the work already
    charged to the CPU model but not yet reflected in the clock (kernel
    horizon backlog plus undrained machine-meter nanoseconds). This
    makes nested spans inside a single dispatch carry their real
    modelled durations instead of collapsing to zero. *)

val begin_span : corr:int -> ?off:int -> Trace.stage -> unit
(** Emit a {!Trace.kind.Span_begin} for message [corr], if that
    message's spans are sampled ({!Trace.span_on}). *)

val end_span : corr:int -> ?off:int -> ?cycles:int -> Trace.stage -> unit
(** Emit the matching {!Trace.kind.Span_end}; [cycles] is the CPU work
    metered inside the span. *)

type interval = {
  corr : int;
  stage : Trace.stage;
  t0 : int;  (** span-clock open, virtual ns *)
  t1 : int;  (** span-clock close, [>= t0] *)
  cycles : int;
}

val intervals : Trace.event list -> interval list
(** Pair begins with ends per (message, stage), in end order. Nested
    same-stage spans pop LIFO; ends without a begin are dropped. *)

val unclosed : Trace.event list -> (int * Trace.stage * int) list
(** Begins left open at the end of the stream, as
    [(corr, stage, t0)], sorted. *)

val duration : interval -> int

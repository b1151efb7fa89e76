(** Named counters and value histograms with percentile summaries. *)

type t

val create : unit -> t

val incr : t -> ?by:int -> string -> unit
val counter : t -> string -> int
(** Reading an unknown counter returns 0. *)

val counter_ref : t -> string -> int ref
(** The live cell behind a counter (created at 0 on first use). Hot
    emission paths hold the ref and bump it directly, skipping the
    per-event name hash. *)

type histo

val histo_ref : t -> string -> histo
(** Same interning for histograms: the returned handle feeds
    {!observe_ref} without a per-sample table lookup. *)

val observe_ref : histo -> float -> unit

val counters : t -> (string * int) list
(** All counters, sorted by name (deterministic dump order). *)

val observe : t -> string -> float -> unit
(** Add a sample to the named histogram (created on first use). *)

type summary = {
  count : int;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val summary_of : float list -> summary option
(** [None] on the empty list; a single sample is its own percentile. *)

val histogram : t -> string -> summary option
val histograms : t -> (string * summary) list
(** All non-empty histograms, sorted by name. *)

val clear : t -> unit

val pp_summary : Format.formatter -> summary -> unit

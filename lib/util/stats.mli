(** Small-sample statistics used by the experiment harness.

    The paper reports means of ten data points with 95% confidence
    intervals (§IV-B); this module provides exactly that machinery. *)

type summary = {
  n : int;            (** number of samples *)
  mean : float;
  stddev : float;     (** sample standard deviation (n-1 denominator) *)
  ci95 : float;       (** half-width of the 95% confidence interval *)
  min : float;
  max : float;
}

val summarize : float list -> summary
(** [summarize samples] computes a [summary]. Raises [Invalid_argument]
    on the empty list. For [n = 1] the deviation and CI are 0. *)

val mean : float list -> float

val percentile : float -> float list -> float
(** [percentile p samples] with [p] in [0, 100], nearest-rank method.
    Raises [Invalid_argument] on the empty list or out-of-range [p]. *)

(** Experiment result reporting: paper-vs-measured tables.

    Every experiment produces a {!table}; [ashbench run] prints them
    and the golden test generates EXPERIMENTS.md from the same data.
    Rows carry the paper's reported value when one exists so deviations
    are visible at a glance. *)

type row = {
  label : string;
  paper : float option;   (** The paper's value, if it reports one. *)
  measured : float;
  unit_ : string;          (** e.g. "us", "MB/s", "insns". *)
}

type table = {
  id : string;             (** e.g. "table5", "fig3". *)
  title : string;
  rows : row list;
  notes : string list;
}

val row : label:string -> ?paper:float -> measured:float -> unit_:string ->
  unit -> row

val print : Format.formatter -> table -> unit
(** Aligned textual table with a deviation column. *)

val to_markdown : table -> string
(** Markdown rendering for EXPERIMENTS.md. A ['|'] inside a cell is
    escaped as ["\\|"], so every row has exactly five columns. *)

val deviation : row -> float option
(** measured/paper ratio, when the paper value exists and is nonzero. *)

val print_trace :
  ?max_events:int -> Format.formatter -> Ash_obs.Trace.recorder -> unit
(** Human-readable dump of a trace recorder: the most recent events
    (capped at [max_events]), then counter and histogram summaries. *)

val trace_to_json : Ash_obs.Trace.recorder -> string
(** JSON rendering of the same recorder, for machine consumption. *)

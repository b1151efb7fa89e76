(** The experiment registry: the one ordered list of the reproduction's
    experiments.

    [ashbench list]/[run], the bench harness ([bench/main.exe]: table
    selection and Bechamel kernels), the regression headlines
    ([bench/history.ml]) and CI's self-checks all read this list. Adding
    an experiment means adding one entry here next to the experiment's
    own module. *)

type headline = {
  key : string;  (** Stable history key, e.g. ["exp_mq.goodput_5pct_loss"]. *)
  label : string;  (** Row label in the entry's table, without padding. *)
  tol : float;  (** Allowed fractional drift against the baseline. *)
}
(** A virtual-time headline: one table row tracked by [ashbench
    regress]. Simulated numbers are deterministic, so drift fails. *)

type t = {
  id : string;
      (** Selection id; also the table's key in BENCH_results.json. *)
  doc : string;  (** One-line description for [ashbench list]. *)
  table : unit -> Report.table;
  kernel : (string * (unit -> unit)) option;
      (** Bechamel kernel: a name suffix (measured as
          [ashs/<id>.<suffix>]) and one run of the simulation kernel
          behind the table. *)
  headlines : headline list;
  marker : string option;
      (** Self-check: a string one of the table's notes must contain. *)
}

val all : t list
(** Every experiment, in the order the harness runs them. *)

val find : string -> t option

val select : string list -> (t list, string) result
(** The named entries in the order given, or {!all} for [[]]. [Error]
    names the first unknown id and lists the known ones. *)

val self_check : t -> Report.table -> (unit, string) result
(** [Ok] when the entry has no marker or one of the table's notes
    contains it; [Error] names the experiment and the missing marker. *)

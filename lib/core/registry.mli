(** The experiment registry: the one ordered list of the reproduction's
    experiments.

    [ashbench list]/[run], the golden test ([test/test_golden.ml]: a
    digest of every table and the Results section of EXPERIMENTS.md)
    and CI's self-checks all read this list. Adding an experiment means
    adding one entry here next to the experiment's own module. *)

type t = {
  id : string;  (** Selection id, e.g. ["table5"]. *)
  doc : string;  (** One-line description for [ashbench list]. *)
  table : unit -> Report.table;
  marker : string option;
      (** Self-check: a string one of the table's notes must contain. *)
}

val all : t list
(** Every experiment, in the order [ashbench run] and the golden test
    run them. *)

val find : string -> t option

val select : string list -> (t list, string) result
(** The named entries in the order given, or {!all} for [[]]. [Error]
    names the first unknown id and lists the known ones. *)

val self_check : t -> Report.table -> (unit, string) result
(** [Ok] when the entry has no marker or one of the table's notes
    contains it; [Error] names the experiment and the missing marker. *)

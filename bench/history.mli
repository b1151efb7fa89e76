(** Perf-regression tracking: fold BENCH_results.json into an
    append-only BENCH_history.json keyed by git revision, and compare a
    fresh results file against the recorded baseline with per-metric
    tolerance bands. *)

type kind =
  | Virtual  (** deterministic simulated metric — drift fails the check *)
  | Host  (** host wall-clock metric — drift warns unless strict *)

type metric = {
  m_key : string;
  m_kind : kind;
  m_tol : float;  (** allowed fractional drift vs baseline *)
  m_extract : Ash_util.Minijson.t -> float option;
}

val headline : metric list
(** The tracked set: every {!Ash_core.Registry} virtual headline, then
    the tcp_roundtrip host cost and the tracer and telemetry overhead
    ratios. *)

val extract : Ash_util.Minijson.t -> (string * float) list
(** Headline metrics present in a parsed results document. *)

type entry = {
  e_rev : string;
  e_at : string;
  e_metrics : (string * float) list;
}

val load_history : string -> (entry list, string) result
(** Entries of a history file, oldest first; [Ok []] when absent.
    [Error] gives the parse position when the file is unreadable. *)

val append : results_path:string -> history_path:string -> entry
(** Fold the results file into the history file (creating it if
    needed): one entry per revision — a re-run of the same revision
    replaces its entry — keeping the newest 200. Returns the entry
    written. Raises on an unreadable results file, and raises [Failure]
    without writing on an unreadable history file. *)

type status = Pass | Warn | Fail

type check = {
  c_key : string;
  c_kind : kind;
  c_tol : float;
  c_base : float option;
  c_now : float option;
  c_status : status;
  c_note : string;
}

type report = {
  r_baseline_rev : string;
  r_current_rev : string;
  r_checks : check list;
  r_ok : bool;  (** no check failed *)
}

val regress :
  ?strict_host:bool ->
  results_path:string ->
  history_path:string ->
  unit ->
  (report, string) result
(** Compare results against the newest history entry from a different
    revision (falling back to the newest entry). [Virtual] metrics
    outside their band fail; [Host] metrics warn unless
    [strict_host]. [Error] carries a human-readable reason (missing
    file, empty history, parse error). *)

val print_report : Format.formatter -> report -> unit

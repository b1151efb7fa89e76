(** Fold a recorded trace into the paper's attribution tables.

    Two views of one stream: per-message latency decomposed into causal
    stages (the paper's Table 2/6 rows, with p50/p99 per stage and the
    dominant stage flagged), and per-handler cost profiles (dispatch
    and outcome counts, VM cycles split into sandbox checks vs. payload
    vs. pipe words, download-cache hits). *)

type stage_row = {
  stage : Trace.stage;
  spans : int;  (** intervals observed for this stage *)
  messages : int;  (** messages that passed this stage *)
  p50_ns : float;  (** percentiles over per-message stage totals *)
  p99_ns : float;
  mean_ns : float;
  total_ns : int;
  total_cycles : int;  (** CPU cycles metered inside this stage's spans *)
  dominant_in : int;  (** messages where this stage dominates *)
}

type message = {
  corr : int;
  e2e_ns : int;  (** first span open to last span close *)
  covered_ns : int;  (** union of span intervals (no double counting) *)
  dominant : Trace.stage option;
  stage_ns : (Trace.stage * int) list;  (** causal order *)
}

type ash_row = {
  id : int;
  downloads : int;
  cache_hits : int;  (** downloads served from the handler cache *)
  dispatches : int;
  commits : int;
  aborts : int;
  kills : int;
  vm_runs : int;  (** handler executions attributed (one per window) *)
  vm_cycles : int;  (** the handler's own VM cycles *)
  vm_insns : int;
  vm_check_insns : int;
  sandbox_cycles_est : int;
      (** [vm_cycles * vm_check_insns / vm_insns]: cycles spent in
          sandbox checks, assuming uniform per-insn cost *)
  payload_cycles_est : int;  (** [vm_cycles - sandbox_cycles_est] *)
  pipe_runs : int;  (** DILP executions inside this handler's windows *)
  pipe_bytes : int;
  pipe_cycles : int;  (** VM cycles of pipes run mid-handler *)
}

type t = {
  messages : message list;  (** sorted by correlation id *)
  stages : stage_row list;  (** causal order, only stages observed *)
  ashes : ash_row list;  (** sorted by handler id *)
  spans : Span.interval list;
  unclosed : (int * Trace.stage * int) list;
}

val of_recorder : Trace.recorder -> t

val pp : Format.formatter -> t -> unit
(** Render the per-stage latency table (p50/p99/mean in µs, plus an
    end-to-end row) and the per-ASH profile table. *)

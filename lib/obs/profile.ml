(* Fold a recorded trace into the paper's attribution tables: where
   each message spent its time (Table 2/6-style stage rows) and what
   each downloaded handler cost (dispatch/commit counts, cycles split
   into sandbox checks vs. payload vs. pipe words). *)

type stage_row = {
  stage : Trace.stage;
  spans : int;  (* intervals observed *)
  messages : int;  (* messages that passed this stage *)
  p50_ns : float;
  p99_ns : float;
  mean_ns : float;
  total_ns : int;
  total_cycles : int;
  dominant_in : int;  (* messages where this stage dominates *)
}

type message = {
  corr : int;
  e2e_ns : int;  (* first span open to last span close *)
  covered_ns : int;  (* union of span intervals *)
  dominant : Trace.stage option;
  stage_ns : (Trace.stage * int) list;
}

type ash_row = {
  id : int;
  downloads : int;
  cache_hits : int;
  dispatches : int;
  commits : int;
  aborts : int;
  kills : int;
  vm_runs : int;
  vm_cycles : int;
  vm_insns : int;
  vm_check_insns : int;
  sandbox_cycles_est : int;
  payload_cycles_est : int;
  pipe_runs : int;
  pipe_bytes : int;
  pipe_cycles : int;
}

type t = {
  messages : message list;
  stages : stage_row list;
  ashes : ash_row list;
  spans : Span.interval list;
  unclosed : (int * Trace.stage * int) list;
}

(* -- per-message latency ------------------------------------------- *)

(* Length of the union of [(t0, t1)] intervals: sort by start and
   sweep, so nested and overlapping stage spans are not double
   counted. *)
let union_length intervals =
  let sorted =
    List.sort
      (fun (a : Span.interval) b -> compare (a.t0, a.t1) (b.t0, b.t1))
      intervals
  in
  let covered, lo, hi =
    List.fold_left
      (fun (acc, lo, hi) (i : Span.interval) ->
        if i.t0 > hi then (acc + (hi - lo), i.t0, i.t1)
        else (acc, lo, max hi i.t1))
      (0, 0, 0)
      sorted
  in
  match sorted with [] -> 0 | _ -> covered + (hi - lo)

let messages_of_intervals intervals =
  let by_corr : (int, Span.interval list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (i : Span.interval) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_corr i.corr) in
      Hashtbl.replace by_corr i.corr (i :: prev))
    intervals;
  Hashtbl.fold
    (fun corr is acc ->
      let t0 = List.fold_left (fun m (i : Span.interval) -> min m i.t0)
          max_int is
      in
      let t1 = List.fold_left (fun m (i : Span.interval) -> max m i.t1)
          min_int is
      in
      let stage_ns =
        List.filter_map
          (fun stage ->
            let ns =
              List.fold_left
                (fun acc (i : Span.interval) ->
                  if i.stage = stage then acc + Span.duration i else acc)
                0 is
            in
            if ns > 0 || List.exists (fun (i : Span.interval) -> i.stage = stage) is
            then Some (stage, ns)
            else None)
          Trace.all_stages
      in
      let dominant =
        List.fold_left
          (fun best (stage, ns) ->
            match best with
            | Some (_, best_ns) when best_ns >= ns -> best
            | _ -> Some (stage, ns))
          None stage_ns
        |> Option.map fst
      in
      {
        corr;
        e2e_ns = t1 - t0;
        covered_ns = union_length is;
        dominant;
        stage_ns;
      }
      :: acc)
    by_corr []
  |> List.sort (fun a b -> compare a.corr b.corr)

let stage_rows messages spans =
  List.filter_map
    (fun stage ->
      let per_message =
        List.filter_map
          (fun m -> List.assoc_opt stage m.stage_ns)
          messages
      in
      if per_message = [] then None
      else
        let summary =
          Metrics.summary_of (List.map float_of_int per_message)
        in
        let total_ns = List.fold_left ( + ) 0 per_message in
        let stage_spans =
          List.filter (fun (i : Span.interval) -> i.stage = stage) spans
        in
        let total_cycles =
          List.fold_left
            (fun acc (i : Span.interval) -> acc + i.cycles)
            0 stage_spans
        in
        let dominant_in =
          List.length (List.filter (fun m -> m.dominant = Some stage) messages)
        in
        let p50, p99, mean =
          match summary with
          | Some s -> (s.Metrics.p50, s.Metrics.p99, s.Metrics.mean)
          | None -> (0., 0., 0.)
        in
        Some
          {
            stage;
            spans = List.length stage_spans;
            messages = List.length per_message;
            p50_ns = p50;
            p99_ns = p99;
            mean_ns = mean;
            total_ns;
            total_cycles;
            dominant_in;
          })
    Trace.all_stages

(* -- per-ASH attribution ------------------------------------------- *)

(* A dispatch opens a window; Vm_run/Dilp_run events accumulate until
   the commit/abort/kill closes it. Pipes a handler invokes run their
   own VM programs first, so the LAST Vm_run in the window is the
   handler's own execution and earlier ones are pipe work. *)
type window = {
  win_id : int;
  mutable win_vm : (int * int * int) list;  (* cycles, insns, checks *)
  mutable win_pipe_runs : int;
  mutable win_pipe_bytes : int;
}

type acc = {
  mutable a_downloads : int;
  mutable a_cache_hits : int;
  mutable a_dispatches : int;
  mutable a_commits : int;
  mutable a_aborts : int;
  mutable a_kills : int;
  mutable a_vm_runs : int;
  mutable a_vm_cycles : int;
  mutable a_vm_insns : int;
  mutable a_vm_checks : int;
  mutable a_pipe_runs : int;
  mutable a_pipe_bytes : int;
  mutable a_pipe_cycles : int;
}

let ash_rows evs =
  let open Trace in
  let accs : (int, acc) Hashtbl.t = Hashtbl.create 8 in
  let acc id =
    match Hashtbl.find_opt accs id with
    | Some a -> a
    | None ->
      let a =
        {
          a_downloads = 0;
          a_cache_hits = 0;
          a_dispatches = 0;
          a_commits = 0;
          a_aborts = 0;
          a_kills = 0;
          a_vm_runs = 0;
          a_vm_cycles = 0;
          a_vm_insns = 0;
          a_vm_checks = 0;
          a_pipe_runs = 0;
          a_pipe_bytes = 0;
          a_pipe_cycles = 0;
        }
      in
      Hashtbl.add accs id a;
      a
  in
  let window = ref None in
  let close id =
    match !window with
    | Some w when w.win_id = id ->
      window := None;
      let a = acc id in
      (* win_vm is newest-first, so its head is the last run in the
         window: the handler's own execution. The tail is the VM work
         of pipes the handler invoked mid-run. *)
      (match w.win_vm with
      | [] -> ()
      | (cycles, insns, checks) :: pipes ->
        a.a_vm_runs <- a.a_vm_runs + 1;
        a.a_vm_cycles <- a.a_vm_cycles + cycles;
        a.a_vm_insns <- a.a_vm_insns + insns;
        a.a_vm_checks <- a.a_vm_checks + checks;
        List.iter
          (fun (c, _, _) -> a.a_pipe_cycles <- a.a_pipe_cycles + c)
          pipes);
      a.a_pipe_runs <- a.a_pipe_runs + w.win_pipe_runs;
      a.a_pipe_bytes <- a.a_pipe_bytes + w.win_pipe_bytes
    | _ -> ()
  in
  List.iter
    (fun e ->
      match e.kind with
      | Ash_download { id; cache_hit; _ } ->
        let a = acc id in
        a.a_downloads <- a.a_downloads + 1;
        if cache_hit then a.a_cache_hits <- a.a_cache_hits + 1
      | Ash_dispatch { id; _ } ->
        (acc id).a_dispatches <- (acc id).a_dispatches + 1;
        window :=
          Some
            { win_id = id; win_vm = []; win_pipe_runs = 0; win_pipe_bytes = 0 }
      | Vm_run { cycles; insns; check_insns; _ } -> (
        match !window with
        | Some w -> w.win_vm <- (cycles, insns, check_insns) :: w.win_vm
        | None -> ())
      | Dilp_run { len; _ } -> (
        match !window with
        | Some w ->
          w.win_pipe_runs <- w.win_pipe_runs + 1;
          w.win_pipe_bytes <- w.win_pipe_bytes + len
        | None -> ())
      | Ash_commit { id } ->
        (acc id).a_commits <- (acc id).a_commits + 1;
        close id
      | Ash_abort { id } ->
        (acc id).a_aborts <- (acc id).a_aborts + 1;
        close id
      | Ash_kill { id; _ } ->
        (acc id).a_kills <- (acc id).a_kills + 1;
        close id
      | _ -> ())
    evs;
  Hashtbl.fold
    (fun id a rows ->
      let sandbox =
        if a.a_vm_insns > 0 then a.a_vm_cycles * a.a_vm_checks / a.a_vm_insns
        else 0
      in
      {
        id;
        downloads = a.a_downloads;
        cache_hits = a.a_cache_hits;
        dispatches = a.a_dispatches;
        commits = a.a_commits;
        aborts = a.a_aborts;
        kills = a.a_kills;
        vm_runs = a.a_vm_runs;
        vm_cycles = a.a_vm_cycles;
        vm_insns = a.a_vm_insns;
        vm_check_insns = a.a_vm_checks;
        sandbox_cycles_est = sandbox;
        payload_cycles_est = a.a_vm_cycles - sandbox;
        pipe_runs = a.a_pipe_runs;
        pipe_bytes = a.a_pipe_bytes;
        pipe_cycles = a.a_pipe_cycles;
      }
      :: rows)
    accs []
  |> List.sort (fun a b -> compare a.id b.id)

let of_recorder r =
  let events = Trace.events r in
  let spans = Span.intervals events in
  let unclosed = Span.unclosed events in
  let messages = messages_of_intervals spans in
  {
    messages;
    stages = stage_rows messages spans;
    ashes = ash_rows events;
    spans;
    unclosed;
  }

(* -- rendering ------------------------------------------------------ *)

let us ns = float_of_int ns /. 1_000.
let us_f ns = ns /. 1_000.

let pp ppf t =
  let n = List.length t.messages in
  Format.fprintf ppf "=== per-stage latency (%d message%s) ===@." n
    (if n = 1 then "" else "s");
  if t.stages = [] then
    Format.fprintf ppf "  (no spans recorded; is tracing on?)@."
  else begin
    Format.fprintf ppf "  %-8s %6s %6s %10s %10s %10s %12s %9s@." "stage"
      "msgs" "spans" "p50(us)" "p99(us)" "mean(us)" "cycles" "dominant";
    List.iter
      (fun row ->
        Format.fprintf ppf "  %-8s %6d %6d %10.3f %10.3f %10.3f %12d %9d@."
          (Trace.stage_label row.stage)
          row.messages row.spans (us_f row.p50_ns) (us_f row.p99_ns)
          (us_f row.mean_ns) row.total_cycles row.dominant_in)
      t.stages;
    (match
       Metrics.summary_of
         (List.map (fun m -> float_of_int m.e2e_ns) t.messages)
     with
    | Some s ->
      Format.fprintf ppf "  %-8s %6d %6s %10.3f %10.3f %10.3f@." "e2e" n "-"
        (us_f s.Metrics.p50) (us_f s.Metrics.p99) (us_f s.Metrics.mean)
    | None -> ())
  end;
  if t.unclosed <> [] then begin
    Format.fprintf ppf "  ! %d unclosed span(s):@." (List.length t.unclosed);
    List.iter
      (fun (corr, stage, t0) ->
        Format.fprintf ppf "    corr=%d %s opened at %.3fus@." corr
          (Trace.stage_label stage) (us t0))
      t.unclosed
  end;
  Format.fprintf ppf "=== per-ASH profile ===@.";
  if t.ashes = [] then Format.fprintf ppf "  (no handlers observed)@."
  else begin
    Format.fprintf ppf
      "  %-4s %4s %5s %6s %7s %6s %5s %10s %10s %10s %10s %6s %8s@." "id"
      "dl" "hits" "disp" "commit" "abort" "kill" "vm-cycles" "sandbox"
      "payload" "pipe-cyc" "pipes" "pipe-B";
    List.iter
      (fun row ->
        Format.fprintf ppf
          "  %-4d %4d %5d %6d %7d %6d %5d %10d %10d %10d %10d %6d %8d@."
          row.id row.downloads row.cache_hits row.dispatches row.commits
          row.aborts row.kills row.vm_cycles row.sandbox_cycles_est
          row.payload_cycles_est row.pipe_cycles row.pipe_runs row.pipe_bytes)
      t.ashes
  end

(* Perf-regression tracking over BENCH_results.json.

   [append] folds one results file into BENCH_history.json — an
   append-only log of headline metrics keyed by git revision — and
   [regress] compares a fresh results file against the most recent
   baseline entry with tolerance bands.

   Metrics come in two kinds. {e Virtual}-time metrics (simulated
   latencies, speedup ratios) are deterministic for a given seed, so a
   drift beyond the band is a real regression and fails the check.
   {e Host}-time metrics (bechamel wall clock, tracer/telemetry
   overhead ratios) move with the machine and its load, so they only
   warn unless [~strict_host:true] is passed. *)

module Minijson = Ash_util.Minijson

let schema = "ashs-bench-history/1"

type kind = Virtual | Host

type metric = {
  m_key : string;  (* stable id used in history entries *)
  m_kind : kind;
  m_tol : float;  (* allowed fractional drift vs baseline *)
  m_extract : Minijson.t -> float option;  (* from a results document *)
}

(* -- Extraction from the results document ------------------------------ *)

let table_row results ~table ~label =
  match Minijson.(mem "tables" results) with
  | None -> None
  | Some tables ->
    (match Minijson.mem table tables with
     | None -> None
     | Some t ->
       (match Minijson.mem "rows" t with
        | Some (Minijson.List rows) ->
          List.find_map
            (fun r ->
               match Minijson.mem "label" r with
               | Some (Minijson.Str l) when String.trim l = label ->
                 Option.bind (Minijson.mem "measured" r) Minijson.to_float
               | _ -> None)
            rows
        | _ -> None))

let nested results path =
  let rec go v = function
    | [] -> Minijson.to_float v
    | k :: rest ->
      (match Minijson.mem k v with Some v' -> go v' rest | None -> None)
  in
  go results path

(* The headline set: the registry's virtual headlines, one
   representative per subsystem the benchmarks exercise, then the host
   headlines of the harness's own timing sections. Row labels are
   matched after trimming the report's column padding. *)
let headline =
  List.concat_map
    (fun (e : Ash_core.Registry.t) ->
       List.map
         (fun (h : Ash_core.Registry.headline) ->
            { m_key = h.key; m_kind = Virtual; m_tol = h.tol;
              m_extract = (fun r -> table_row r ~table:e.id ~label:h.label) })
         e.headlines)
    Ash_core.Registry.all
  @ [
    {
      m_key = "table6.tcp_roundtrip_ns";
      m_kind = Host;
      m_tol = 0.50;
      m_extract =
        (fun r ->
          nested r [ "bechamel_ns_per_run"; "ashs/table6.tcp_roundtrip" ]);
    };
    {
      m_key = "tracer.spans_over_off";
      m_kind = Host;
      m_tol = 0.35;
      m_extract =
        (fun r -> nested r [ "tracer_overhead_ns_per_run"; "spans_over_off" ]);
    };
    {
      m_key = "telemetry.sampled_over_off";
      m_kind = Host;
      m_tol = 0.15;
      m_extract =
        (fun r ->
          nested r [ "telemetry_overhead_ns_per_run"; "sampled_over_off" ]);
    };
  ]

let extract results =
  List.filter_map
    (fun m ->
       match m.m_extract results with
       | Some v -> Some (m.m_key, v)
       | None -> None)
    headline

let results_rev results =
  match
    Option.bind
      (Option.bind (Minijson.mem "meta" results) (Minijson.mem "git_rev"))
      Minijson.to_string
  with
  | Some r when r <> "" -> r
  | _ -> "unknown"

(* -- History file ------------------------------------------------------ *)

type entry = {
  e_rev : string;
  e_at : string;  (* UTC timestamp, informative only *)
  e_metrics : (string * float) list;
}

let max_entries = 200

let parse_entry v =
  let str k =
    match Option.bind (Minijson.mem k v) Minijson.to_string with
    | Some s -> s
    | None -> ""
  in
  let metrics =
    match Option.bind (Minijson.mem "metrics" v) Minijson.to_obj with
    | Some fields ->
      List.filter_map
        (fun (k, f) ->
           match Minijson.to_float f with
           | Some x -> Some (k, x)
           | None -> None)
        fields
    | None -> []
  in
  { e_rev = str "git_rev"; e_at = str "recorded_at"; e_metrics = metrics }

let load_history path =
  if not (Sys.file_exists path) then Ok []
  else
    match Minijson.parse_file path with
    | exception Minijson.Parse_error { pos; msg } ->
      Error (Printf.sprintf "%s: parse error at %d: %s" path pos msg)
    | doc ->
      (match Option.bind (Minijson.mem "entries" doc) Minijson.to_list with
       | Some entries -> Ok (List.map parse_entry entries)
       | None -> Error (Printf.sprintf "%s: no \"entries\" list" path))

let write_history path entries =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"schema\": \"%s\",\n" schema;
  add "  \"entries\": [\n";
  List.iteri
    (fun i e ->
       add "    {\"git_rev\": \"%s\", \"recorded_at\": \"%s\", \"metrics\": {"
         (Minijson.escape e.e_rev) (Minijson.escape e.e_at);
       List.iteri
         (fun j (k, v) ->
            add "%s\"%s\": %s"
              (if j = 0 then "" else ", ")
              (Minijson.escape k) (Minijson.number v))
         e.e_metrics;
       add "}}%s\n" (if i = List.length entries - 1 then "" else ","))
    entries;
  add "  ]\n";
  add "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc

let utc_now () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

(* Fold a results file into the history: one entry per revision, a
   re-run of the same revision replaces its previous entry, and the log
   keeps the newest [max_entries]. An unreadable history is never
   rewritten: it may hold every baseline behind a merge conflict. *)
let append ~results_path ~history_path =
  let previous =
    match load_history history_path with
    | Ok entries -> entries
    | Error msg -> failwith msg
  in
  let results = Minijson.parse_file results_path in
  let rev = results_rev results in
  let metrics = extract results in
  let entry = { e_rev = rev; e_at = utc_now (); e_metrics = metrics } in
  let entries =
    List.filter (fun e -> e.e_rev <> rev) previous @ [ entry ]
  in
  let entries =
    let n = List.length entries in
    if n > max_entries then
      List.filteri (fun i _ -> i >= n - max_entries) entries
    else entries
  in
  write_history history_path entries;
  entry

(* -- Regression check -------------------------------------------------- *)

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
  r_ok : bool;  (* no Fail *)
}

(* Baseline = the newest entry recorded for a different revision, so a
   re-run of HEAD compares against the last landed state rather than
   against itself; with a single-revision history the sole entry serves
   (the check then degenerates to run-to-run stability). *)
let pick_baseline entries ~rev =
  let others = List.filter (fun e -> e.e_rev <> rev) entries in
  match List.rev others with
  | b :: _ -> Some b
  | [] -> (match List.rev entries with b :: _ -> Some b | [] -> None)

let check_metric ~strict_host ~baseline m now_v =
  let base_v = List.assoc_opt m.m_key baseline.e_metrics in
  let check c_status c_note =
    { c_key = m.m_key; c_kind = m.m_kind; c_tol = m.m_tol; c_base = base_v;
      c_now = now_v; c_status; c_note }
  in
  match (base_v, now_v) with
  | None, _ -> check Warn "no baseline value"
  | _, None -> check Warn "missing from results"
  | Some b, Some n ->
    let drift =
      if Float.abs b > 1e-12 then Float.abs (n -. b) /. Float.abs b
      else Float.abs (n -. b)
    in
    let note = Printf.sprintf "drift %.1f%% (band %.0f%%)"
        (100. *. drift) (100. *. m.m_tol)
    in
    let status =
      if drift <= m.m_tol then Pass
      else if m.m_kind = Host && not strict_host then Warn
      else Fail
    in
    check status note

let regress ?(strict_host = false) ~results_path ~history_path () =
  if not (Sys.file_exists results_path) then
    Error (Printf.sprintf "no results file at %s" results_path)
  else if not (Sys.file_exists history_path) then
    Error (Printf.sprintf "no history file at %s (run the bench harness \
                           or `history append` first)" history_path)
  else
    match Minijson.parse_file results_path with
    | exception Minijson.Parse_error { pos; msg } ->
      Error (Printf.sprintf "%s: parse error at %d: %s" results_path pos msg)
    | results ->
      let rev = results_rev results in
      (match Result.map (pick_baseline ~rev) (load_history history_path) with
       | Error msg -> Error msg
       | Ok None -> Error (Printf.sprintf "%s has no entries" history_path)
       | Ok (Some baseline) ->
         let checks =
           List.map
             (fun m ->
                check_metric ~strict_host ~baseline m (m.m_extract results))
             headline
         in
         Ok
           {
             r_baseline_rev = baseline.e_rev;
             r_current_rev = rev;
             r_checks = checks;
             r_ok =
               not (List.exists (fun c -> c.c_status = Fail) checks);
           })

let status_label = function
  | Pass -> "ok"
  | Warn -> "warn"
  | Fail -> "FAIL"

let kind_label = function Virtual -> "virtual" | Host -> "host"

let print_report ppf r =
  let short s = if String.length s > 12 then String.sub s 0 12 else s in
  Format.fprintf ppf "regression check: %s vs baseline %s@."
    (short r.r_current_rev) (short r.r_baseline_rev);
  List.iter
    (fun c ->
       let v = function Some f -> Printf.sprintf "%.4g" f | None -> "-" in
       Format.fprintf ppf "  %-4s %-34s %-7s base %-12s now %-12s %s@."
         (status_label c.c_status) c.c_key (kind_label c.c_kind)
         (v c.c_base) (v c.c_now) c.c_note)
    r.r_checks;
  Format.fprintf ppf "  => %s@." (if r.r_ok then "pass" else "FAIL")

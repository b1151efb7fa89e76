(* Text and JSON rendering of a recorder's trace ring and metrics. The
   JSON is hand-rolled so the library stays dependency-free. *)

module Minijson = Ash_util.Minijson

let pp_recorder ?(max_events = 200) ppf r =
  let events = Trace.events r in
  let n = List.length events in
  let shown = if max_events < 0 then events else
      (* Keep the most recent [max_events]: the tail of the run is what
         a failing experiment usually needs. *)
      let skip = max 0 (n - max_events) in
      List.filteri (fun i _ -> i >= skip) events
  in
  Format.fprintf ppf "@.=== trace: %d events (%d dropped from ring) ===@."
    (Trace.total r) (Trace.dropped r);
  let elided = n - List.length shown in
  if elided > 0 then
    Format.fprintf ppf "  ... %d earlier events elided ...@." elided;
  List.iter (fun e -> Format.fprintf ppf "  %a@." Trace.pp_event e) shown;
  let m = Trace.metrics r in
  Format.fprintf ppf "=== counters ===@.";
  List.iter
    (fun (name, v) -> Format.fprintf ppf "  %-28s %d@." name v)
    (Metrics.counters m);
  let histos = Metrics.histograms m in
  if histos <> [] then begin
    Format.fprintf ppf "=== histograms ===@.";
    List.iter
      (fun (name, s) ->
         Format.fprintf ppf "  %-28s %a@." name Metrics.pp_summary s)
      histos
  end

let json_field_value v =
  (* Numeric and boolean field values pass through bare; everything else
     is quoted. Only an optional leading '-' followed by digits counts
     as numeric — values like "-" or "1-2" must be quoted or the
     output is not JSON. *)
  let is_digit c = c >= '0' && c <= '9' in
  let numeric =
    let n = String.length v in
    let start = if n > 0 && v.[0] = '-' then 1 else 0 in
    n > start
    && (let ok = ref true in
        for i = start to n - 1 do
          if not (is_digit v.[i]) then ok := false
        done;
        !ok)
  in
  if numeric || v = "true" || v = "false" then v
  else "\"" ^ Minijson.escape v ^ "\""

let event_to_json (e : Trace.event) =
  let fields =
    List.map
      (fun (f, v) -> Printf.sprintf "\"%s\":%s" f (json_field_value v))
      (Trace.fields e.Trace.kind)
  in
  Printf.sprintf "{\"seq\":%d,\"ts\":%d%s,\"kind\":\"%s\"%s}" e.Trace.seq
    e.Trace.ts
    (if e.Trace.corr <> 0 then Printf.sprintf ",\"corr\":%d" e.Trace.corr
     else "")
    (Trace.label e.Trace.kind)
    (if fields = [] then "" else "," ^ String.concat "," fields)

let summary_to_json (s : Metrics.summary) =
  Printf.sprintf
    "{\"count\":%d,\"min\":%g,\"max\":%g,\"mean\":%g,\"p50\":%g,\"p90\":%g,\"p99\":%g}"
    s.Metrics.count s.Metrics.min s.Metrics.max s.Metrics.mean s.Metrics.p50
    s.Metrics.p90 s.Metrics.p99

let to_json r =
  let m = Trace.metrics r in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "{\"total\":%d,\"dropped\":%d,\"events\":[" (Trace.total r)
       (Trace.dropped r));
  List.iteri
    (fun i e ->
       if i > 0 then Buffer.add_char buf ',';
       Buffer.add_string buf (event_to_json e))
    (Trace.events r);
  Buffer.add_string buf "],\"counters\":{";
  List.iteri
    (fun i (name, v) ->
       if i > 0 then Buffer.add_char buf ',';
       Printf.bprintf buf "\"%s\":%d" (Minijson.escape name) v)
    (Metrics.counters m);
  Buffer.add_string buf "},\"histograms\":{";
  List.iteri
    (fun i (name, s) ->
       if i > 0 then Buffer.add_char buf ',';
       Printf.bprintf buf "\"%s\":%s" (Minijson.escape name)
         (summary_to_json s))
    (Metrics.histograms m);
  Buffer.add_string buf "}}";
  Buffer.contents buf

(* Chrome-trace-event export (load in Perfetto / chrome://tracing).
   Track mapping: pid = correlation id (one "process" per message),
   tid = stage index — stage spans of one message never overlap within
   a stage, so every track's B/E events nest properly even though e.g.
   the reply span opens while the proto span is still open on another
   track. Non-span events with a correlation id become instants on
   tid 0. Timestamps are span-clock microseconds. *)
let to_chrome_json ?(shards = 1) ?(jobs = 1) ?host_cores r =
  let events = Trace.events r in
  let intervals = Span.intervals events in
  let stage_tid stage =
    let rec idx i = function
      | [] -> 0
      | s :: rest -> if s = stage then i else idx (i + 1) rest
    in
    idx 1 Trace.all_stages
  in
  let usec ns = Printf.sprintf "%.3f" (float_of_int ns /. 1_000.) in
  let items = ref [] in
  let count = ref 0 in
  let add ts json =
    items := (ts, !count, json) :: !items;
    incr count
  in
  (* Named tracks: every (message, stage) pair that has spans, plus an
     "events" track for each message's instants. *)
  let threads = Hashtbl.create 32 in
  List.iter
    (fun (i : Span.interval) ->
      Hashtbl.replace threads (i.corr, stage_tid i.stage)
        (Trace.stage_label i.stage))
    intervals;
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.kind with
      | Trace.Span_begin _ | Trace.Span_end _ -> ()
      | _ -> if e.Trace.corr > 0 then
          Hashtbl.replace threads (e.Trace.corr, 0) "events")
    events;
  let thread_list =
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) threads [])
  in
  let pids =
    List.sort_uniq compare (List.map (fun ((pid, _), _) -> pid) thread_list)
  in
  List.iter
    (fun pid ->
      (* Strided correlation allocation (shard s of N hands out s+1,
         s+1+N, ...) makes a message's home shard recoverable from its
         id alone. *)
      let name =
        if shards > 1 then
          Printf.sprintf "message %d [shard %d/%d, jobs %d%s]" pid
            ((pid - 1) mod shards)
            shards jobs
            (match host_cores with
             | None -> ""
             | Some c -> Printf.sprintf ", cores %d" c)
        else Printf.sprintf "message %d" pid
      in
      add 0
        (Printf.sprintf
           "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"ts\":0,\"name\":\"process_name\",\"args\":{\"name\":\"%s\"}}"
           pid (Minijson.escape name)))
    pids;
  List.iter
    (fun ((pid, tid), name) ->
      add 0
        (Printf.sprintf
           "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"ts\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}"
           pid tid (Minijson.escape name)))
    thread_list;
  List.iter
    (fun (i : Span.interval) ->
      let tid = stage_tid i.stage in
      add i.t0
        (Printf.sprintf
           "{\"ph\":\"B\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"name\":\"%s\",\"args\":{\"cycles\":%d}}"
           i.corr tid (usec i.t0)
           (Trace.stage_label i.stage)
           i.cycles);
      add i.t1
        (Printf.sprintf "{\"ph\":\"E\",\"pid\":%d,\"tid\":%d,\"ts\":%s}" i.corr
           tid (usec i.t1)))
    intervals;
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.kind with
      | Trace.Span_begin _ | Trace.Span_end _ -> ()
      | k ->
        if e.Trace.corr > 0 then begin
          let args =
            List.map
              (fun (f, v) ->
                Printf.sprintf "\"%s\":%s" (Minijson.escape f)
                  (json_field_value v))
              (Trace.fields k)
          in
          add e.Trace.ts
            (Printf.sprintf
               "{\"ph\":\"i\",\"pid\":%d,\"tid\":0,\"ts\":%s,\"s\":\"t\",\"name\":\"%s\",\"args\":{%s}}"
               e.Trace.corr (usec e.Trace.ts) (Trace.label k)
               (String.concat "," args))
        end)
    events;
  let sorted =
    List.sort
      (fun (ts_a, i_a, _) (ts_b, i_b, _) -> compare (ts_a, i_a) (ts_b, i_b))
      !items
  in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i (_, _, json) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf json)
    sorted;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ns\"}";
  Buffer.contents buf

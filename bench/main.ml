(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (paper-vs-measured), then runs one Bechamel
   micro-benchmark per table measuring the host-side cost of the
   simulation kernel behind it. Experiments and kernels come from
   [Ash_core.Registry].

   Usage:
     main.exe                 run everything
     main.exe table5 fig3     run selected experiments
     main.exe --no-bechamel   skip the Bechamel section
     main.exe --markdown      additionally dump Markdown for EXPERIMENTS.md
     main.exe --no-json       don't write BENCH_results.json *)

module Core = Ash_core
module Report = Core.Report
module Registry = Core.Registry
module Lab = Core.Lab
module Tcp = Ash_proto.Tcp

(* -- Bechamel: host-side cost of each experiment's simulation kernel -- *)

open Bechamel
open Toolkit

let bechamel_tests =
  Test.make_grouped ~name:"ashs"
    (List.filter_map
       (fun (e : Registry.t) ->
          Option.map
            (fun (suffix, f) ->
               Test.make ~name:(e.id ^ "." ^ suffix) (Staged.stage f))
            e.kernel)
       Registry.all)

let run_bechamel () =
  let cfg =
    Benchmark.cfg ~limit:200 ~stabilize:false
      ~quota:(Time.second 0.2) ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] bechamel_tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Format.printf
    "@.=== Bechamel: host cost of simulation kernels (wall time per run) \
     ===@.";
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  List.filter_map
    (fun (name, ols_result) ->
       match Analyze.OLS.estimates ols_result with
       | Some [ est ] when est > 0. ->
         let pretty =
           if est > 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
           else if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
           else if est > 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
           else Printf.sprintf "%.0f ns" est
         in
         Format.printf "  %-32s %12s@." name pretty;
         Some (name, est)
       | _ ->
         Format.printf "  %-32s %12s@." name "n/a";
         None)
    rows

(* Mean host wall time of one run over 20 back-to-back runs, starting
   from a collected heap. *)
let timed f =
  let reps = 20 in
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    f ()
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int reps *. 1e9

(* -- Tracer overhead: off vs counters-only vs full spans --------------- *)

(* Host wall-clock cost of the observability layer itself, measured on a
   handler-heavy kernel. "counters" installs a recorder but samples spans
   out (set_span_sample max_int: exact counters, no span events);
   "spans" traces every message. The acceptance bar is spans < 2x off. *)
let tracer_overhead_kernel () =
  ignore (Lab.remote_increment ~iters:16 (Lab.Srv_ash { sandbox = true }))

let run_tracer_overhead () =
  let module Trace = Ash_obs.Trace in
  (* Steady-state cost: the recorder is installed before the timed pass
     and stays live across it, as in a traced experiment run. *)
  let recorded sample =
    Trace.set_span_sample sample;
    let r = Trace.record ~capacity:8192 () in
    let ns = timed tracer_overhead_kernel in
    Trace.stop r;
    Trace.set_span_sample 1;
    ns
  in
  tracer_overhead_kernel (); (* warm up *)
  let off_ns = ref infinity in
  let counters_ns = ref infinity in
  let spans_ns = ref infinity in
  (* Interleaved rounds, min per mode: host-load phases hit every mode
     equally instead of biasing whichever ran last. *)
  for _ = 1 to 5 do
    off_ns := min !off_ns (timed tracer_overhead_kernel);
    counters_ns := min !counters_ns (recorded max_int);
    spans_ns := min !spans_ns (recorded 1)
  done;
  let off_ns = !off_ns
  and counters_ns = !counters_ns
  and spans_ns = !spans_ns in
  let ratio = spans_ns /. off_ns in
  Format.printf
    "@.=== Tracer overhead (host wall time per run, table5 kernel) ===@.";
  Format.printf "  %-32s %10.0f ns@." "tracing off" off_ns;
  Format.printf "  %-32s %10.0f ns@." "counters only" counters_ns;
  Format.printf "  %-32s %10.0f ns   x%.2f vs off@." "full spans" spans_ns
    ratio;
  Some (off_ns, counters_ns, spans_ns)

(* -- Telemetry overhead: sampling scheduler on vs off ------------------ *)

(* Host wall-clock cost of the time-series sampler, measured on the
   table6 TCP kernel (the handler-heaviest networked workload). "off" is
   the kernel with no ambient Timeseries; "sampled" installs one at the
   default grid pitch so every engine step pays the tick check and each
   crossed grid point snapshots every registered source. The acceptance
   bar is sampled <= 1.10x off. *)
let telemetry_overhead_kernel () =
  ignore
    (Lab.tcp_latency
       ~mode:(Tcp.Fast_ash { sandbox = true })
       ~checksum:true ~iters:16 ())

let run_telemetry_overhead () =
  let sampled () =
    let ts = Ash_obs.Timeseries.create () in
    Ash_obs.Timeseries.set_current ts;
    let ns = timed telemetry_overhead_kernel in
    Ash_obs.Timeseries.clear_current ();
    ns
  in
  telemetry_overhead_kernel (); (* warm up *)
  let off_ns = ref infinity in
  let sampled_ns = ref infinity in
  for _ = 1 to 5 do
    off_ns := min !off_ns (timed telemetry_overhead_kernel);
    sampled_ns := min !sampled_ns (sampled ())
  done;
  let off_ns = !off_ns and sampled_ns = !sampled_ns in
  let ratio = sampled_ns /. off_ns in
  Format.printf
    "@.=== Telemetry overhead (host wall time per run, table6 kernel) ===@.";
  Format.printf "  %-32s %10.0f ns@." "sampling off" off_ns;
  Format.printf "  %-32s %10.0f ns   x%.2f vs off@." "sampling on" sampled_ns
    ratio;
  Some (off_ns, sampled_ns)

(* -- BENCH_results.json ------------------------------------------------ *)

let json_escape = Ash_util.Minijson.escape

let json_float f = Printf.sprintf "%.6g" f

(* Run metadata: enough to interpret host-dependent rows (the wall-clock
   section of exp_multicore) when the JSON is compared across machines. *)
let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let rev = try input_line ic with End_of_file -> "" in
    (match Unix.close_process_in ic with
     | Unix.WEXITED 0 when rev <> "" -> rev
     | _ -> "unknown")
  with _ -> "unknown"

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> default)
  | None -> default

let write_results_json ~path ~tables ~bechamel ~tracer ~telemetry =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"schema\": \"ashs-bench-results/1\",\n";
  add "  \"meta\": {\"shards\": %d, \"jobs\": %d, \"host_cores\": %d, \
       \"git_rev\": \"%s\"},\n"
    (env_int "ASH_SHARDS" 1) (env_int "ASH_JOBS" 1)
    (Domain.recommended_domain_count ())
    (json_escape (git_rev ()));
  add "  \"tables\": {\n";
  List.iteri
    (fun i (id, (t : Report.table)) ->
       add "    \"%s\": {\n" (json_escape id);
       add "      \"title\": \"%s\",\n" (json_escape t.Report.title);
       add "      \"rows\": [\n";
       List.iteri
         (fun j (r : Report.row) ->
            add "        {\"label\": \"%s\", \"paper\": %s, \"measured\": %s, \
                 \"unit\": \"%s\", \"deviation\": %s}%s\n"
              (json_escape r.Report.label)
              (match r.Report.paper with
               | Some p -> json_float p
               | None -> "null")
              (json_float r.Report.measured)
              (json_escape r.Report.unit_)
              (match Report.deviation r with
               | Some d -> json_float d
               | None -> "null")
              (if j = List.length t.Report.rows - 1 then "" else ","))
         t.Report.rows;
       add "      ]\n";
       add "    }%s\n" (if i = List.length tables - 1 then "" else ","))
    tables;
  add "  },\n";
  add "  \"bechamel_ns_per_run\": {\n";
  List.iteri
    (fun i (name, est) ->
       add "    \"%s\": %s%s\n" (json_escape name) (json_float est)
         (if i = List.length bechamel - 1 then "" else ","))
    bechamel;
  add "  },\n";
  (match tracer with
   | None -> add "  \"tracer_overhead_ns_per_run\": null,\n"
   | Some (off_ns, counters_ns, spans_ns) ->
     add
       "  \"tracer_overhead_ns_per_run\": {\"off\": %s, \"counters\": %s, \
        \"spans\": %s, \"spans_over_off\": %s},\n"
       (json_float off_ns) (json_float counters_ns) (json_float spans_ns)
       (json_float (spans_ns /. off_ns)));
  (match telemetry with
   | None -> add "  \"telemetry_overhead_ns_per_run\": null\n"
   | Some (off_ns, sampled_ns) ->
     add
       "  \"telemetry_overhead_ns_per_run\": {\"off\": %s, \"sampled\": %s, \
        \"sampled_over_off\": %s}\n"
       (json_float off_ns) (json_float sampled_ns)
       (json_float (sampled_ns /. off_ns)));
  add "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  Format.printf "@.results written to %s@." path

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let no_bechamel = List.mem "--no-bechamel" args in
  let markdown = List.mem "--markdown" args in
  let no_json = List.mem "--no-json" args in
  let selected =
    List.filter (fun a -> not (String.starts_with ~prefix:"--" a)) args
  in
  let to_run =
    match Registry.select selected with
    | Ok l -> l
    | Error msg ->
      Format.eprintf "%s@." msg;
      exit 2
  in
  Format.printf
    "ASHs reproduction benchmark harness — %d experiment(s)@."
    (List.length to_run);
  let tables =
    List.map
      (fun (e : Registry.t) ->
         let t0 = Unix.gettimeofday () in
         let table = e.table () in
         Format.printf "%a" Report.print table;
         Format.printf "  (generated in %.1f s)@."
           (Unix.gettimeofday () -. t0);
         (e.id, table))
      to_run
  in
  if markdown then begin
    Format.printf "@.--- markdown ---@.";
    List.iter (fun (_, t) -> print_string (Report.to_markdown t)) tables
  end;
  let bechamel = if no_bechamel then [] else run_bechamel () in
  let tracer = if no_bechamel then None else run_tracer_overhead () in
  let telemetry = if no_bechamel then None else run_telemetry_overhead () in
  if not no_json then begin
    write_results_json ~path:"BENCH_results.json" ~tables ~bechamel ~tracer
      ~telemetry;
    (* Fold the headline metrics into the revision-keyed history so
       `ashbench regress` has a baseline to compare future runs against. *)
    let entry =
      Ash_bench.History.append ~results_path:"BENCH_results.json"
        ~history_path:"BENCH_history.json"
    in
    Format.printf "history entry recorded for %s (%d metric(s))@."
      entry.Ash_bench.History.e_rev
      (List.length entry.Ash_bench.History.e_metrics)
  end

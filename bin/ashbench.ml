(* ashbench: command-line front end for the reproduction experiments.

   Examples:
     ashbench list
     ashbench run table5
     ashbench run table1 table3
     ashbench inspect echo           (disassemble a handler, plain + SFI) *)

module Core = Ash_core
module Report = Core.Report
module Registry = Core.Registry
module Program = Ash_vm.Program
module Sandbox = Ash_vm.Sandbox

open Cmdliner

let handlers : (string * (unit -> Program.t)) list =
  [
    ("echo", Core.Handlers.echo);
    ("remote-increment", fun () -> Core.Handlers.remote_increment ~slot_addr:0x2000);
    ("remote-write-generic",
     fun () -> Core.Handlers.remote_write_generic ~table_addr:0x3000 ~entries:4 ());
    ("remote-write-specific", Core.Handlers.remote_write_specific);
    ("remote-write-guarded", Core.Handlers.remote_write_guarded);
    ("tcp-fastpath",
     fun () ->
       Ash_proto.Tcp_fastpath.program
         { Ash_proto.Tcp_fastpath.tcb_addr = 0x4000; checksum = true;
           dilp_id = 0; cksum_acc_reg = 16 });
  ]

let list_cmd =
  let doc = "List available experiments." in
  let run () =
    List.iter
      (fun (e : Registry.t) -> Printf.printf "%-14s %s\n" e.id e.doc)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_cmd =
  let doc =
    "Run experiments (all when none named) and print their tables. Exits \
     1 when a table fails its self-check."
  in
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT")
  in
  let trace =
    Arg.(value & flag
         & info [ "trace" ]
           ~doc:"Record structured trace events while the experiments run \
                 and print the event stream plus counter/histogram \
                 summaries afterwards.")
  in
  let trace_json =
    Arg.(value & flag
         & info [ "trace-json" ]
           ~doc:"Like $(b,--trace), but dump the recording as JSON.")
  in
  let profile =
    Arg.(value & flag
         & info [ "profile" ]
           ~doc:"Record spans while the experiments run and print the \
                 per-message latency breakdown (p50/p99 per pipeline \
                 stage) and the per-handler profile afterwards.")
  in
  let trace_sample =
    Arg.(value & opt int 1
         & info [ "trace-sample" ] ~docv:"N"
           ~doc:"Record full spans for every $(docv)th message only \
                 (counters stay exact). Default 1: trace everything.")
  in
  let trace_chrome =
    Arg.(value & opt (some string) None
         & info [ "trace-chrome" ] ~docv:"FILE"
           ~doc:"Write the recording as Chrome trace-event JSON to \
                 $(docv), loadable in Perfetto / chrome://tracing \
                 (one process per message, one track per stage).")
  in
  let no_absint =
    Arg.(value & flag
         & info [ "no-absint" ]
           ~doc:"Disable download-time static analysis: every kernel \
                 handler download emits the full naive check set \
                 (measures what the abstract interpreter saves).")
  in
  let telemetry =
    Arg.(value & opt (some string) None
         & info [ "telemetry" ] ~docv:"FILE"
           ~doc:"Sample registered gauges/rate counters on the engine \
                 clock while the experiments run and write the \
                 time-series export as JSON to $(docv). The stream is \
                 deterministic: same seed and shard count, same bytes, \
                 at any $(b,--jobs).")
  in
  let prom =
    Arg.(value & opt (some string) None
         & info [ "prom" ] ~docv:"FILE"
           ~doc:"Like $(b,--telemetry) but write Prometheus exposition \
                 text (final counter totals and last gauge samples) to \
                 $(docv).")
  in
  let no_flight =
    Arg.(value & flag
         & info [ "no-flight" ]
           ~doc:"Do not arm the black-box flight recorder (armed by \
                 default; anomaly dumps are written on exit when any \
                 trigger fired).")
  in
  let flight_dump =
    Arg.(value & opt string "flight-dumps/flight-dump"
         & info [ "flight-dump" ] ~docv:"PREFIX"
           ~doc:"Write anomaly dumps to $(docv)-<n>.json, creating its \
                 directory if needed (default \
                 $(b,flight-dumps/flight-dump)).")
  in
  let jobs =
    Arg.(value & opt (some int) None
         & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Run sharded experiments on $(docv) worker domains \
                 (sets ASH_JOBS, and ASH_SHARDS too unless already set \
                 in the environment). Virtual-time results depend only \
                 on the shard count, never on $(docv): the same seed \
                 produces byte-identical tables and trace streams at \
                 any $(b,--jobs).")
  in
  let run trace trace_json profile trace_sample trace_chrome
      no_absint telemetry prom no_flight flight_dump jobs ids =
    if no_absint then Ash_kern.Kernel.set_absint_default false;
    (match jobs with
     | None -> ()
     | Some n when n >= 1 ->
       Unix.putenv "ASH_JOBS" (string_of_int n);
       if Sys.getenv_opt "ASH_SHARDS" = None then
         Unix.putenv "ASH_SHARDS" (string_of_int n)
     | Some _ ->
       Printf.eprintf "--jobs must be >= 1\n";
       exit 2);
    let selected =
      match Registry.select ids with
      | Ok l -> l
      | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 2
    in
    if trace_sample < 1 then begin
      Printf.eprintf "--trace-sample must be >= 1\n";
      exit 2
    end;
    Ash_obs.Trace.set_span_sample trace_sample;
    (* Telemetry must be ambient before any experiment constructs its
       fabric: layers register their sources at creation time. *)
    let ts =
      if telemetry <> None || prom <> None then begin
        let ts = Ash_obs.Timeseries.create () in
        Ash_obs.Timeseries.set_current ts;
        Some ts
      end
      else None
    in
    let flight =
      if no_flight then None else Some (Ash_obs.Flight.arm ())
    in
    let recorder =
      if trace || trace_json || profile || trace_chrome <> None then
        Some (Ash_obs.Trace.record ())
      else None
    in
    let failed =
      List.filter_map
        (fun (e : Registry.t) ->
           let table = e.table () in
           Format.printf "%a" Report.print table;
           Result.fold ~ok:(fun () -> None) ~error:Option.some
             (Registry.self_check e table))
        selected
    in
    (match ts with
     | None -> ()
     | Some ts ->
       (* meta stays jobs-free: the export must be byte-identical for a
          given seed and shard count at any --jobs. *)
       let meta =
         [ ("shards",
            match Sys.getenv_opt "ASH_SHARDS" with Some s -> s | None -> "1")
         ]
       in
       let write file s =
         let oc = open_out file in
         output_string oc s;
         close_out oc;
         Printf.eprintf "wrote telemetry to %s\n" file
       in
       (match telemetry with
        | Some file -> write file (Ash_obs.Timeseries.to_json ~meta ts)
        | None -> ());
       (match prom with
        | Some file -> write file (Ash_obs.Timeseries.to_prometheus ts)
        | None -> ());
       Ash_obs.Timeseries.clear_current ());
    (match flight with
     | None -> ()
     | Some f ->
       if Ash_obs.Flight.dump_count f > 0 then begin
         let dir = Filename.dirname flight_dump in
         if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
         let paths = Ash_obs.Flight.write_dumps f ~prefix:flight_dump in
         Printf.eprintf "flight recorder fired %d time(s); wrote %s\n"
           (Ash_obs.Flight.dump_count f)
           (String.concat ", " paths)
       end;
       Ash_obs.Flight.disarm f);
    (match recorder with
     | None -> ()
     | Some r ->
       Ash_obs.Trace.stop r;
       if trace then
         Format.printf "%a@." (Report.print_trace ?max_events:None) r;
       if profile then
         Format.printf "%a@." Ash_obs.Profile.pp
           (Ash_obs.Profile.of_recorder r);
       (* JSON last: scripts can take the final stdout line. *)
       if trace_json then print_endline (Report.trace_to_json r);
       (match trace_chrome with
        | None -> ()
        | Some file ->
          let oc = open_out file in
          let env_int name =
            Option.value ~default:1
              (Option.bind (Sys.getenv_opt name) int_of_string_opt)
          in
          output_string oc
            (Ash_obs.Dump.to_chrome_json ~shards:(env_int "ASH_SHARDS")
               ~jobs:(env_int "ASH_JOBS")
               ~host_cores:(Domain.recommended_domain_count ())
               r);
          output_char oc '\n';
          close_out oc;
          Printf.eprintf "wrote chrome trace to %s\n" file));
    if failed <> [] then begin
      List.iter prerr_endline failed;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(const run $ trace $ trace_json $ profile $ trace_sample
          $ trace_chrome $ no_absint $ telemetry $ prom $ no_flight
          $ flight_dump $ jobs $ ids)

(* Shared by inspect/assemble: source, download-time fact table, then
   the sandboxed code with the elision summary. *)
let show_analysis p =
  Format.printf "%a@." Program.pp p;
  let facts = Ash_vm.Absint.analyze p in
  Format.printf "@.; download-time facts:@.%a" Ash_vm.Absint.pp_facts facts;
  let sp, stats = Sandbox.apply ~absint:true p in
  let bound =
    match stats.Sandbox.static_bound with
    | Some b -> Printf.sprintf "; static bound %d cycles" b
    | None -> ""
  in
  Format.printf
    "@.; after sandboxing (%d original + %d added; %d of %d checks \
     elided%s):@.%a@."
    stats.Sandbox.original stats.Sandbox.added
    (Sandbox.checks_elided stats) (Sandbox.risky_checks p) bound Program.pp
    sp

let inspect_cmd =
  let doc =
    "Disassemble a canonical handler: source, download-time facts, and \
     the sandboxed code."
  in
  let handler_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"HANDLER")
  in
  let run name =
    match List.assoc_opt name handlers with
    | None ->
      Printf.eprintf "unknown handler %S (have: %s)\n" name
        (String.concat ", " (List.map fst handlers));
      exit 2
    | Some mk -> show_analysis (mk ())
  in
  Cmd.v (Cmd.info "inspect" ~doc) Term.(const run $ handler_arg)

let assemble_cmd =
  let doc =
    "Assemble a handler source file (see lib/vm/asm.mli for the syntax), \
     verify it, and show the code before and after sandboxing."
  in
  let path_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let run path =
    let ic = open_in path in
    let n = in_channel_length ic in
    let src = really_input_string ic n in
    close_in ic;
    match Ash_vm.Asm.parse ~name:(Filename.basename path) src with
    | Error e ->
      Format.eprintf "%s: %a@." path Ash_vm.Asm.pp_error e;
      exit 1
    | Ok p -> (
        match Ash_vm.Verify.check p with
        | Error e ->
          Format.eprintf "%s: verifier rejected: %a@." path
            Ash_vm.Verify.pp_error e;
          exit 1
        | Ok p -> show_analysis p)
  in
  Cmd.v (Cmd.info "assemble" ~doc) Term.(const run $ path_arg)

let chaos_cmd =
  let doc =
    "Fault-injection experiment: run the goodput-vs-loss-rate curves \
     (fixed 20 ms RTO vs adaptive+fast-retransmit) under a seeded, \
     deterministic loss plan and print per-policy goodput and \
     retransmission counts."
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N"
           ~doc:"Fault-plan seed: same seed, same lost frames.")
  in
  let total =
    Arg.(value & opt int 262_144
         & info [ "total" ] ~docv:"BYTES"
           ~doc:"Bytes transferred per run (default 256 KB).")
  in
  let run seed total =
    if total < 8192 then begin
      Printf.eprintf "--total must be >= 8192\n";
      exit 2
    end;
    Format.printf "TCP goodput under seeded loss (seed %d, %d-byte \
                   transfers)@.@." seed total;
    List.iter
      (fun (policy, runs) ->
         Format.printf "  %s@." policy;
         List.iter
           (fun r ->
              Format.printf
                "    %5.1f%% loss: %7.2f MB/s   (%d retransmits, %d fast)@."
                (100. *. r.Core.Exp_chaos.rate)
                r.Core.Exp_chaos.goodput_mbs r.Core.Exp_chaos.retransmits
                r.Core.Exp_chaos.fast_retransmits)
           runs)
      (Core.Exp_chaos.curves ~seed ~total ());
    Format.printf "@.%a" Report.print (Core.Exp_chaos.chaos ~seed ~total ())
  in
  Cmd.v (Cmd.info "chaos" ~doc) Term.(const run $ seed $ total)

let lint_cmd =
  let doc =
    "Batch-check handler source files: assemble, verify, and run the \
     download-time analyzer over each. Exits nonzero when any file is \
     rejected, or when a file's residual (un-elided) sandbox checks \
     exceed $(b,--max-residual). CI runs this over examples/handlers."
  in
  let paths_arg =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE")
  in
  let max_residual =
    Arg.(value & opt (some int) None
         & info [ "max-residual" ] ~docv:"N"
           ~doc:"Fail any file with more than $(docv) sandbox checks \
                 left after analysis.")
  in
  let require_bound =
    Arg.(value & flag
         & info [ "require-bound" ]
           ~doc:"Fail any file without a provable static worst-case \
                 cycle bound.")
  in
  let run max_residual require_bound paths =
    let failures = ref 0 in
    let fail path fmt =
      incr failures;
      Format.kasprintf (fun s -> Format.eprintf "%s: %s@." path s) fmt
    in
    List.iter
      (fun path ->
         let ic = open_in path in
         let n = in_channel_length ic in
         let src = really_input_string ic n in
         close_in ic;
         match Ash_vm.Asm.parse ~name:(Filename.basename path) src with
         | Error e -> fail path "%a" Ash_vm.Asm.pp_error e
         | Ok p -> (
             match Ash_vm.Verify.check p with
             | Error e ->
               fail path "verifier rejected: %a" Ash_vm.Verify.pp_error e
             | Ok p ->
               let _, stats = Sandbox.apply ~absint:true p in
               let residual =
                 Sandbox.risky_checks p - Sandbox.checks_elided stats
               in
               let bound = stats.Sandbox.static_bound in
               (match max_residual with
                | Some m when residual > m ->
                  fail path
                    "%d residual sandbox checks (limit %d) — the \
                     analyzer could not prove them redundant"
                    residual m
                | _ -> ());
               if require_bound && bound = None then
                 fail path "no provable static worst-case cycle bound";
               Format.printf "%-40s ok: %d/%d checks elided%s@." path
                 (Sandbox.checks_elided stats)
                 (Sandbox.risky_checks p)
                 (match bound with
                  | Some b -> Printf.sprintf ", static bound %d cycles" b
                  | None -> ", no static bound")))
      paths;
    if !failures > 0 then begin
      Format.eprintf "%d file(s) failed lint@." !failures;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "lint" ~doc)
    Term.(const run $ max_residual $ require_bound $ paths_arg)

(* -- top: after-the-fact interval table over a telemetry export ------- *)

let top_cmd =
  let module J = Ash_util.Minijson in
  let doc =
    "Print a per-interval table from a telemetry JSON export (written \
     by $(b,run --telemetry)): one row per sampling-grid point, one \
     column per metric — rates show the per-interval delta, gauges the \
     sampled value."
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let last =
    Arg.(value & opt int 24
         & info [ "last" ] ~docv:"N"
           ~doc:"Show only the most recent $(docv) intervals (default \
                 24; 0 means all).")
  in
  let metrics =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"SUBSTR"
           ~doc:"Only metrics whose name contains $(docv) (comma-\
                 separated alternatives).")
  in
  let max_cols = 8 in
  let run file last metrics =
    let doc =
      try J.parse_file file
      with J.Parse_error { pos; msg } ->
        Printf.eprintf "%s: parse error at %d: %s\n" file pos msg;
        exit 1
    in
    let series =
      match Option.bind (J.mem "series" doc) J.to_list with
      | Some l -> l
      | None ->
        Printf.eprintf "%s: not a telemetry export (no \"series\")\n" file;
        exit 1
    in
    let name_of s =
      match Option.bind (J.mem "name" s) J.to_string with
      | Some n -> n
      | None -> "?"
    in
    let wanted =
      match metrics with
      | None -> fun _ -> true
      | Some pats ->
        let pats = String.split_on_char ',' pats in
        fun n ->
          List.exists
            (fun p ->
               let p = String.trim p in
               p <> ""
               && (let pl = String.length p and nl = String.length n in
                   let rec at i =
                     i + pl <= nl
                     && (String.sub n i pl = p || at (i + 1))
                   in
                   at 0))
            pats
    in
    let selected = List.filter (fun s -> wanted (name_of s)) series in
    let shown, dropped =
      let rec take n = function
        | [] -> ([], [])
        | l when n = 0 -> ([], l)
        | x :: rest ->
          let a, b = take (n - 1) rest in
          (x :: a, b)
      in
      take max_cols selected
    in
    if shown = [] then begin
      Printf.eprintf "no matching series\n";
      exit 1
    end;
    if dropped <> [] then
      Printf.eprintf
        "showing %d of %d matching metrics; narrow with --metrics\n"
        max_cols (List.length selected);
    (* Collect each shown series' samples as ts -> value, and the union
       of grid timestamps. *)
    let cols =
      List.map
        (fun s ->
           let tbl = Hashtbl.create 64 in
           (match Option.bind (J.mem "samples" s) J.to_list with
            | Some samples ->
              List.iter
                (fun sample ->
                   match J.to_list sample with
                   | Some [ ts; v ] ->
                     (match (J.to_float ts, J.to_float v) with
                      | Some ts, Some v ->
                        Hashtbl.replace tbl (int_of_float ts) v
                      | _ -> ())
                   | _ -> ())
                samples
            | None -> ());
           (name_of s, tbl))
        shown
    in
    let grid =
      List.concat_map
        (fun (_, tbl) -> Hashtbl.fold (fun ts _ acc -> ts :: acc) tbl [])
        cols
      |> List.sort_uniq compare
    in
    let grid =
      if last <= 0 then grid
      else begin
        let n = List.length grid in
        if n <= last then grid
        else List.filteri (fun i _ -> i >= n - last) grid
      end
    in
    (* Header: metric names truncated to the column width, tail-first
       (the tail of a dotted metric name is the discriminating part). *)
    let width = 12 in
    let trunc n =
      let l = String.length n in
      if l <= width then n else ".." ^ String.sub n (l - width + 2) (width - 2)
    in
    Printf.printf "%12s" "t(us)";
    List.iter (fun (n, _) -> Printf.printf " %*s" width (trunc n)) cols;
    print_newline ();
    List.iter
      (fun ts ->
         Printf.printf "%12.1f" (float_of_int ts /. 1e3);
         List.iter
           (fun (_, tbl) ->
              match Hashtbl.find_opt tbl ts with
              | Some v ->
                if Float.is_integer v && Float.abs v < 1e12 then
                  Printf.printf " %*.0f" width v
                else Printf.printf " %*.4g" width v
              | None -> Printf.printf " %*s" width "-")
           cols;
         print_newline ())
      grid
  in
  Cmd.v (Cmd.info "top" ~doc) Term.(const run $ file_arg $ last $ metrics)

let () =
  let doc = "ASHs reproduction experiment driver" in
  let info = Cmd.info "ashbench" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; inspect_cmd; assemble_cmd; chaos_cmd;
            lint_cmd; top_cmd ]))

(* The end-to-end benchmark: one command for both clocks.

     e2e.exe [--trace 0|1] [--seconds S] [--seed N] [--json FILE]
                                    every workload; --trace 1 per layer
     e2e.exe --quick                smoke: tiny sizes, both runs
     e2e.exe --workload NAME [--trace 0|1] [--seconds S] [--seed N] [--json FILE]
     e2e.exe --compare BASE.json NEW.json [BASE2.json NEW2.json ...]

   With --workload the run stays in this process and its last line of
   output is one JSON object: correct, attempted, failed and the
   metrics. Without it, each workload runs in a child process of this
   executable, so heap peak and GC state never leak between workloads. *)

module J = Ash_util.Minijson
module M = Measure

let usage () =
  prerr_endline
    "usage: e2e.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
     [--quick] [--json FILE] | --compare BASE.json NEW.json ...";
  exit 2

(* -- one workload, in this process ------------------------------------ *)

let metric_json (m : M.metric) =
  let q1, med, q3 = Probe.quartiles m.samples in
  J.Obj
    [
      ("value", M.num m.value);
      ("unit", J.Str m.unit_);
      ("clock", J.Str (M.clock_label m.clock));
      ("q1", M.num q1);
      ("median", M.num med);
      ("q3", M.num q3);
      ("samples", J.List (List.map M.num m.samples));
    ]

let run_one (w : Workload.t) ~seed ~seconds ~trace ~quick ~json =
  let r =
    M.span w.name (fun () ->
        if trace then M.per_layer w ~seed ~quick
        else M.end_to_end w ~seed ~seconds ~quick)
  in
  let correct = r.failed = 0 && r.errors = [] in
  Printf.printf "%s (%s, seed %d, trace %d): %d attempted, %d failed\n" w.name
    w.op seed (Bool.to_int trace) r.attempted r.failed;
  List.iter (fun e -> Printf.printf "  FAILED: %s\n" e) r.errors;
  List.iter
    (fun (m : M.metric) ->
      let q1, med, q3 = Probe.quartiles m.samples in
      Printf.printf "  %-28s %14.6g %-10s samples q1 %.6g, median %.6g, q3 %.6g, n=%d\n"
        m.name m.value m.unit_ q1 med q3 (List.length m.samples))
    r.metrics;
  (match json with
   | None -> ()
   | Some file ->
     let detail =
       J.Obj
         [
           ("workload", J.Str w.name);
           ("op", J.Str w.op);
           ("seed", M.int seed);
           ("trace", M.int (Bool.to_int trace));
           ("correct", J.Bool correct);
           ("attempted", M.int r.attempted);
           ("failed", M.int r.failed);
           ("errors", J.List (List.map (fun e -> J.Str e) r.errors));
           ("metrics", J.Obj (List.map (fun (m : M.metric) -> (m.name, metric_json m)) r.metrics));
           ("spans", J.List (List.rev_map M.span_json !M.spans));
         ]
     in
     Out_channel.with_open_text file (fun oc ->
         output_string oc (M.json_to_string detail);
         output_char oc '\n'));
  print_endline
    (M.json_to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", M.int r.attempted);
            ("failed", M.int r.failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (m : M.metric) ->
                     (m.name, J.Obj [ ("value", M.num m.value); ("unit", J.Str m.unit_) ]))
                   r.metrics) );
          ]));
  if not correct then exit 1

(* -- every workload, each in a child process --------------------------- *)

let read_file f = In_channel.with_open_text f In_channel.input_all

let last_line s =
  match List.rev (String.split_on_char '\n' (String.trim s)) with
  | l :: _ -> l
  | [] -> ""

(* Runs one child and returns (exit ok, its output, its detail
   object). *)
let child ~seed ~seconds ~trace ~quick (w : Workload.t) =
  let out = Filename.temp_file "e2e" ".out" and det = Filename.temp_file "e2e" ".json" in
  let args =
    [ Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int seed;
      "--seconds"; Printf.sprintf "%g" seconds;
      "--trace"; (if trace then "1" else "0"); "--json"; det ]
    @ if quick then [ "--quick" ] else []
  in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid = Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin fd Unix.stderr in
  Unix.close fd;
  let _, status = Unix.waitpid [] pid in
  let text = read_file out in
  let detail = try Some (J.parse_file det) with _ -> None in
  Sys.remove out;
  Sys.remove det;
  (status = Unix.WEXITED 0, text, detail)

(* BENCHMARK.json sits at the repository root: the nearest one above
   the working directory. *)
let benchmark_json () =
  let rec up dir =
    let f = Filename.concat dir "BENCHMARK.json" in
    if Sys.file_exists f then J.parse_file f
    else
      let parent = Filename.dirname dir in
      if parent = dir then failwith "BENCHMARK.json not found above the working directory"
      else up parent
  in
  up (Sys.getcwd ())

(* Total accessors: a missing or mistyped field reads as empty. *)
let field key j = Option.value ~default:J.Null (J.mem key j)
let fnum key j = Option.value ~default:nan (J.to_float (field key j))
let fstr key j = Option.value ~default:"" (J.to_string (field key j))
let flist key j = Option.value ~default:[] (J.to_list (field key j))
let fobj key j = Option.value ~default:[] (J.to_obj (field key j))
let names_of key bench = List.map (fstr "name") (flist key bench)

let print_table details =
  Printf.printf "%-14s %-28s %14s %-10s %12s %12s %12s\n" "workload" "metric" "value" "unit"
    "q1" "median" "q3";
  List.iter
    (fun d ->
      List.iter
        (fun (name, m) ->
          Printf.printf "%-14s %-28s %14.6g %-10s %12.6g %12.6g %12.6g\n"
            (fstr "workload" d) name (fnum "value" m) (fstr "unit" m)
            (fnum "q1" m) (fnum "median" m) (fnum "q3" m))
        (fobj "metrics" d))
    details

let run_all ~seed ~seconds ~trace ~quick ~json =
  let phases = if quick then [ false; true ] else [ trace ] in
  let bench = if quick then Some (benchmark_json ()) else None in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let details =
    List.concat_map
      (fun trace ->
        List.filter_map
          (fun (w : Workload.t) ->
            let ok, text, detail = child ~seed ~seconds ~trace ~quick w in
            (* The smoke stays quiet unless a run fails. *)
            if not (quick && ok) then prerr_string text;
            if not ok then problem "%s (trace %b): exited non-zero" w.name trace;
            (* The last line must parse, and in the smoke it must carry
               exactly the metrics BENCHMARK.json names for this run. *)
            (match J.parse (last_line text) with
             | exception J.Parse_error _ -> problem "%s: last line is not JSON" w.name
             | line ->
               if fnum "failed" line <> 0.0 then problem "%s: error_rate > 0" w.name;
               Option.iter
                 (fun bench ->
                   let want =
                     List.sort compare (names_of (if trace then "per_layer" else "end_to_end") bench)
                   in
                   let got =
                     List.sort compare
                       (List.map fst (fobj "metrics" line))
                   in
                   if want <> got then
                     problem "%s (trace %b): metrics differ from BENCHMARK.json" w.name trace)
                 bench);
            detail)
          Workload.all)
      phases
  in
  if quick then
    Printf.printf "e2e smoke: %d runs, %d problems\n" (List.length details)
      (List.length !problems)
  else print_table details;
  Option.iter
    (fun file ->
      Out_channel.with_open_text file (fun oc ->
          output_string oc
            (M.json_to_string (J.Obj [ ("seed", M.int seed); ("workloads", J.List details) ]));
          output_char oc '\n'))
    json;
  List.iter (fun p -> Printf.printf "FAILED: %s\n" p) (List.rev !problems);
  if !problems <> [] then exit 1

(* -- --compare --------------------------------------------------------- *)

(* A --json file holds either one workload's detail object (--workload)
   or a list of them (every workload). *)
let details j = if J.mem "workload" j <> None then [ j ] else flist "workloads" j

let metrics_of j wl =
  List.find_map
    (fun d -> if fstr "workload" d = wl then Some (fobj "metrics" d) else None)
    (details j)
  |> Option.value ~default:[]

(* A side's values of one metric on one workload: one per run. *)
let side_values files wl name =
  List.filter_map (fun j -> Option.map (fnum "value") (List.assoc_opt name (metrics_of j wl))) files

let take k l = List.filteri (fun i _ -> i < k) l

let verdict ~higher ~bound b n =
  let bq1, bm, bq3 = Probe.quartiles b and _, nm, _ = Probe.quartiles n in
  let better x y = if higher then x > y else x < y in
  let k = min (List.length b) (List.length n) in
  let won = List.length (List.filter (fun (x, y) -> better y x) (List.combine (take k b) (take k n))) in
  let frac = float_of_int won /. float_of_int k in
  let gain = (nm -. bm) /. bm *. if higher then 1.0 else -1.0 in
  let v =
    if k >= 10 && frac >= 0.9 && gain > 0.0 && Float.abs (nm -. bm) > bq3 -. bq1 then "improved"
    else if (bq3 -. bq1) /. bm > bound
            && not (List.for_all (fun y -> List.for_all (better y) b) n)
    then "unresolved"
    else if gain < -.bound then "worse"
    else "unchanged"
  in
  (frac, v)

let compare_runs pairs =
  let e2e = flist "end_to_end" (benchmark_json ()) in
  let base = List.map (fun (b, _) -> J.parse_file b) pairs
  and next = List.map (fun (_, n) -> J.parse_file n) pairs in
  Printf.printf "%-14s %-18s %-30s %-30s %5s  %s\n" "workload" "metric"
    "base q1 / median / q3" "new q1 / median / q3" "won" "verdict";
  let rows = ref 0 in
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun m ->
          let name = fstr "name" m in
          let b = side_values base w.name name and n = side_values next w.name name in
          if b <> [] && n <> [] then begin
            incr rows;
            let frac, v =
              verdict ~higher:(fstr "better" m = "higher")
                ~bound:(fnum "bound" m) b n
            in
            let bq1, bm, bq3 = Probe.quartiles b and nq1, nm, nq3 = Probe.quartiles n in
            Printf.printf "%-14s %-18s %9.4g %9.4g %9.4g  %9.4g %9.4g %9.4g  %4.0f%%  %s\n"
              w.name name bq1 bm bq3 nq1 nm nq3 (100.0 *. frac) v
          end)
        e2e)
    Workload.all;
  (* Virtual metrics and traced counts are a pure function of the
     workload and its seed: run for run, they must be equal. *)
  List.iter2
    (fun b n ->
      List.iter
        (fun d ->
          let wl = fstr "workload" d in
          let theirs = metrics_of n wl in
          List.iter
            (fun (name, m) ->
              match List.assoc_opt name theirs with
              | Some m' when fstr "clock" m <> "host"
                             && fnum "value" m <> fnum "value" m' ->
                Printf.printf "differs: %s %s %.17g -> %.17g\n" wl name (fnum "value" m)
                  (fnum "value" m')
              | _ -> ())
            (fobj "metrics" d))
        (details b))
    base next;
  if !rows = 0 then begin
    flush stdout;
    prerr_endline "e2e --compare: no end-to-end metric appears on both sides";
    exit 1
  end

(* -- command line ------------------------------------------------------ *)

let () =
  let workload = ref None and seed = ref 42 and seconds = ref 0.0
  and trace = ref false and quick = ref false and json = ref None
  and compare = ref [] in
  let set_trace = function
    | 0 -> trace := false
    | 1 -> trace := true
    | _ -> raise (Arg.Bad "--trace takes 0 or 1")
  in
  let specs =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME run one workload here");
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S size the timed run to about S seconds");
      ("--trace", Arg.Int set_trace, "0|1 the per-layer traced run");
      ("--quick", Arg.Set quick, " smoke sizes, one repeat, both runs");
      ("--json", Arg.String (fun s -> json := Some s), "FILE write the detailed results");
      ("--compare", Arg.Rest (fun s -> compare := s :: !compare), "BASE NEW ... compare runs");
    ]
  in
  (try Arg.parse_argv Sys.argv specs (fun _ -> raise (Arg.Bad "unexpected argument")) ""
   with Arg.Bad _ | Arg.Help _ -> usage ());
  match (List.rev !compare, !workload) with
  | (_ :: _ as files), _ ->
    let rec pairs = function
      | b :: n :: rest -> (b, n) :: pairs rest
      | [] -> []
      | [ _ ] -> usage ()
    in
    compare_runs (pairs files)
  | [], Some name -> (
    match Workload.find name with
    | Some w -> run_one w ~seed:!seed ~seconds:!seconds ~trace:!trace ~quick:!quick ~json:!json
    | None ->
      Printf.eprintf "unknown workload %s (one of: %s)\n" name
        (String.concat ", " (List.map (fun (w : Workload.t) -> w.name) Workload.all));
      exit 2)
  | [], None -> run_all ~seed:!seed ~seconds:!seconds ~trace:!trace ~quick:!quick ~json:!json

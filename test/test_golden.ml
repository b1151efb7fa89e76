(* Golden virtual outputs: MD5 digests of paper tables and traced event
   streams that every change must leave byte-identical. The expected
   digests are committed in test_golden.expected; [dune runtest] diffs
   against them, and an intended change goes through [dune promote] so
   it shows up in review.

   A table's digest covers its rows (label, paper value, measured value
   as an exact hex float, unit) and its notes; no host-time text enters
   it. A stream's digest is that of the last stdout line of
   [ashbench run <id> --trace-json]. Each experiment runs once, in this
   order, under a fresh recorder when its stream is digested. *)

module Registry = Ash_core.Registry
module Report = Ash_core.Report
module Trace = Ash_obs.Trace

let hex s = Digest.to_hex (Digest.string s)

let table_digest (t : Report.table) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (r : Report.row) ->
       Printf.bprintf b "row %s|%s|%h|%s\n" r.label
         (match r.paper with None -> "-" | Some p -> Printf.sprintf "%h" p)
         r.measured r.unit_)
    t.rows;
  List.iter (Printf.bprintf b "note %s\n") t.notes;
  hex (Buffer.contents b)

let () =
  List.iter
    (fun (id, traced) ->
       let e =
         match Registry.find id with
         | Some e -> e
         | None -> failwith ("unknown experiment " ^ id)
       in
       let recorder = if traced then Some (Trace.record ()) else None in
       let table = e.table () in
       Printf.printf "%-7s table      %s\n" id (table_digest table);
       Option.iter
         (fun r ->
            Trace.stop r;
            Printf.printf "%-7s trace-json %s\n" id
              (hex (Report.trace_to_json r)))
         recorder)
    [ ("table3", false); ("table4", false); ("table5", true);
      ("table6", true); ("exp_mq", true) ]

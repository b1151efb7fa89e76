(* Golden virtual outputs: every change must leave them byte-identical.
   One pass over [Registry.all] runs each experiment once and writes

   - to stdout, the MD5 digest of every table and of the table5, table6
     and exp_mq traced event streams, then exp_scale's stream at one
     shard and at two shards on one and two worker domains, then the
     {!Ash_vm.Program.digest} of every handler generator at fixed
     arguments and of four fused DILP loops;
   - to the file named by its second argument, EXPERIMENTS.md
     regenerated: the committed file (its first argument) verbatim up to
     and including the "## Results" line, then every table in Markdown.

   [dune runtest] diffs the digests against test_golden.expected and the
   regenerated file against the committed EXPERIMENTS.md; an intended
   change goes through [dune promote] so it shows up in review. The
   digests are the exact gate: a one-cycle change can leave a rounded
   Markdown cell unchanged.

   A table's digest covers its rows (label, paper value, measured value
   as an exact hex float, unit) and its notes; no host-time text enters
   it. A stream's digest is that of the last stdout line of
   [ashbench run <id> --trace-json], recorded under a fresh recorder.
   A handler's digest is its handler-cache key: the tables see a
   handler only through the cycles it costs, so they can miss a change
   to its code. The same holds for a DILP loop, whose emitted shape is
   also what a transfer is charged for.

   Usage: test_golden.exe EXPERIMENTS.md OUT *)

module Registry = Ash_core.Registry
module Report = Ash_core.Report
module Exp_scale = Ash_core.Exp_scale
module Trace = Ash_obs.Trace
module Handlers = Ash_core.Handlers
module Tcp_fastpath = Ash_proto.Tcp_fastpath
module Pipe = Ash_pipes.Pipe
module Pipelib = Ash_pipes.Pipelib
module Dilp = Ash_pipes.Dilp

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

let traced = [ "table5"; "table6"; "exp_mq" ]

let stream_digest r =
  Trace.stop r;
  hex (Report.trace_to_json r)

(* The committed file up to and including its "## Results" line. *)
let results_prefix path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let heading = "\n## Results\n" in
  let n = String.length heading in
  let rec find i =
    if i + n > String.length s then
      failwith (path ^ ": no \"## Results\" line")
    else if String.sub s i n = heading then i + n
    else find (i + 1)
  in
  String.sub s 0 (find 0)

(* exp_scale's stream with ASH_SHARDS and ASH_JOBS set, which
   [Exp_scale.scale] reads when it runs. *)
let scale_stream (shards, jobs) =
  Unix.putenv "ASH_SHARDS" (string_of_int shards);
  Unix.putenv "ASH_JOBS" (string_of_int jobs);
  let r = Trace.record () in
  ignore (Exp_scale.scale ());
  stream_digest r

(* A Write-mode loop over the pipes [add] puts in a fresh list, named
   by the program's own name. *)
let dilp_loop ?layout add =
  let pl = Pipe.Pipelist.create () in
  add pl;
  let p = (Dilp.compile ?layout pl Dilp.Write).Dilp.program in
  (p.Ash_vm.Program.name, p)

let handlers =
  let geo =
    {
      Handlers.mq_net_off = 28;
      mq_capacity = 1024;
      mq_producers = 2;
      mq_slot_shift = 6;
      mq_meta = 0x10000;
      mq_log = 0x10010;
      mq_sess = 0x20010;
      mq_ctr = 0x20020;
    }
  in
  let chain =
    Handlers.Mq_chain
      {
        self_ip = 0x0a000001;
        peer_ip = 0x0a000002;
        produce_port = 8_100;
        repl_port = 8_101;
      }
  in
  [
    ("echo", Handlers.echo ());
    ("remote_increment", Handlers.remote_increment ~slot_addr:0x1000);
    ("pingpong_client", Handlers.pingpong_client ~state_addr:0x1000);
    ("dilp_deposit", Handlers.dilp_deposit ~dilp_id:1 ~dst_addr:0x2000);
    ( "remote_write_generic/0",
      Handlers.remote_write_generic ~table_addr:0x3000 ~entries:4 () );
    ( "remote_write_generic/28",
      Handlers.remote_write_generic ~msg_off:28 ~table_addr:0x3000 ~entries:4
        () );
    ("remote_write_specific", Handlers.remote_write_specific ());
    ("remote_write_guarded", Handlers.remote_write_guarded ());
    ("mq_produce/chain", Handlers.mq_produce geo chain);
    ("mq_produce/solo", Handlers.mq_produce geo Handlers.Mq_solo);
    ( "mq_replicate",
      Handlers.mq_replicate geo ~self_ip:0x0a000002 ~produce_port:8_100 );
    ("mq_fetch", Handlers.mq_fetch geo);
    ( "tcp_fastpath",
      Tcp_fastpath.program
        {
          Tcp_fastpath.tcb_addr = 0x4000;
          checksum = true;
          dilp_id = 1;
          cksum_acc_reg = Ash_vm.Isa.reg_arg3;
        } );
    (* TCP's fast-path transfers, with and without the checksum. *)
    dilp_loop (fun pl -> ignore (Pipelib.cksum32 pl));
    dilp_loop (fun pl -> ignore (Pipelib.identity pl));
    (* Table IV's fused copy, checksum and byteswap. *)
    dilp_loop (fun pl ->
        ignore (Pipelib.cksum32 pl);
        ignore (Pipelib.byteswap32 pl));
    (* The striped Ethernet back end of ablation A3. *)
    dilp_loop ~layout:Dilp.eth_striped (fun pl -> ignore (Pipelib.cksum32 pl));
  ]

let () =
  let committed, out =
    match Sys.argv with
    | [| _; committed; out |] -> (committed, out)
    | _ ->
      prerr_endline "usage: test_golden.exe EXPERIMENTS.md OUT";
      exit 2
  in
  let md = Buffer.create 65536 in
  Buffer.add_string md (results_prefix committed);
  List.iter
    (fun (e : Registry.t) ->
       let recorder =
         if List.mem e.id traced then Some (Trace.record ()) else None
       in
       let table = e.table () in
       Printf.printf "%-7s table      %s\n" e.id (table_digest table);
       Option.iter
         (fun r -> Printf.printf "%-7s trace-json %s\n" e.id (stream_digest r))
         recorder;
       Buffer.add_char md '\n';
       Buffer.add_string md (Report.to_markdown table))
    Registry.all;
  let oc = open_out_bin out in
  Buffer.output_buffer oc md;
  close_out oc;
  (* [putenv] cannot unset: an unset variable comes back empty, which
     reads as the default. *)
  let saved =
    List.map (fun v -> (v, Sys.getenv_opt v)) [ "ASH_SHARDS"; "ASH_JOBS" ]
  in
  let configs = [ (1, 1); (2, 1); (2, 2) ] in
  let streams =
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun (v, old) -> Unix.putenv v (Option.value old ~default:""))
          saved)
      (fun () -> List.map scale_stream configs)
  in
  List.iter2
    (fun (shards, jobs) d ->
       Printf.printf "exp_scale trace-json shards=%d jobs=%d %s\n" shards jobs
         d)
    configs streams;
  List.iter
    (fun (name, prog) ->
       Printf.printf "handler %s %s\n" name (Ash_vm.Program.digest prog))
    handlers;
  match streams with
  | [ _; jobs1; jobs2 ] when jobs1 <> jobs2 ->
    prerr_endline
      "exp_scale: the 2-shard stream differs between 1 and 2 worker domains";
    exit 1
  | _ -> ()

module Tcp = Ash_proto.Tcp

type headline = { key : string; label : string; tol : float }

type t = {
  id : string;
  doc : string;
  table : unit -> Report.table;
  kernel : (string * (unit -> unit)) option;
  headlines : headline list;
  marker : string option;
}

let entry ?kernel ?(headlines = []) ?marker id doc table =
  { id; doc; table; kernel; headlines; marker }

(* Kernels run a scaled-down slice of their experiment: enough to
   exercise every layer the table measures, small enough for Bechamel to
   take many samples. *)
let all =
  [
    entry "table1" "raw AN2/Ethernet round-trip latency" Exp_raw.table1
      ~kernel:
        ("pingpong", fun () -> ignore (Lab.raw_pingpong ~iters:2 Lab.Srv_user));
    entry "fig3" "user-level AN2 throughput vs packet size" Exp_raw.fig3
      ~kernel:
        ( "train",
          fun () -> ignore (Lab.raw_train_throughput ~size:1024 ~count:16 ()) );
    entry "table2" "UDP/TCP latency and throughput" Exp_proto.table2
      ~kernel:
        ( "udp_latency",
          fun () ->
            ignore
              (Lab.udp_latency ~checksum:true ~in_place:false ~medium:`An2 ())
        );
    entry "table3" "copy throughput (single/double)" Exp_memory.table3
      ~kernel:("model_copy", fun () -> ignore (Exp_memory.single_copy ()));
    entry "table4" "integrated vs separate manipulations" Exp_ilp.table4
      ~kernel:("dilp_fused", fun () -> ignore (Exp_ilp.dilp ~bswap:true ()));
    entry "table5" "remote-increment round trips" Exp_ash.table5
      ~kernel:
        ( "remote_increment",
          fun () ->
            ignore
              (Lab.remote_increment ~iters:2
                 (Lab.Srv_ash { sandbox = true })) );
    entry "table6" "TCP across delivery mechanisms" Exp_tcp.table6
      ~kernel:
        ( "tcp_roundtrip",
          fun () ->
            ignore
              (Lab.tcp_latency
                 ~mode:(Tcp.Fast_ash { sandbox = true })
                 ~checksum:true ~iters:2 ()) );
    entry "fig4" "latency vs competing processes" Exp_sched.fig4
      ~kernel:
        ( "scheduled_increment",
          fun () ->
            ignore (Lab.remote_increment ~iters:2 ~nprocs:4 Lab.Srv_user) );
    entry "sandbox" "sandboxing overhead (sec. V-D)" Exp_sandbox.section_vd
      ~kernel:
        ( "remote_write",
          fun () ->
            ignore
              (Exp_sandbox.run_once ~variant:Exp_sandbox.Specific
                 ~sandboxed:true ~payload_len:40 ()) );
    entry "dpf" "compiled vs interpreted packet filters" Exp_ablate.dpf
      ~kernel:
        ( "demux16",
          fun () -> ignore (Exp_ablate.demux_cycles ~compiled:true ~nfilters:16)
        );
    entry "demux" "Ethernet demux: linear filter scan vs merged trie"
      Exp_ablate.demux_scaling
      ~kernel:
        ( "trie16",
          fun () -> ignore (Exp_ablate.demux_cycles_trie ~nfilters:16) );
    entry "dilp-scaling" "DILP fusion vs separate passes" Exp_ilp.dilp_scaling
      ~kernel:("4pipes", fun () -> ignore (Exp_ilp.dilp_n_pipes 4 ()));
    entry "striped" "striped vs contiguous DILP back ends" Exp_ablate.striped
      ~kernel:
        ( "one_pass",
          fun () -> ignore (Exp_ablate.striped_one_pass ~len:1440 ()) );
    entry "absint" "download-time static analysis vs full checking"
      Exp_ablate.absint;
    entry "chaos" "TCP goodput vs seeded loss (fixed vs adaptive RTO)"
      (fun () -> Exp_chaos.chaos ())
      ~marker:"strictly dominates";
    entry "exp_scale" "connection churn over the many-host switched fabric"
      Exp_scale.scale
      ~kernel:
        ( "churn8",
          fun () ->
            ignore
              (Exp_scale.run_churn
                 { (Exp_scale.env_spec ()) with
                   connections = 8;
                   client_hosts = 4;
                   rounds = 2 }) )
      ~headlines:
        [ { key = "exp_scale.rtt_p50_us.1024conns";
            label = "1024 conns | echo rtt p50"; tol = 0.05 } ]
      ~marker:"trie demux flat";
    entry "exp_multicore" "RSS-sharded server goodput vs cores; domain speedup"
      Exp_multicore.multicore
      ~headlines:
        [ { key = "exp_multicore.speedup_4core";
            label = "4-core server | speedup vs 1"; tol = 0.05 } ];
    entry "exp_mq"
      "replicated message queue: goodput vs loss, failover recovery"
      Exp_mq.mq
      ~kernel:("produce_chain", fun () -> ignore (Exp_mq.smoke ()))
      ~headlines:
        [ { key = "exp_mq.goodput_5pct_loss"; label = "goodput | 5% loss";
            tol = 0.05 };
          { key = "exp_mq.failover_blackout_ms"; label = "failover | blackout";
            tol = 0.05 } ]
      ~marker:"delivery audit PASSED";
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let select = function
  | [] -> Ok all
  | ids ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | id :: rest ->
        (match find id with
         | Some e -> go (e :: acc) rest
         | None ->
           Error
             (Printf.sprintf "unknown experiment %S (have: %s)" id
                (String.concat ", " (List.map (fun e -> e.id) all))))
    in
    go [] ids

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

let self_check e (table : Report.table) =
  match e.marker with
  | Some m when not (List.exists (contains ~sub:m) table.Report.notes) ->
    Error (Printf.sprintf "%s: self-check failed: no note contains %S" e.id m)
  | _ -> Ok ()

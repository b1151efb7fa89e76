type t = {
  id : string;
  doc : string;
  table : unit -> Report.table;
  marker : string option;
}

let entry ?marker id doc table = { id; doc; table; marker }

let all =
  [
    entry "table1" "raw AN2/Ethernet round-trip latency" Exp_raw.table1;
    entry "fig3" "user-level AN2 throughput vs packet size" Exp_raw.fig3;
    entry "table2" "UDP/TCP latency and throughput" Exp_proto.table2;
    entry "table3" "copy throughput (single/double)" Exp_memory.table3;
    entry "table4" "integrated vs separate manipulations" Exp_ilp.table4;
    entry "table5" "remote-increment round trips" Exp_ash.table5;
    entry "table6" "TCP across delivery mechanisms" Exp_tcp.table6;
    entry "fig4" "latency vs competing processes" Exp_sched.fig4;
    entry "sandbox" "sandboxing overhead (sec. V-D)" Exp_sandbox.section_vd;
    entry "dpf" "compiled vs interpreted packet filters" Exp_ablate.dpf;
    entry "demux" "Ethernet demux: linear filter scan vs merged trie"
      Exp_ablate.demux_scaling;
    entry "dilp-scaling" "DILP fusion vs separate passes" Exp_ilp.dilp_scaling;
    entry "striped" "striped vs contiguous DILP back ends" Exp_ablate.striped;
    entry "absint" "download-time static analysis vs full checking"
      Exp_ablate.absint;
    entry "chaos" "TCP goodput vs seeded loss (fixed vs adaptive RTO)"
      (fun () -> Exp_chaos.chaos ())
      ~marker:"strictly dominates";
    entry "exp_scale" "connection churn over the many-host switched fabric"
      Exp_scale.scale ~marker:"trie demux flat";
    entry "exp_multicore" "RSS-sharded server goodput vs cores"
      Exp_multicore.multicore;
    entry "exp_mq"
      "replicated message queue: goodput vs loss, failover recovery"
      Exp_mq.mq ~marker:"delivery audit PASSED";
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

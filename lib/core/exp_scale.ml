(* The connection-churn scale experiment (`ashbench exp_scale`): the
   many-host switched {!Fabric} driven by hundreds-to-thousands of
   concurrent TCP connections funneled through one server host, with
   accept/teardown churn, plus the demux-flatness measurement that
   justifies the merged DPF trie at 64 -> 4096 installed filters.

   Not a paper table — the paper's evaluation is two DECstations on one
   wire — but the scaling counterpart the paper argues for in §IV-A
   ("DPF scales well with the number of installed filters"): here the
   whole stack scales, not just the filter engine. *)

module Engine = Ash_sim.Engine
module Machine = Ash_sim.Machine
module Memory = Ash_sim.Memory
module Time = Ash_sim.Time
module Kernel = Ash_kern.Kernel
module Switch = Ash_nic.Switch
module Tcp = Ash_proto.Tcp
module Rng = Ash_util.Rng

(* ------------------------------------------------------------------ *)
(* The churn driver                                                    *)
(* ------------------------------------------------------------------ *)

type churn_spec = {
  connections : int;
  client_hosts : int;   (** Connections round-robin over this many hosts. *)
  rounds : int;         (** Request/response cycles per connection. *)
  payload : int;        (** Bytes per request (echoed back verbatim). *)
  queue_limit : int;    (** Switch egress queue bound. *)
  connect_stagger_ns : int;
  data_stagger_ns : int;
  verify : bool;        (** Byte-verify every echoed payload. *)
  deadline_ns : int;    (** Virtual-time cap on the whole run. *)
  shards : int;         (** Fabric shards (host h on shard h mod shards). *)
  jobs : int;           (** Worker domains executing the shards. *)
}

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (try max 1 (int_of_string s) with _ -> default)
  | None -> default

(* Read when called, not at start-up: [ashbench run --jobs] sets
   ASH_JOBS (and ASH_SHARDS) from [main], after every module has been
   initialized. *)
let env_spec () =
  {
    connections = 64;
    client_hosts = 8;
    rounds = 4;
    payload = 256;
    queue_limit = 16;
    (* Each connect costs the server ingress two minimum frames
       (~116 us of wire): stagger above that so the handshake storm
       stays within the link's service rate. *)
    connect_stagger_ns = 160_000;
    data_stagger_ns = 600_000;
    verify = false;
    deadline_ns = 60_000_000_000;
    (* Env-overridable like SCALE_CONNS, so the whole scale suite can
       run sharded/multi-domain without touching any test. *)
    shards = env_int "ASH_SHARDS" 1;
    jobs = env_int "ASH_JOBS" 1;
  }

let default_spec = env_spec ()

type churn_result = {
  completed : int;       (* connections fully closed on both sides *)
  stragglers : int;      (* endpoints force-torn-down at the deadline *)
  echoed_bytes : int;
  makespan_ns : int;     (* data-phase span: barrier to last close *)
  goodput_mbs : float;
  rtt_p50_us : float;
  rtt_p99_us : float;
  fairness_ratio : float;
  verify_failures : int;
  leaked_bindings : int;
  leaked_filters : int;
  leaked_regions : int;
  switch_drops : int;
  retransmits : int;
}

(* Per-connection bookkeeping. Endpoint refs are dropped at teardown so
   a bug that touches a dead connection fails loudly. *)
type conn = {
  k : int;
  host : int;
  mutable c_end : Tcp.t option;
  mutable s_end : Tcp.t option;
  mutable got : int;
  mutable round : int;
  mutable round_start : int;
  mutable next_at : int;
  mutable lat_sum : int;
  mutable lat_count : int;
  mutable c_closed : bool;
  mutable s_closed : bool;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

(* Drive [spec.connections] concurrent TCP echo connections through
   host 0 of a [spec.client_hosts + 1]-host fabric.

   Phases: (1) staggered active opens, every connection left
   ESTABLISHED so the server's demux trie holds all of them at once;
   (2) from a barrier past the last connect, each connection runs
   [rounds] request/echo cycles, first cycles staggered near the server
   link's service rate so the egress queue sees steady pressure rather
   than one synchronized burst; (3) each connection closes as it
   finishes — FIN from the client, passive close + teardown on the
   server via {!Tcp.set_on_peer_fin} — and frees every binding and
   region it held. Anything still open at the virtual deadline is
   force-torn-down and reported as a straggler. *)
let run_churn ?(configure = fun (_ : Fabric.t) -> ()) spec =
  if spec.connections < 1 then invalid_arg "Exp_scale.run_churn: connections";
  if spec.client_hosts < 1 || spec.client_hosts > spec.connections then
    invalid_arg "Exp_scale.run_churn: client_hosts";
  if spec.rounds < 1 then invalid_arg "Exp_scale.run_churn: rounds";
  if spec.payload < 1 || spec.payload > 1460 then
    invalid_arg "Exp_scale.run_churn: payload must fit one segment";
  let nhosts = spec.client_hosts + 1 in
  let fab =
    Fabric.create ~queue_limit:spec.queue_limit
      ~notify_queue_limit:(max 256 (2 * spec.connections))
      ~shards:spec.shards ~jobs:spec.jobs ~hosts:nhosts ()
  in
  let seng = Fabric.host_engine fab 0 in
  Fabric.warm_arp fab ~server:0;
  configure fab;
  (* Per-client-host request payload (the echo source), allocated before
     the leak baseline is taken: only per-connection state may leak. *)
  let src =
    Array.init nhosts (fun h ->
        if h = 0 then None
        else
          Some (Fabric.alloc_filled (Fabric.host fab h) ~seed:(100 + h)
                  spec.payload))
  in
  let expected =
    Array.init nhosts (fun h ->
        let b = Bytes.create spec.payload in
        Rng.fill_bytes (Rng.create (100 + h)) b;
        b)
  in
  let node_mem h =
    Machine.mem (Kernel.machine (Fabric.host fab h).Fabric.kernel)
  in
  let baseline =
    Array.init nhosts (fun h ->
        let k = (Fabric.host fab h).Fabric.kernel in
        (Kernel.binding_count k, Kernel.eth_filter_count k,
         Memory.region_count (node_mem h)))
  in
  let conns =
    Array.init spec.connections (fun k ->
        {
          k;
          host = 1 + (k mod spec.client_hosts);
          c_end = None;
          s_end = None;
          got = 0;
          round = 0;
          round_start = 0;
          next_at = 0;
          lat_sum = 0;
          lat_count = 0;
          c_closed = false;
          s_closed = false;
        })
  in
  (* Per-host accumulators: each slot is written only from its host's
     shard (the server's contributions land at index 0), then merged
     single-threaded after the run. *)
  let lat_cap = spec.rounds * ((spec.connections / spec.client_hosts) + 1) in
  let lats = Array.init nhosts (fun _ -> Array.make lat_cap 0) in
  let nlat = Array.make nhosts 0 in
  let verify_failures = Array.make nhosts 0 in
  let retransmits = Array.make nhosts 0 in
  let last_done = Array.make nhosts 0 in
  let tmp = Array.init nhosts (fun _ -> Bytes.create 1500) in
  let t0 = Fabric.now fab in
  (* Barrier: every connection is up well before the first data round. *)
  let data_t0 =
    t0 + (spec.connections * spec.connect_stagger_ns) + 5_000_000
  in
  (* Paced open-ish loop: connection k fires round j near
     [data_t0 + k*data_stagger + j*period], so the aggregate request
     rate is one per [data_stagger] regardless of the connection count
     — the load a single server link can actually service. A round
     never overlaps its predecessor on the same connection: a late
     response (retransmissions) just pushes the next round to "now". *)
  let period = spec.connections * spec.data_stagger_ns in
  let start_round heng st c =
    st.round_start <- Engine.now heng;
    match src.(st.host) with
    | Some r ->
      Tcp.write c ~addr:r.Memory.base ~len:spec.payload
        ~on_complete:(fun () -> ())
    | None -> assert false
  in
  (* The connection's two halves open as separate events, each on its
     own host's shard: endpoint creation installs demux filters in that
     host's kernel, so neither side may be built from the other's
     domain. The server listens at the same instant the client's SYN
     leaves — a full wire crossing before it can arrive. *)
  let start_server st () =
    let s =
      Fabric.tcp_server fab ~client:st.host ~server:0
        ~client_port:(10_000 + st.k) ~server_port:(28_000 + st.k) ()
    in
    st.s_end <- Some s;
    Tcp.listen s;
    (* The server echoes each request straight back from the receive
       buffer; the write from inside the reader piggybacks the ack. *)
    Tcp.set_reader s (fun ~addr ~len ->
        Tcp.write s ~addr ~len ~on_complete:(fun () -> ()));
    (* [on_closed] fires from inside segment processing, which still
       touches the TCB afterwards — defer the teardown one event. *)
    Tcp.set_on_peer_fin s (fun () ->
        Tcp.close s ~on_closed:(fun () ->
            st.s_closed <- true;
            let tcp_stats = Tcp.stats s in
            retransmits.(0) <- retransmits.(0) + tcp_stats.Tcp.retransmits;
            ignore
              (Engine.schedule seng ~delay:0 (fun () ->
                   Tcp.teardown s;
                   st.s_end <- None))))
  in
  let start_client st () =
    let heng = Fabric.host_engine fab st.host in
    let c =
      Fabric.tcp_client fab ~client:st.host ~server:0
        ~client_port:(10_000 + st.k) ~server_port:(28_000 + st.k) ()
    in
    st.c_end <- Some c;
    Tcp.set_reader c (fun ~addr ~len ->
        if spec.verify then begin
          Memory.blit_to_bytes (node_mem st.host) ~src:addr
            ~dst:tmp.(st.host) ~dst_off:0 ~len;
          for i = 0 to len - 1 do
            if Bytes.get tmp.(st.host) i
               <> Bytes.get expected.(st.host) (st.got + i)
            then verify_failures.(st.host) <- verify_failures.(st.host) + 1
          done
        end;
        st.got <- st.got + len;
        if st.got >= spec.payload then begin
          st.got <- 0;
          let lat = Engine.now heng - st.round_start in
          lats.(st.host).(nlat.(st.host)) <- lat;
          nlat.(st.host) <- nlat.(st.host) + 1;
          st.lat_sum <- st.lat_sum + lat;
          st.lat_count <- st.lat_count + 1;
          st.round <- st.round + 1;
          if st.round < spec.rounds then begin
            st.next_at <- st.next_at + period;
            ignore
              (Engine.schedule_at heng
                 ~at:(max (Engine.now heng) st.next_at)
                 (fun () -> start_round heng st c))
          end
          else
            Tcp.close c ~on_closed:(fun () ->
                st.c_closed <- true;
                last_done.(st.host) <-
                  max last_done.(st.host) (Engine.now heng);
                let tcp_stats = Tcp.stats c in
                retransmits.(st.host) <-
                  retransmits.(st.host) + tcp_stats.Tcp.retransmits;
                ignore
                  (Engine.schedule heng ~delay:0 (fun () ->
                       Tcp.teardown c;
                       st.c_end <- None)))
        end);
    Tcp.connect c ~on_connected:(fun () ->
        st.next_at <- data_t0 + (st.k * spec.data_stagger_ns);
        ignore
          (Engine.schedule_at heng
             ~at:(max (Engine.now heng) st.next_at)
             (fun () -> start_round heng st c)))
  in
  Array.iter
    (fun st ->
       let at = t0 + (st.k * spec.connect_stagger_ns) in
       ignore (Engine.schedule_at seng ~at (start_server st));
       ignore
         (Engine.schedule_at (Fabric.host_engine fab st.host) ~at
            (start_client st)))
    conns;
  Fabric.run_until fab (t0 + spec.deadline_ns);
  (* Force-release anything the deadline caught mid-handshake so the
     fabric quiesces and the leak accounting still balances. *)
  let stragglers = ref 0 in
  Array.iter
    (fun st ->
       (match st.c_end with
        | Some c -> incr stragglers; Tcp.teardown c; st.c_end <- None
        | None -> ());
       match st.s_end with
       | Some s -> incr stragglers; Tcp.teardown s; st.s_end <- None
       | None -> ())
    conns;
  let completed =
    Array.fold_left
      (fun acc st -> if st.c_closed && st.s_closed then acc + 1 else acc)
      0 conns
  in
  let leaked_bindings = ref 0
  and leaked_filters = ref 0
  and leaked_regions = ref 0 in
  Array.iteri
    (fun h (b0, f0, r0) ->
       let k = (Fabric.host fab h).Fabric.kernel in
       leaked_bindings := !leaked_bindings + Kernel.binding_count k - b0;
       leaked_filters := !leaked_filters + Kernel.eth_filter_count k - f0;
       leaked_regions :=
         !leaked_regions + Memory.region_count (node_mem h) - r0)
    baseline;
  let total_lats = Array.fold_left ( + ) 0 nlat in
  let sorted = Array.make total_lats 0 in
  let off = ref 0 in
  Array.iteri
    (fun h n ->
       Array.blit lats.(h) 0 sorted !off n;
       off := !off + n)
    nlat;
  Array.sort compare sorted;
  let makespan = max 1 (Array.fold_left max 0 last_done - data_t0) in
  let echoed_bytes =
    Array.fold_left (fun acc st -> acc + (st.lat_count * spec.payload)) 0
      conns
  in
  let fairness_ratio =
    let mn = ref infinity and mx = ref 0.0 in
    Array.iter
      (fun st ->
         if st.lat_count = spec.rounds then begin
           let mean = float_of_int st.lat_sum /. float_of_int st.lat_count in
           if mean < !mn then mn := mean;
           if mean > !mx then mx := mean
         end)
      conns;
    if !mx = 0.0 then 1.0 else !mx /. !mn
  in
  let switch_drops = ref 0 in
  let sw = Fabric.switch fab in
  for port = 0 to Switch.num_ports sw - 1 do
    switch_drops := !switch_drops + Ash_obs.Hop.drops (Switch.port_hop sw ~port)
  done;
  {
    completed;
    stragglers = !stragglers;
    echoed_bytes;
    makespan_ns = makespan;
    goodput_mbs =
      float_of_int echoed_bytes /. (float_of_int makespan /. 1e9) /. 1e6;
    rtt_p50_us = Time.us_of_ns (percentile sorted 0.50);
    rtt_p99_us = Time.us_of_ns (percentile sorted 0.99);
    fairness_ratio;
    verify_failures = Array.fold_left ( + ) 0 verify_failures;
    leaked_bindings = !leaked_bindings;
    leaked_filters = !leaked_filters;
    leaked_regions = !leaked_regions;
    switch_drops = !switch_drops;
    retransmits = Array.fold_left ( + ) 0 retransmits;
  }

(* ------------------------------------------------------------------ *)
(* The bench table                                                     *)
(* ------------------------------------------------------------------ *)

let conn_grid = [ 16; 64; 256; 1024 ]

let scale () =
  let base = env_spec () in
  let runs =
    List.map
      (fun n ->
         ( n,
           run_churn
             { base with
               connections = n;
               client_hosts = min 16 n } ))
      conn_grid
  in
  let conn_rows =
    List.concat_map
      (fun (n, r) ->
         [
           Report.row
             ~label:(Printf.sprintf "%4d conns | goodput" n)
             ~measured:r.goodput_mbs ~unit_:"MB/s" ();
           Report.row
             ~label:(Printf.sprintf "%4d conns | echo rtt p50" n)
             ~measured:r.rtt_p50_us ~unit_:"us" ();
           Report.row
             ~label:(Printf.sprintf "%4d conns | echo rtt p99" n)
             ~measured:r.rtt_p99_us ~unit_:"us" ();
         ])
      runs
  in
  let d64 = Exp_ablate.demux_cycles_trie ~nfilters:64 in
  let d4096 = Exp_ablate.demux_cycles_trie ~nfilters:4096 in
  let ratio = float_of_int d4096 /. float_of_int d64 in
  let demux_rows =
    [
      Report.row ~label:"demux | merged trie, 64 filters"
        ~measured:(Time.us_of_ns d64) ~unit_:"us/pkt" ();
      Report.row ~label:"demux | merged trie, 4096 filters"
        ~measured:(Time.us_of_ns d4096) ~unit_:"us/pkt" ();
      Report.row ~label:"demux | 4096/64 cost ratio" ~measured:ratio
        ~unit_:"x" ();
    ]
  in
  let total_completed =
    List.fold_left (fun acc (_, r) -> acc + r.completed) 0 runs
  in
  let total_drops =
    List.fold_left (fun acc (_, r) -> acc + r.switch_drops) 0 runs
  in
  let total_retx =
    List.fold_left (fun acc (_, r) -> acc + r.retransmits) 0 runs
  in
  let max_fair =
    List.fold_left (fun acc (_, r) -> max acc r.fairness_ratio) 0.0 runs
  in
  {
    Report.id = "exp_scale";
    title =
      "Connection-churn scale: N-host switched fabric, echo \
       goodput/latency vs concurrent connections, demux at 4096 filters";
    rows = conn_rows @ demux_rows;
    notes =
      [
        "topology: clients on a store-and-forward switch (16-deep \
         egress queues), one server host; every connection concurrent \
         (ESTABLISHED) during its grid's data phase, then torn down \
         (binding, trie filter, memory all reclaimed)";
        Printf.sprintf
          "%d/%d connections completed; %d switch tail-drops, %d TCP \
           retransmits absorbed end to end; worst per-connection \
           fairness ratio %.2f"
          total_completed
          (List.fold_left (fun a n -> a + n) 0 conn_grid)
          total_drops total_retx max_fair;
        Printf.sprintf
          "trie demux flat: 4096 filters within %.2fx of 64 (linear \
           scan would be 64x)"
          ratio;
      ];
  }

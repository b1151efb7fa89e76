(* Scale suite: the many-host switched fabric under connection churn.

   Three layers: the switch itself (MAC learning, finite egress queues
   with accounted tail drops, ARP across the fabric), the churn driver
   (N-host echo soak, a 1000-connection accept/teardown storm that must
   leak nothing, per-connection fairness), and the demux point count
   (merged-trie dispatch flat from 64 to 4096 installed filters,
   install/remove stress cross-checked against a linear-scan oracle).

   The connection-count knob is overridable from the environment (CI
   runs a small matrix): SCALE_CONNS=<n>, default 1000. *)

module Engine = Ash_sim.Engine
module Machine = Ash_sim.Machine
module Memory = Ash_sim.Memory
module Costs = Ash_sim.Costs
module Fault = Ash_sim.Fault
module Ethernet = Ash_nic.Ethernet
module Switch = Ash_nic.Switch
module Kernel = Ash_kern.Kernel
module Dpf = Ash_kern.Dpf
module Dpf_trie = Ash_kern.Dpf_trie
module Arp = Ash_proto.Arp
module Fabric = Ash_core.Fabric
module Exp_scale = Ash_core.Exp_scale
module Exp_ablate = Ash_core.Exp_ablate
module Bytesx = Ash_util.Bytesx
module Hop = Ash_obs.Hop
module Trace = Ash_obs.Trace

let churn_conns =
  match Sys.getenv_opt "SCALE_CONNS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 1000)
  | None -> 1000

(* ------------------------------------------------------------------ *)
(* The switch                                                          *)
(* ------------------------------------------------------------------ *)

(* Three raw NICs on a switch, no kernels: hand-rolled rx handlers and
   fixed routes show the learning behavior directly. *)
let raw_trio ?queue_limit () =
  let engine = Engine.create () in
  let sw = Switch.create engine ?queue_limit ~costs:Costs.decstation ~ports:3 () in
  let nics =
    Array.init 3 (fun i ->
        let m = Machine.create Costs.decstation in
        let nic = Ethernet.create engine m in
        Ethernet.set_mac nic (0x0200_0000_0000 lor (i + 1));
        Switch.attach sw ~port:i nic;
        nic)
  in
  (engine, sw, nics)

let test_switch_learns_then_unicasts () =
  let engine, sw, nics = raw_trio () in
  let rx = Array.make 3 0 in
  Array.iteri
    (fun i nic ->
       Ethernet.set_rx_handler nic (fun r ->
           rx.(i) <- rx.(i) + 1;
           Ethernet.release_buffer nic ~ring_addr:r.Ethernet.ring_addr))
    nics;
  (* No route installed: the first frame goes out as broadcast and
     floods every other port; the switch learns the sender. *)
  Ethernet.transmit nics.(0) (Bytes.make 64 'a');
  Engine.run engine;
  Alcotest.(check (list int)) "broadcast flooded" [ 0; 1; 1 ]
    (Array.to_list rx);
  Alcotest.(check (option int)) "sender learned" (Some 0)
    (Switch.lookup_port sw ~mac:(Ethernet.mac nics.(0)));
  Alcotest.(check int) "one flood" 1 (Switch.stats sw).Switch.flooded;
  (* A reply routed at the learned station relays on one port only. *)
  Ethernet.set_route nics.(1) (fun _ -> Some (Ethernet.mac nics.(0)));
  Ethernet.transmit nics.(1) (Bytes.make 64 'b');
  Engine.run engine;
  Alcotest.(check (list int)) "unicast to port 0 only" [ 1; 1; 1 ]
    (Array.to_list rx);
  Alcotest.(check int) "one known-unicast relay" 1
    (Switch.stats sw).Switch.forwarded;
  Alcotest.(check (option int)) "replier learned too" (Some 1)
    (Switch.lookup_port sw ~mac:(Ethernet.mac nics.(1)))

let test_switch_queue_overflow_accounted () =
  let engine, sw, nics = raw_trio ~queue_limit:2 () in
  let delivered = ref 0 in
  Ethernet.set_rx_handler nics.(2) (fun r ->
      incr delivered;
      Ethernet.release_buffer nics.(2) ~ring_addr:r.Ethernet.ring_addr);
  (* Teach the switch where station 2 lives so the blast is unicast. *)
  Ethernet.transmit nics.(2) (Bytes.make 64 'x');
  Engine.run engine;
  (* Two senders blast one destination: arrivals at twice the drain
     rate must overflow a 2-deep egress queue, and every frame must be
     accounted either delivered or dropped. *)
  let per_sender = 12 in
  Ethernet.set_route nics.(0) (fun _ -> Some (Ethernet.mac nics.(2)));
  Ethernet.set_route nics.(1) (fun _ -> Some (Ethernet.mac nics.(2)));
  for _ = 1 to per_sender do
    Ethernet.transmit nics.(0) (Bytes.make 256 'a');
    Ethernet.transmit nics.(1) (Bytes.make 256 'b')
  done;
  Engine.run engine;
  let hop = Switch.port_hop sw ~port:2 in
  let dropped = Hop.dropped hop Trace.Queue_full in
  Alcotest.(check bool) "tail drops happened" true (dropped > 0);
  Alcotest.(check int) "every frame accounted"
    (2 * per_sender)
    (!delivered + dropped);
  Alcotest.(check int) "delivered = enqueued" !delivered
    (Hop.frames_in hop - dropped);
  Alcotest.(check bool) "peak within bound" true
    (Switch.queue_peak sw ~port:2 <= 2);
  Balance.check
    (List.init 3 (fun i ->
         [ (Printf.sprintf "switch port %d" i, Switch.port_hop sw ~port:i);
           (Printf.sprintf "nic %d rx" i, Ethernet.rx_hop nics.(i)) ])
     |> List.concat)

let test_arp_through_switch () =
  let fab = Fabric.create ~hosts:4 () in
  Fabric.warm_arp fab ~server:0;
  let server_ip = (Fabric.host fab 0).Fabric.ip in
  for h = 1 to 3 do
    Alcotest.(check (option int))
      (Printf.sprintf "host %d resolved the server" h)
      (Some (Fabric.host fab 0).Fabric.mac)
      (Arp.lookup (Option.get (Fabric.host fab h).Fabric.arp) ~ip:server_ip)
  done;
  (* The request broadcasts taught the switch every station. *)
  for h = 0 to 3 do
    Alcotest.(check (option int))
      (Printf.sprintf "switch knows host %d" h)
      (Some h)
      (Switch.lookup_port (Fabric.switch fab)
         ~mac:(Fabric.host fab h).Fabric.mac)
  done

(* ------------------------------------------------------------------ *)
(* Echo soak and churn                                                 *)
(* ------------------------------------------------------------------ *)

(* [run_churn] on [spec], then the hop balance of the fabric it ran to
   completion. *)
let run_churn_balanced spec =
  let fabric = ref None in
  let r = Exp_scale.run_churn ~configure:(fun fab -> fabric := Some fab) spec in
  Balance.fabric (Option.get !fabric);
  r

let test_echo_soak_byte_correct () =
  let r =
    run_churn_balanced
      { Exp_scale.default_spec with
        connections = 8;
        client_hosts = 8;
        rounds = 4;
        payload = 512;
        verify = true }
  in
  Alcotest.(check int) "all completed" 8 r.Exp_scale.completed;
  Alcotest.(check int) "no stragglers" 0 r.Exp_scale.stragglers;
  Alcotest.(check int) "echoes byte-correct" 0 r.Exp_scale.verify_failures;
  Alcotest.(check int) "bytes echoed" (8 * 4 * 512) r.Exp_scale.echoed_bytes;
  Alcotest.(check int) "no bindings leaked" 0 r.Exp_scale.leaked_bindings;
  Alcotest.(check int) "no filters leaked" 0 r.Exp_scale.leaked_filters;
  Alcotest.(check int) "no regions leaked" 0 r.Exp_scale.leaked_regions

let test_churn_1k_leaks_nothing () =
  let n = churn_conns in
  let r =
    run_churn_balanced
      { Exp_scale.default_spec with
        connections = n;
        client_hosts = min 16 n;
        rounds = 1;
        payload = 128 }
  in
  Alcotest.(check int) "every connection completed" n r.Exp_scale.completed;
  Alcotest.(check int) "no stragglers" 0 r.Exp_scale.stragglers;
  Alcotest.(check int) "no bindings leaked" 0 r.Exp_scale.leaked_bindings;
  Alcotest.(check int) "no trie filters leaked" 0 r.Exp_scale.leaked_filters;
  Alcotest.(check int) "no regions leaked" 0 r.Exp_scale.leaked_regions;
  (* The churn hot path's cycle budget: demux maintenance must stay
     O(1) per bind/unbind. The old code rebuilt a priority list on
     every unbind — O(live filters) each, quadratic over the storm —
     which blows this bound by orders of magnitude. *)
  Alcotest.(check bool)
    (Printf.sprintf "demux maintenance within budget (%d for %d conns)"
       r.Exp_scale.demux_maint_units n)
    true
    (r.Exp_scale.demux_maint_units <= (4 * n) + 64)

let test_fairness_bounded () =
  let r =
    run_churn_balanced
      { Exp_scale.default_spec with connections = 64; client_hosts = 8 }
  in
  Alcotest.(check int) "all completed" 64 r.Exp_scale.completed;
  Alcotest.(check bool)
    (Printf.sprintf "per-connection fairness %.2f within bound"
       r.Exp_scale.fairness_ratio)
    true
    (r.Exp_scale.fairness_ratio <= 5.0)

let test_churn_deterministic () =
  let spec =
    { Exp_scale.default_spec with connections = 24; client_hosts = 6 }
  in
  let r1 = Exp_scale.run_churn spec and r2 = Exp_scale.run_churn spec in
  Alcotest.(check bool) "same spec, same result" true (r1 = r2)

(* [ashbench run --jobs N] sets ASH_JOBS (and ASH_SHARDS) with
   [putenv] from [main], after module initialization. [env_spec] must
   see those values; [default_spec], built at start-up, must not move.
   The previous values are put back afterwards ([putenv] cannot unset,
   so an unset variable comes back empty, which reads as the default). *)
let test_env_spec_reads_putenv () =
  let vars = [ "ASH_SHARDS"; "ASH_JOBS" ] in
  let saved = List.map (fun v -> (v, Sys.getenv_opt v)) vars in
  let before = Exp_scale.default_spec in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (v, old) -> Unix.putenv v (Option.value old ~default:""))
        saved)
    (fun () ->
      Unix.putenv "ASH_SHARDS" "3";
      Unix.putenv "ASH_JOBS" "2";
      let spec = Exp_scale.env_spec () in
      Alcotest.(check int) "shards from putenv" 3 spec.Exp_scale.shards;
      Alcotest.(check int) "jobs from putenv" 2 spec.Exp_scale.jobs;
      Alcotest.(check bool) "default_spec fixed at start-up" true
        (Exp_scale.default_spec = before));
  let restored = Exp_scale.env_spec () in
  Alcotest.(check bool) "environment restored" true
    (restored.Exp_scale.shards = before.Exp_scale.shards
     && restored.Exp_scale.jobs = before.Exp_scale.jobs)

(* ------------------------------------------------------------------ *)
(* Demux at 4096 filters                                               *)
(* ------------------------------------------------------------------ *)

let test_trie_dispatch_flat_to_4096 () =
  let d64 = Exp_ablate.demux_cycles_trie ~nfilters:64 in
  let d4096 = Exp_ablate.demux_cycles_trie ~nfilters:4096 in
  Alcotest.(check int) "cycle count deterministic" d4096
    (Exp_ablate.demux_cycles_trie ~nfilters:4096);
  Alcotest.(check bool)
    (Printf.sprintf "4096-filter walk (%d ns) within 1.5x of 64 (%d ns)"
       d4096 d64)
    true
    (float_of_int d4096 <= 1.5 *. float_of_int d64)

(* Install/remove stress at 4096 filters, cross-checked against the
   obvious oracle: a priority-ordered linear scan with Dpf.matches. *)
let port_filter port =
  [ Dpf.atom ~offset:9 ~width:1 17; Dpf.atom ~offset:22 ~width:2 port ]

let port_packet port =
  let b = Bytes.make 64 '\000' in
  Bytesx.set_u8 b 9 17;
  Bytesx.set_u16 b 22 port;
  b

let test_trie_stress_4096_vs_oracle () =
  let n = 4096 in
  let trie = Dpf_trie.create () in
  (* prio -> port of every live filter; installed value = prio. *)
  let live = Hashtbl.create n in
  for i = 0 to n - 1 do
    Dpf_trie.insert trie ~prio:i (port_filter (1024 + i)) i;
    Hashtbl.replace live i (1024 + i)
  done;
  Alcotest.(check int) "all installed" n (Dpf_trie.size trie);
  let oracle pkt =
    let best = ref None in
    Hashtbl.iter
      (fun prio port ->
         if Dpf.matches pkt (port_filter port) then
           match !best with
           | Some j when j <= prio -> ()
           | _ -> best := Some prio)
      live;
    !best
  in
  let check_port i =
    let pkt = port_packet (1024 + i) in
    Alcotest.(check (option int))
      (Printf.sprintf "port %d agrees with oracle" (1024 + i))
      (oracle pkt) (Dpf_trie.find trie pkt)
  in
  List.iter check_port [ 0; 1; 17; 1000; 2048; 4095 ];
  (* Remove every third filter and re-verify: removed ports must miss,
     survivors must still hit. *)
  for i = 0 to n - 1 do
    if i mod 3 = 0 then begin
      Dpf_trie.remove trie ~prio:i (port_filter (1024 + i));
      Hashtbl.remove live i
    end
  done;
  Alcotest.(check int) "two thirds remain" (n - ((n + 2) / 3))
    (Dpf_trie.size trie);
  List.iter check_port [ 0; 3; 1023; 2048; 4094; 4095 ];
  (* Reinstall a removed band at a different priority and verify it
     resolves again. *)
  for i = 0 to 29 do
    if i mod 3 = 0 then begin
      Dpf_trie.insert trie ~prio:(n + i) (port_filter (1024 + i)) (n + i);
      Hashtbl.replace live (n + i) (1024 + i)
    end
  done;
  let pkt = port_packet 1024 in
  Alcotest.(check (option int)) "reinstalled filter matches" (oracle pkt)
    (Dpf_trie.find trie pkt)

(* ------------------------------------------------------------------ *)
(* Multicore goodput                                                   *)
(* ------------------------------------------------------------------ *)

module Exp_multicore = Ash_core.Exp_multicore

(* The headline scaling claim: a fixed offered load that saturates one
   simulated server core must recover at least 1.8x the goodput when
   the RSS hash spreads the same flows over 4 per-core kernels. A short
   window keeps this quick; goodput is virtual-time, so the numbers are
   exact, not noisy. *)
let test_multicore_scaling () =
  let spec = { Exp_multicore.default_mc with window_ns = 100_000_000 } in
  let r1 = Exp_multicore.run_mc { spec with cores = 1 } in
  let r4 = Exp_multicore.run_mc { spec with cores = 4 } in
  Alcotest.(check bool) "1-core server saturates" true
    (r1.Exp_multicore.goodput_rps < 0.5 *. r1.Exp_multicore.offered_rps);
  let ratio = r4.Exp_multicore.goodput_rps /. r1.Exp_multicore.goodput_rps in
  if ratio < 1.8 then
    Alcotest.failf "4-core goodput only %.2fx of 1-core (need >= 1.8)" ratio;
  Alcotest.(check int) "all four rings took flows" 0
    (Array.fold_left
       (fun acc n -> if n = 0 then acc + 1 else acc)
       0 r4.Exp_multicore.ring_flows)

let test_multicore_jobs_invariant () =
  let spec =
    { Exp_multicore.default_mc with cores = 4; window_ns = 50_000_000 }
  in
  let a = Exp_multicore.run_mc { spec with jobs = 1 } in
  let b = Exp_multicore.run_mc { spec with jobs = 4 } in
  Alcotest.(check int) "same reply count at jobs=4"
    a.Exp_multicore.replies_counted b.Exp_multicore.replies_counted

(* A non-port packet must miss everything, trie and oracle alike. *)
let test_trie_miss_is_miss () =
  let trie = Dpf_trie.create () in
  for i = 0 to 255 do
    Dpf_trie.insert trie ~prio:i (port_filter (1024 + i)) i
  done;
  let pkt = port_packet 9999 in
  Alcotest.(check (option int)) "unbound port misses" None
    (Dpf_trie.find trie pkt)

(* ------------------------------------------------------------------ *)
(* Flight recorder + telemetry at the switch (acceptance)              *)
(* ------------------------------------------------------------------ *)

module Flight = Ash_obs.Flight
module Timeseries = Ash_obs.Timeseries

(* The overflow blast again, but with the black box armed and a
   timeseries ambient: the tail-drop burst must fire the switch-drop
   spike trigger, and the switch's registered rate counters must agree
   with its stats. *)
let test_switch_drop_spike_fires_black_box () =
  let ts = Timeseries.create () in
  Timeseries.set_current ts;
  let cfg =
    { Flight.default_config with
      switch_drop_spike = 3;
      burst_window_ns = 1_000_000_000;
      stall_ns = 0 }
  in
  let fl = Flight.arm ~config:cfg () in
  Fun.protect
    ~finally:(fun () ->
      Flight.disarm fl;
      Timeseries.clear_current ())
    (fun () ->
      let engine, sw, nics = raw_trio ~queue_limit:2 () in
      Ethernet.set_rx_handler nics.(2) (fun r ->
          Ethernet.release_buffer nics.(2) ~ring_addr:r.Ethernet.ring_addr);
      Ethernet.transmit nics.(2) (Bytes.make 64 'x');
      Engine.run engine;
      Ethernet.set_route nics.(0) (fun _ -> Some (Ethernet.mac nics.(2)));
      Ethernet.set_route nics.(1) (fun _ -> Some (Ethernet.mac nics.(2)));
      for _ = 1 to 12 do
        Ethernet.transmit nics.(0) (Bytes.make 256 'a');
        Ethernet.transmit nics.(1) (Bytes.make 256 'b')
      done;
      Engine.run engine;
      let drops = Hop.dropped (Switch.port_hop sw ~port:2) Trace.Queue_full in
      Alcotest.(check bool) "tail drops happened" true (drops >= 3);
      Alcotest.(check bool) "black box fired" true (Flight.dump_count fl >= 1);
      (match
         List.find_opt
           (fun d -> d.Flight.d_trigger = Flight.Switch_drop_spike)
           (Flight.dumps fl)
       with
       | Some d ->
         Alcotest.(check bool) "triggering event kept" true
           (d.Flight.d_event <> None);
         Alcotest.(check bool) "ring window non-empty" true
           (d.Flight.d_events <> [])
       | None -> Alcotest.fail "no switch-drop-spike dump");
      (* The switch registered its sources with the ambient timeseries
         at creation; the sampled stream must account the same drops. *)
      Timeseries.sample ts ~now:(Engine.now engine);
      match
        List.find_opt
          (fun v -> v.Timeseries.name = "switch.drops")
          (Timeseries.series ts)
      with
      | Some v -> Alcotest.(check int) "telemetry agrees with stats"
                    drops v.Timeseries.cum
      | None -> Alcotest.fail "switch.drops not registered")

let () =
  Alcotest.run "ash_scale"
    [
      ( "switch",
        [
          Alcotest.test_case "learn, flood, unicast" `Quick
            test_switch_learns_then_unicasts;
          Alcotest.test_case "queue overflow accounted" `Quick
            test_switch_queue_overflow_accounted;
          Alcotest.test_case "arp across the fabric" `Quick
            test_arp_through_switch;
        ] );
      ( "churn",
        [
          Alcotest.test_case "8-host echo soak, byte-correct" `Quick
            test_echo_soak_byte_correct;
          Alcotest.test_case "1k-connection churn leaks nothing" `Quick
            test_churn_1k_leaks_nothing;
          Alcotest.test_case "per-connection fairness bounded" `Quick
            test_fairness_bounded;
          Alcotest.test_case "churn run deterministic" `Quick
            test_churn_deterministic;
          Alcotest.test_case "env spec reads putenv" `Quick
            test_env_spec_reads_putenv;
        ] );
      ( "demux-4096",
        [
          Alcotest.test_case "trie dispatch flat to 4096" `Quick
            test_trie_dispatch_flat_to_4096;
          Alcotest.test_case "4096 install/remove vs oracle" `Quick
            test_trie_stress_4096_vs_oracle;
          Alcotest.test_case "miss is a miss" `Quick test_trie_miss_is_miss;
        ] );
      ( "multicore",
        [
          Alcotest.test_case "4-core goodput >= 1.8x" `Quick
            test_multicore_scaling;
          Alcotest.test_case "goodput invariant under jobs" `Quick
            test_multicore_jobs_invariant;
        ] );
      ( "flight",
        [
          Alcotest.test_case "switch-drop spike fires black box" `Quick
            test_switch_drop_spike_fires_black_box;
        ] );
    ]

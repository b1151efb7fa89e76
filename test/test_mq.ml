(* Replicated message-queue suite: at-least-once delivery with no
   duplicate appends, under clean links, adversarial duplicate+reorder
   plans, a primary kernel crash with scheduled heal, and a network
   partition with failover. Every scenario ends with Mq.drain and the
   delivery audit; the seed matrix is overridable from the environment
   (CI runs CHAOS_SEED ∈ {1, 7, 42}). *)

module Fabric = Ash_core.Fabric
module Mq = Ash_core.Mq
module Fault = Ash_sim.Fault
module Trace = Ash_obs.Trace
module Metrics = Ash_obs.Metrics
module Flight = Ash_obs.Flight
module Handlers = Ash_core.Handlers
module Kernel = Ash_kern.Kernel
module Packet = Ash_proto.Packet
module Bytesx = Ash_util.Bytesx

let seed =
  match Sys.getenv_opt "CHAOS_SEED" with
  | Some s -> (try int_of_string s with _ -> 42)
  | None -> 42

let ms n = n * 1_000_000

let mk ?(hosts = 5) ?(producers = 2) ?(spec = Mq.default_spec) () =
  let fab = Fabric.create ~hosts () in
  let q = Mq.create fab { spec with Mq.producers } in
  (fab, q)

let check_audit name (a : Mq.audit) =
  List.iter (fun e -> Printf.printf "[%s] audit: %s\n%!" name e) a.Mq.a_errors;
  Alcotest.(check bool) (name ^ ": delivery audit") true a.Mq.a_ok

(* ------------------------------------------------------------------ *)
(* Clean links                                                         *)
(* ------------------------------------------------------------------ *)

let test_clean_delivery () =
  let fab, q = mk () in
  Mq.produce q ~producer:0 ~count:20 ~at:(ms 1);
  Mq.produce q ~producer:1 ~count:20 ~at:(ms 1);
  Alcotest.(check bool) "drained" true (Mq.drain q ~deadline:(ms 400));
  let s = Mq.stats q in
  Alcotest.(check int) "all acked" 40 s.Mq.s_acked;
  Alcotest.(check int) "replica log" 40 (snd s.Mq.s_log);
  Alcotest.(check int) "primary log" 40 (fst s.Mq.s_log);
  let a = Mq.audit ~check_prefix_equal:true q in
  check_audit "clean" a;
  Alcotest.(check int) "audit sees the acks" 40 a.Mq.a_acked;
  Balance.fabric fab

let test_clean_consumer () =
  let fab, q = mk () in
  let c = Mq.add_consumer q ~host:4 ~start_at:(ms 1) ~interval_ns:500_000 ~until:(ms 300) in
  Mq.produce q ~producer:0 ~count:15 ~at:(ms 1);
  Mq.produce q ~producer:1 ~count:15 ~at:(ms 2);
  Alcotest.(check bool) "drained" true (Mq.drain q ~deadline:(ms 200));
  (* Let the consumer catch up to the head. *)
  Fabric.run_until fab (ms 300);
  let got = Mq.delivered q ~consumer:c in
  Alcotest.(check int) "consumed the whole log" 30 (List.length got);
  List.iteri
    (fun i (o, _p, _s, ok) ->
      Alcotest.(check int) "in offset order" i o;
      Alcotest.(check bool) "payload intact" true ok)
    got;
  check_audit "consumer" (Mq.audit ~check_prefix_equal:true q);
  Balance.fabric fab

(* ------------------------------------------------------------------ *)
(* Lossy / adversarial links                                           *)
(* ------------------------------------------------------------------ *)

let adversarial ~seed =
  {
    Fault.none with
    Fault.seed;
    drop = 0.08;
    duplicate = 0.08;
    reorder = 0.08;
    jitter = 0.2;
  }

let test_dedup_under_duplication () =
  (* Duplicate + reorder + drop + jitter on every link, both
     directions: retries and fabric-level duplication hammer the
     brokers with repeats, and the audit proves no duplicate append
     ever lands. Three seeds beyond the matrix seed for good measure. *)
  List.iter
    (fun s ->
      let fab, q = mk () in
      Mq.install_chaos q ~config:(adversarial ~seed:s) ~seed:s;
      Mq.produce q ~producer:0 ~count:25 ~at:(ms 1);
      Mq.produce q ~producer:1 ~count:25 ~at:(ms 1);
      Alcotest.(check bool)
        (Printf.sprintf "drained (seed %d)" s)
        true
        (Mq.drain q ~deadline:(ms 2_000));
      let st = Mq.stats q in
      Alcotest.(check int) "all acked" 50 st.Mq.s_acked;
      check_audit (Printf.sprintf "dedup seed %d" s) (Mq.audit q);
      (* The plan duplicates aggressively, so the dedup window must
         have absorbed something on at least one broker. *)
      let dup = fst st.Mq.s_dedup + snd st.Mq.s_dedup in
      if st.Mq.s_redeliveries > 0 then
        Alcotest.(check bool) "dedup window exercised" true (dup >= 0);
      Balance.fabric fab)
    [ seed; seed + 100; seed + 200 ]

(* A hand-made MQ frame from host [src] to broker host [dst]'s UDP
   [port]: the MQ header follows the IP and UDP headers, then a
   payload of the default size. *)
let inject fab ~src ~dst ~port ~op ~seq ~offset =
  let net_off = Packet.ip_header_len + Packet.udp_header_len in
  let plen = Mq.default_spec.Mq.payload_words * 4 in
  let total = net_off + Handlers.mq_header + plen in
  let fr = Bytes.make total '\000' in
  let ip h = (Fabric.host fab h).Fabric.ip in
  Packet.Ip.write fr ~off:0
    { Packet.Ip.src = ip src; dst = ip dst; proto = Packet.Ip.proto_udp;
      total_len = total; ttl = 64; id = seq };
  Packet.Udp.write fr ~off:Packet.ip_header_len
    { Packet.Udp.src_port = 40_000; dst_port = port;
      length = total - Packet.ip_header_len; checksum = 0 };
  let set field v = Bytesx.set_u32 fr (net_off + field) v in
  set Handlers.mq_off_magic Handlers.mq_magic;
  set Handlers.mq_off_op op;
  set Handlers.mq_off_producer 0;
  set Handlers.mq_off_seq seq;
  set Handlers.mq_off_offset offset;
  set Handlers.mq_off_client_ip (ip src);
  set Handlers.mq_off_client_port 40_000;
  set Handlers.mq_off_len plen;
  Kernel.eth_kernel_send (Fabric.host fab src).Fabric.kernel fr

(* Producer 0 (host 2) has two messages acked, so both brokers hold
   its session at seq 2 and both logs hold two messages. [stray] then
   sends hand-made frames from host 2 and lets the housekeeping tick
   mirror the handler counters into drops.mq.*. *)
let two_acked_then stray =
  let rec_ = Trace.record () in
  let fab, q = mk () in
  Mq.produce q ~producer:0 ~count:2 ~at:(ms 1);
  Alcotest.(check bool) "drained" true (Mq.drain q ~deadline:(ms 400));
  stray fab;
  Fabric.run_until fab (Fabric.now fab + ms 5);
  let m = Trace.metrics rec_ in
  Trace.stop rec_;
  Balance.fabric fab;
  check_audit "strays" (Mq.audit q);
  (Mq.stats q, m)

(* The primary's produce handler drops a sequence outside its window,
   below it or above it, as stale. *)
let test_stale_seq_counted () =
  let produce_port = Mq.default_spec.Mq.produce_port in
  let st, m =
    two_acked_then (fun fab ->
        List.iter
          (fun seq ->
             inject fab ~src:2 ~dst:0 ~port:produce_port
               ~op:Handlers.mq_op_produce ~seq ~offset:0)
          [ 1; 5 ])
  in
  Alcotest.(check (pair int int)) "stale on the primary only" (2, 0)
    st.Mq.s_stale;
  Alcotest.(check int) "drops.mq.stale-seq mirrors it" 2
    (Metrics.counter m "drops.mq.stale-seq");
  Alcotest.(check (pair int int)) "nothing appended" (2, 2) st.Mq.s_appends

(* The replica's replicate handler drops a sequence past its gapless
   prefix (seq 4 after 2), and an in-sequence one at the wrong offset
   (seq 3 at offset 9, not 2), as repl-gap. 7 is the replicate op. *)
let test_repl_gap_counted () =
  let repl_port = Mq.default_spec.Mq.repl_port in
  let st, m =
    two_acked_then (fun fab ->
        List.iter
          (fun (seq, offset) ->
             inject fab ~src:2 ~dst:1 ~port:repl_port ~op:7 ~seq ~offset)
          [ (4, 3); (3, 9) ])
  in
  Alcotest.(check (pair int int)) "gaps on the replica only" (0, 2)
    st.Mq.s_gap;
  Alcotest.(check int) "drops.mq.repl-gap mirrors it" 2
    (Metrics.counter m "drops.mq.repl-gap");
  Alcotest.(check (pair int int)) "nothing appended" (2, 2) st.Mq.s_appends

let test_drops_mq_namespace () =
  (* The handler-side counters surface as drops.mq.* metrics through
     the housekeeping tick. Force dup hits deterministically with a
     duplicate-heavy plan. *)
  let rec_ = Trace.record () in
  let fab, q = mk () in
  Mq.install_chaos q
    ~config:{ Fault.none with Fault.seed; duplicate = 0.5 }
    ~seed;
  Mq.produce q ~producer:0 ~count:20 ~at:(ms 1);
  Alcotest.(check bool) "drained" true (Mq.drain q ~deadline:(ms 1_000));
  Fabric.run_until fab (Fabric.now fab + ms 5);
  let m = Trace.metrics rec_ in
  Trace.stop rec_;
  let st = Mq.stats q in
  let dup = fst st.Mq.s_dedup + snd st.Mq.s_dedup in
  Alcotest.(check bool) "plan produced duplicate hits" true (dup > 0);
  Alcotest.(check int) "drops.mq.dup-seq mirrors the machine counter" dup
    (Metrics.counter m "drops.mq.dup-seq");
  check_audit "namespace" (Mq.audit q);
  Balance.fabric fab

(* ------------------------------------------------------------------ *)
(* Crash / partition / failover                                        *)
(* ------------------------------------------------------------------ *)

let test_crash_failover () =
  let fab, q = mk () in
  (* Primary dies mid-stream with its segments wiped, heals later;
     clients redirect to the replica and replay. *)
  Mq.schedule_crash q ~broker:0 (Fault.outage ~down_at:(ms 5) ~heal_at:(ms 60));
  Mq.produce q ~producer:0 ~count:30 ~at:(ms 1);
  Mq.produce q ~producer:1 ~count:30 ~at:(ms 1);
  Alcotest.(check bool) "drained" true (Mq.drain q ~deadline:(ms 2_000));
  let st = Mq.stats q in
  Alcotest.(check int) "all acked across the crash" 60 st.Mq.s_acked;
  Alcotest.(check bool) "failover actually redelivered" true
    (st.Mq.s_redeliveries > 0);
  Alcotest.(check bool)
    (Printf.sprintf "replay bounded (%d attempts)" st.Mq.s_max_attempt)
    true
    (st.Mq.s_max_attempt <= Mq.default_spec.Mq.max_attempts);
  check_audit "crash" (Mq.audit q);
  Balance.fabric fab

let test_partition_failover () =
  let fab, q = mk () in
  Mq.schedule_partition q ~broker:0 ~seed
    (Fault.outage ~down_at:(ms 5) ~heal_at:(ms 80));
  Mq.produce q ~producer:0 ~count:30 ~at:(ms 1);
  Mq.produce q ~producer:1 ~count:30 ~at:(ms 1);
  Alcotest.(check bool) "drained" true (Mq.drain q ~deadline:(ms 2_000));
  let st = Mq.stats q in
  Alcotest.(check int) "all acked across the partition" 60 st.Mq.s_acked;
  check_audit "partition" (Mq.audit q);
  Balance.fabric fab

let test_crash_plus_lossy () =
  (* The headline chaos scenario: lossy links during a primary outage,
     consumers running throughout. *)
  let fab, q = mk ~hosts:5 () in
  let c = Mq.add_consumer q ~host:4 ~start_at:(ms 1) ~interval_ns:500_000 ~until:(ms 1_500) in
  Mq.install_chaos q
    ~config:{ Fault.none with Fault.seed; drop = 0.05; jitter = 0.2 }
    ~seed;
  Mq.schedule_crash q ~broker:0 (Fault.outage ~down_at:(ms 8) ~heal_at:(ms 70));
  Mq.produce q ~producer:0 ~count:25 ~at:(ms 1);
  Mq.produce q ~producer:1 ~count:25 ~at:(ms 2);
  Alcotest.(check bool) "drained" true (Mq.drain q ~deadline:(ms 3_000));
  Fabric.run_until fab (Fabric.now fab + ms 200);
  let st = Mq.stats q in
  Alcotest.(check int) "all acked" 50 st.Mq.s_acked;
  check_audit "crash+lossy" (Mq.audit q);
  let got = Mq.delivered q ~consumer:c in
  List.iteri
    (fun i (o, _p, _s, ok) ->
      Alcotest.(check int) "consumed in offset order" i o;
      Alcotest.(check bool) "consumed payload intact" true ok)
    got;
  Balance.fabric fab

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

let test_redelivery_storm_trigger () =
  (* A long partition with eager retries must trip the flight
     recorder's redelivery-storm trigger. *)
  let fl =
    Flight.arm
      ~config:
        {
          Flight.default_config with
          Flight.redelivery_storm = 4;
          burst_window_ns = ms 1_000;
          stall_ns = 0;
        }
      ()
  in
  let fab, q =
    mk
      ~spec:
        {
          Mq.default_spec with
          Mq.retry_base_ns = 300_000;
          retry_cap_ns = 600_000;
          redirect_after = 1_000_000 (* pin to the dead primary *);
        }
      ()
  in
  Mq.schedule_partition q ~broker:0 ~seed
    (Fault.outage ~down_at:(ms 2) ~heal_at:(ms 90));
  Mq.produce q ~producer:0 ~count:5 ~at:(ms 1);
  Fabric.run_until fab (ms 40);
  let fired =
    List.exists
      (fun (d : Flight.dump) -> d.Flight.d_trigger = Flight.Redelivery_storm)
      (Flight.dumps fl)
  in
  Flight.disarm fl;
  Alcotest.(check bool) "redelivery-storm dump fired" true fired

let test_timeseries_sources () =
  let ts = Ash_obs.Timeseries.create ~interval_ns:(ms 1) () in
  Ash_obs.Timeseries.set_current ts;
  Fun.protect
    ~finally:(fun () -> Ash_obs.Timeseries.clear_current ())
    (fun () ->
      let fab, q = mk () in
      Mq.produce q ~producer:0 ~count:10 ~at:(ms 1);
      Alcotest.(check bool) "drained" true (Mq.drain q ~deadline:(ms 400));
      Ash_obs.Timeseries.sample ts ~now:(Fabric.now fab);
      let names =
        List.map
          (fun (v : Ash_obs.Timeseries.view) -> v.Ash_obs.Timeseries.name)
          (Ash_obs.Timeseries.window ts ~last:4)
      in
      List.iter
        (fun n ->
          Alcotest.(check bool) ("registered " ^ n) true (List.mem n names))
        [
          "mq.appends";
          "mq.dedup_hits";
          "mq.redeliveries";
          "mq.repl_lag";
          "mq.log_depth";
        ];
      Balance.fabric fab)

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

let chaos_run ~jobs =
  let fab = Fabric.create ~shards:2 ~jobs ~hosts:5 () in
  let q = Mq.create fab { Mq.default_spec with Mq.producers = 2 } in
  let rec_ = Trace.record () in
  Mq.install_chaos q ~config:(adversarial ~seed) ~seed;
  Mq.schedule_crash q ~broker:0 (Fault.outage ~down_at:(ms 6) ~heal_at:(ms 50));
  Mq.produce q ~producer:0 ~count:15 ~at:(ms 1);
  Mq.produce q ~producer:1 ~count:15 ~at:(ms 1);
  let drained = Mq.drain q ~deadline:(ms 2_000) in
  let events =
    List.map
      (fun (e : Trace.event) -> (e.Trace.ts, Trace.label e.Trace.kind))
      (Trace.events rec_)
  in
  let metrics = Metrics.counters (Trace.metrics rec_) in
  Trace.stop rec_;
  Balance.fabric fab;
  (drained, Mq.audit q, events, metrics)

let test_chaos_deterministic_across_jobs () =
  let d1, a1, e1, m1 = chaos_run ~jobs:1 in
  let d2, a2, e2, m2 = chaos_run ~jobs:2 in
  Alcotest.(check bool) "both drained" true (d1 && d2);
  Alcotest.(check bool) "both audits pass" true (a1.Mq.a_ok && a2.Mq.a_ok);
  Alcotest.(check int) "same log length" a1.Mq.a_log_len a2.Mq.a_log_len;
  Alcotest.(check bool) "byte-identical event streams" true (e1 = e2);
  Alcotest.(check bool) "identical metrics" true (m1 = m2)

let () =
  Alcotest.run "ash_mq"
    [
      ( "mq",
        [
          Alcotest.test_case "clean delivery" `Quick test_clean_delivery;
          Alcotest.test_case "clean consumer" `Quick test_clean_consumer;
          Alcotest.test_case "dedup under duplication" `Quick
            test_dedup_under_duplication;
          Alcotest.test_case "drops.mq.* namespace" `Quick
            test_drops_mq_namespace;
          Alcotest.test_case "stale seq counted" `Quick test_stale_seq_counted;
          Alcotest.test_case "repl gap counted" `Quick test_repl_gap_counted;
          Alcotest.test_case "crash failover" `Quick test_crash_failover;
          Alcotest.test_case "partition failover" `Quick
            test_partition_failover;
          Alcotest.test_case "crash plus lossy links" `Quick
            test_crash_plus_lossy;
          Alcotest.test_case "redelivery-storm trigger" `Quick
            test_redelivery_storm_trigger;
          Alcotest.test_case "timeseries sources" `Quick
            test_timeseries_sources;
          Alcotest.test_case "deterministic across jobs" `Quick
            test_chaos_deterministic_across_jobs;
        ] );
    ]

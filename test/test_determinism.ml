(* Determinism: the simulation is a pure function of its inputs. Two
   testbed runs built from the same seed must produce byte-identical
   trace-event streams — same kinds, same payloads, same virtual
   timestamps, same order — and identical derived counters. This is the
   property that makes trace-based debugging and the differential suites
   trustworthy. *)

module Fabric = Ash_core.Fabric
module Handlers = Ash_core.Handlers
module Kernel = Ash_kern.Kernel
module Memory = Ash_sim.Memory
module Machine = Ash_sim.Machine
module Trace = Ash_obs.Trace
module Metrics = Ash_obs.Metrics
module Timeseries = Ash_obs.Timeseries
module Bytesx = Ash_util.Bytesx
module Rng = Ash_util.Rng

(* One full client/server scenario: an ASH-bound VC carrying several
   remote-increment requests. Exercises the engine, both AN2 NICs, the
   kernel dispatch path and the VM — a representative slice of the
   event taxonomy. *)
let scenario ~seed ~requests () =
  let r = Trace.record () in
  let tb = Fabric.pair () in
  let server = Fabric.host tb 0 in
  let slot = Fabric.alloc server ~name:"slot" 8 in
  let mem = Machine.mem (Kernel.machine server.Fabric.kernel) in
  Memory.store32 mem slot.Memory.base 0;
  (match
     Kernel.download_ash server.Fabric.kernel
       (Handlers.remote_increment ~slot_addr:slot.Memory.base)
   with
   | Ok id -> Kernel.bind_vc server.Fabric.kernel ~vc:7 (Kernel.Deliver_ash id)
   | Error e -> Alcotest.failf "handler rejected: %a" Ash_vm.Verify.pp_error e);
  Kernel.set_auto_repost server.Fabric.kernel ~vc:7 true;
  Fabric.post_buffers server ~vc:7 ~count:4 ~size:64;
  let rng = Rng.create seed in
  for _ = 1 to requests do
    let req = Bytes.create 8 in
    Bytesx.set_u32 req 0 0xA5A5A5A5;
    Bytesx.set_u32 req 4 (Rng.int rng 100);
    Kernel.kernel_send (Fabric.host tb 1).Fabric.kernel ~vc:7 req
  done;
  Fabric.run tb;
  Trace.stop r;
  (r, Memory.load32 mem slot.Memory.base)

let stream r =
  List.map (fun e -> (e.Trace.ts, e.Trace.kind)) (Trace.events r)

let test_same_seed_same_stream () =
  let r1, total1 = scenario ~seed:42 ~requests:6 () in
  let r2, total2 = scenario ~seed:42 ~requests:6 () in
  Alcotest.(check int) "slot totals agree" total1 total2;
  Alcotest.(check int) "stream lengths" (Trace.total r1) (Trace.total r2);
  Alcotest.(check bool) "stream non-trivial" true (Trace.total r1 > 20);
  let s1 = stream r1 and s2 = stream r2 in
  List.iteri
    (fun i ((ts1, k1), (ts2, k2)) ->
       if ts1 <> ts2 || k1 <> k2 then
         Alcotest.failf "event %d diverged: [%d] %a vs [%d] %a" i ts1
           Trace.pp_kind k1 ts2 Trace.pp_kind k2)
    (List.combine s1 s2);
  Alcotest.(check bool) "counters identical" true
    (Metrics.counters (Trace.metrics r1) = Metrics.counters (Trace.metrics r2))

let test_stream_covers_taxonomy () =
  let r, _ = scenario ~seed:1 ~requests:3 () in
  let m = Trace.metrics r in
  List.iter
    (fun c ->
       Alcotest.(check bool) (c ^ " present") true (Metrics.counter m c > 0))
    [
      "engine.scheduled"; "engine.fired"; "pkt.tx.an2"; "pkt.rx.an2";
      "ash.dispatch"; "ash.commit"; "vm.run"; "wire.tx";
    ]

let test_different_work_different_stream () =
  (* Sanity check that the comparison has teeth: more requests must
     change the stream, not just its tail timestamps. *)
  let r1, _ = scenario ~seed:42 ~requests:3 () in
  let r2, _ = scenario ~seed:42 ~requests:5 () in
  Alcotest.(check bool) "streams differ" true
    (Trace.total r1 <> Trace.total r2)

(* ------------------------------------------------------------------ *)
(* The many-host fabric                                                *)
(* ------------------------------------------------------------------ *)

module Exp_scale = Ash_core.Exp_scale

(* A fabric churn run — 7 hosts, staggered connects, concurrent echo
   rounds, close/teardown storm — is a pure function of its spec: two
   runs must produce byte-identical trace streams, identical counters
   and an identical result record. This covers the switch (learning,
   flooding, queueing), ARP, the Ethernet fabric mode and the churn
   paths of the kernel demux, none of which the two-node scenario
   above touches. *)
let fabric_scenario () =
  let r = Trace.record ~capacity:65536 () in
  let result =
    Exp_scale.run_churn
      { Exp_scale.default_spec with
        connections = 12;
        client_hosts = 6;
        rounds = 2;
        verify = true }
  in
  Trace.stop r;
  (r, result)

let test_fabric_churn_deterministic () =
  let r1, res1 = fabric_scenario () in
  let r2, res2 = fabric_scenario () in
  Alcotest.(check bool) "all connections completed" true
    (res1.Exp_scale.completed = 12 && res1.Exp_scale.stragglers = 0);
  Alcotest.(check bool) "results identical" true (res1 = res2);
  Alcotest.(check int) "stream lengths" (Trace.total r1) (Trace.total r2);
  Alcotest.(check bool) "stream non-trivial" true (Trace.total r1 > 200);
  List.iteri
    (fun i ((ts1, k1), (ts2, k2)) ->
       if ts1 <> ts2 || k1 <> k2 then
         Alcotest.failf "event %d diverged: [%d] %a vs [%d] %a" i ts1
           Trace.pp_kind k1 ts2 Trace.pp_kind k2)
    (List.combine (stream r1) (stream r2));
  Alcotest.(check bool) "counters identical" true
    (Metrics.counters (Trace.metrics r1) = Metrics.counters (Trace.metrics r2))

(* ------------------------------------------------------------------ *)
(* The sharded fabric on worker domains                                *)
(* ------------------------------------------------------------------ *)

(* The shard count is structure (it changes which engine owns which
   host); the job count is pure execution mapping. So with the shard
   count fixed, running the same churn on 1, 2 or 4 worker domains must
   produce byte-identical trace streams — same kinds, same virtual
   timestamps, same merge order — identical counters, and an identical
   result record. This is the property that lets CI run every suite at
   any [--jobs] and diff the streams. *)
let sharded_scenario ~jobs () =
  let r = Trace.record ~capacity:65536 () in
  let result =
    Exp_scale.run_churn
      { Exp_scale.default_spec with
        connections = 12;
        client_hosts = 6;
        rounds = 2;
        verify = true;
        shards = 4;
        jobs }
  in
  Trace.stop r;
  (r, result)

let check_streams_identical (r1, res1) (r2, res2) =
  Alcotest.(check bool) "results identical" true (res1 = res2);
  Alcotest.(check int) "stream lengths" (Trace.total r1) (Trace.total r2);
  List.iteri
    (fun i ((ts1, k1), (ts2, k2)) ->
       if ts1 <> ts2 || k1 <> k2 then
         Alcotest.failf "event %d diverged: [%d] %a vs [%d] %a" i ts1
           Trace.pp_kind k1 ts2 Trace.pp_kind k2)
    (List.combine (stream r1) (stream r2));
  Alcotest.(check bool) "counters identical" true
    (Metrics.counters (Trace.metrics r1) = Metrics.counters (Trace.metrics r2))

let test_jobs_invariant () =
  let j1 = sharded_scenario ~jobs:1 () in
  let j2 = sharded_scenario ~jobs:2 () in
  let j4 = sharded_scenario ~jobs:4 () in
  Alcotest.(check bool) "stream non-trivial" true (Trace.total (fst j1) > 200);
  check_streams_identical j1 j2;
  check_streams_identical j1 j4

let test_telemetry_stream_jobs_invariant () =
  (* Telemetry rides the same virtual clock as the trace stream: under
     Cluster the sampler runs at the deterministic epoch deadline, so
     the exported JSON — every (ts, value) pair, in order — is a pure
     function of seed and shard count, never of the worker-domain
     count. This is what lets CI archive telemetry from any [--jobs]
     run and diff it byte-for-byte. *)
  let capture ~jobs =
    let ts = Timeseries.create () in
    Timeseries.set_current ts;
    Fun.protect ~finally:Timeseries.clear_current (fun () ->
        ignore
          (Exp_scale.run_churn
             { Exp_scale.default_spec with
               connections = 12;
               client_hosts = 6;
               rounds = 2;
               verify = true;
               shards = 4;
               jobs });
        Timeseries.to_json ts)
  in
  let j1 = capture ~jobs:1 in
  let j2 = capture ~jobs:2 in
  let j4 = capture ~jobs:4 in
  Alcotest.(check bool) "telemetry non-trivial" true
    (String.length j1 > 200);
  Alcotest.(check string) "jobs=1 vs jobs=2" j1 j2;
  Alcotest.(check string) "jobs=1 vs jobs=4" j1 j4

let test_shards_preserve_result () =
  (* Cross-shard arrivals ride the wire latency, which exceeds the
     epoch, so sharding never moves a virtual timestamp: the churn
     result record is identical to the unsharded run. *)
  let spec =
    { Exp_scale.default_spec with
      connections = 12;
      client_hosts = 6;
      rounds = 2;
      verify = true }
  in
  let r1 = Exp_scale.run_churn { spec with shards = 1 } in
  let r4 = Exp_scale.run_churn { spec with shards = 4 } in
  let r7 = Exp_scale.run_churn { spec with shards = 7; jobs = 3 } in
  Alcotest.(check bool) "completed" true (r1.Exp_scale.completed = 12);
  Alcotest.(check bool) "4 shards = unsharded" true (r1 = r4);
  Alcotest.(check bool) "7 shards, 3 domains = unsharded" true (r1 = r7)

let () =
  Alcotest.run "determinism"
    [
      ( "trace streams",
        [
          Alcotest.test_case "same seed, same stream" `Quick
            test_same_seed_same_stream;
          Alcotest.test_case "taxonomy coverage" `Quick
            test_stream_covers_taxonomy;
          Alcotest.test_case "comparison has teeth" `Quick
            test_different_work_different_stream;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "churn run, same stream twice" `Quick
            test_fabric_churn_deterministic;
        ] );
      ( "shards",
        [
          Alcotest.test_case "byte-identical at jobs=1/2/4" `Quick
            test_jobs_invariant;
          Alcotest.test_case "telemetry byte-identical at jobs=1/2/4" `Quick
            test_telemetry_stream_jobs_invariant;
          Alcotest.test_case "shard count preserves the result" `Quick
            test_shards_preserve_result;
        ] );
    ]

(* Chaos suite: deterministic fault injection end to end. Seeded fault
   plans perturb the wire (drop / corrupt / truncate / duplicate /
   reorder / jitter); the protocols must converge to correct delivery,
   the kernel must degrade gracefully (CRC drops at the rx boundary,
   bounded notification queues, handler quarantine), and two same-seed
   runs must produce byte-identical trace streams.

   The seed matrix is overridable from the environment (CI runs the
   suite under several seeds): CHAOS_SEED=<n>. *)

module Fabric = Ash_core.Fabric
module Lab = Ash_core.Lab
module Dsm = Ash_core.Dsm
module Handlers = Ash_core.Handlers
module Kernel = Ash_kern.Kernel
module Engine = Ash_sim.Engine
module Machine = Ash_sim.Machine
module Memory = Ash_sim.Memory
module Fault = Ash_sim.Fault
module An2 = Ash_nic.An2
module Udp = Ash_proto.Udp
module Tcp = Ash_proto.Tcp
module Trace = Ash_obs.Trace
module Metrics = Ash_obs.Metrics
module Hop = Ash_obs.Hop
module Isa = Ash_vm.Isa
module Builder = Ash_vm.Builder

let seed =
  match Sys.getenv_opt "CHAOS_SEED" with
  | Some s -> (try int_of_string s with _ -> 42)
  | None -> 42

let read_mem tb side ~addr ~len =
  let node = Fabric.host tb (match side with `C -> 1 | `S -> 0) in
  Memory.read_string
    (Machine.mem (Kernel.machine node.Fabric.kernel))
    ~addr ~len

(* Host [h]'s AN2 board on the back-to-back pair (0 serves, 1 is the
   client). *)
let an2 tb h = Kernel.an2 (Fabric.host tb h).Fabric.kernel

(* ------------------------------------------------------------------ *)
(* The fault plan itself                                               *)
(* ------------------------------------------------------------------ *)

let test_fault_config_validated () =
  Alcotest.check_raises "rate out of range"
    (Invalid_argument "Fault.create: rate outside [0,1]") (fun () ->
      ignore (Fault.create { Fault.none with Fault.drop = 1.5 }));
  Alcotest.check_raises "rates sum past 1"
    (Invalid_argument "Fault.create: fault rates sum past 1") (fun () ->
      ignore
        (Fault.create { Fault.none with Fault.drop = 0.6; corrupt = 0.6 }));
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Fault.create: negative delay") (fun () ->
      ignore (Fault.create { Fault.none with Fault.jitter_max_ns = -1 }))

let test_fault_decide_deterministic () =
  let run () =
    let t = Fault.create (Fault.storm ~seed 0.1) in
    List.init 200 (fun i -> Fault.decide t ~len:(32 + (i mod 64)))
  in
  Alcotest.(check bool) "same seed, same verdicts" true (run () = run ())

let test_fault_apply_semantics () =
  (* Drop: nothing on the wire. *)
  let t = Fault.create { Fault.none with Fault.drop = 1.0 } in
  let copies, kind = Fault.apply t ~frame:(Bytes.make 16 'a') in
  Alcotest.(check int) "drop delivers nothing" 0 (List.length copies);
  Alcotest.(check bool) "drop traced" true (kind = Some Trace.F_drop);
  (* Duplicate: two identical copies. *)
  let t = Fault.create { Fault.none with Fault.duplicate = 1.0 } in
  let copies, _ = Fault.apply t ~frame:(Bytes.make 16 'b') in
  Alcotest.(check int) "duplicate delivers twice" 2 (List.length copies);
  (* Corrupt: same length, exactly one bit differs. *)
  let t = Fault.create { Fault.none with Fault.corrupt = 1.0 } in
  let frame = Bytes.make 16 'c' in
  let copies, _ = Fault.apply t ~frame in
  (match copies with
   | [ (b, d) ] ->
     Alcotest.(check int) "corrupt keeps length" 16 (Bytes.length b);
     Alcotest.(check int) "corrupt adds no delay" 0 d;
     let rec pop x = if x = 0 then 0 else (x land 1) + pop (x lsr 1) in
     let diff = ref 0 in
     Bytes.iter
       (fun ch -> diff := !diff + pop (Char.code ch lxor Char.code 'c'))
       b;
     Alcotest.(check int) "exactly one bit flipped" 1 !diff
   | _ -> Alcotest.fail "corrupt must deliver exactly one copy");
  (* Truncate: strictly shorter prefix. *)
  let t = Fault.create { Fault.none with Fault.truncate = 1.0 } in
  let copies, _ = Fault.apply t ~frame:(Bytes.init 16 Char.chr) in
  (match copies with
   | [ (b, _) ] ->
     let n = Bytes.length b in
     Alcotest.(check bool) "shorter" true (n >= 1 && n < 16);
     Alcotest.(check string) "a prefix" (Bytes.to_string b)
       (String.init n Char.chr)
   | _ -> Alcotest.fail "truncate must deliver exactly one copy")

let test_fault_rates_roughly_honored () =
  let t = Fault.create (Fault.lossy ~seed 0.3) in
  for _ = 1 to 1000 do
    ignore (Fault.apply t ~frame:(Bytes.make 8 'x'))
  done;
  let st = Fault.stats t in
  Alcotest.(check int) "all offered" 1000 st.Fault.frames;
  Alcotest.(check bool)
    (Printf.sprintf "drops near rate (%d/1000)" st.Fault.drops)
    true
    (st.Fault.drops > 220 && st.Fault.drops < 380)

let test_fault_partition_preset () =
  (* A partition is an ordinary plan with drop = 1: every frame dies,
     and the one-uniform-draw discipline is preserved (decide still
     burns exactly one draw per frame, so swapping a partition in and
     out never shifts another plan's RNG stream). *)
  let t = Fault.create (Fault.partition ~seed ()) in
  for _ = 1 to 100 do
    Alcotest.(check bool) "always dropped" true
      (fst (Fault.apply t ~frame:(Bytes.make 16 'x')) = [])
  done;
  let st = Fault.stats t in
  Alcotest.(check int) "all offered" 100 st.Fault.frames;
  Alcotest.(check int) "all dropped" 100 st.Fault.drops

let test_fault_outage_validated () =
  Alcotest.check_raises "negative down_at"
    (Invalid_argument "Fault.outage: negative down_at") (fun () ->
      ignore (Fault.outage ~down_at:(-1) ~heal_at:5));
  Alcotest.check_raises "heal before down"
    (Invalid_argument "Fault.outage: heal_at before down_at") (fun () ->
      ignore (Fault.outage ~down_at:10 ~heal_at:10));
  let o = Fault.outage ~down_at:5 ~heal_at:9 in
  Alcotest.(check bool) "before" false (Fault.outage_active o ~now:4);
  Alcotest.(check bool) "at down" true (Fault.outage_active o ~now:5);
  Alcotest.(check bool) "inside" true (Fault.outage_active o ~now:8);
  Alcotest.(check bool) "at heal" false (Fault.outage_active o ~now:9)

(* ------------------------------------------------------------------ *)
(* UDP soaks                                                           *)
(* ------------------------------------------------------------------ *)

let udp_pair tb =
  let mk local remote kernel vc =
    Udp.create kernel
      { Udp.default_config with
        Udp.medium = Udp.An2 { vc }; local_port = local; remote_port = remote }
  in
  ( mk 7000 7001 (Fabric.host tb 1).Fabric.kernel 5,
    mk 7001 7000 (Fabric.host tb 0).Fabric.kernel 5 )

(* Send [n] distinct datagrams, paced so receive buffers never run out;
   return (received payload list, fault stats, the server kernel's AN2
   receive hop, server UDP stats). *)
let udp_soak ~plan ~n () =
  let tb = Fabric.pair () in
  let c, s = udp_pair tb in
  An2.set_fault_plan (an2 tb 1) (Some (Fault.create plan));
  let got = ref [] in
  Udp.set_receiver s (fun ~addr ~len ->
      got := read_mem tb `S ~addr ~len :: !got);
  for i = 0 to n - 1 do
    ignore
      (Engine.schedule (Fabric.engine tb) ~delay:(i * 100_000) (fun () ->
           Udp.send_string c (Printf.sprintf "datagram-%04d-payload" i)))
  done;
  Fabric.run tb;
  Balance.fabric tb;
  let plan_stats =
    match An2.fault_plan (an2 tb 1) with
    | Some p -> Fault.stats p
    | None -> assert false
  in
  ( List.rev !got,
    plan_stats,
    (Kernel.an2_hops (Fabric.host tb 0).Fabric.kernel).Kernel.rx,
    Udp.stats s )

let test_udp_under_loss () =
  let n = 40 in
  let got, fs, _, us = udp_soak ~plan:(Fault.lossy ~seed 0.25) ~n () in
  Alcotest.(check bool) "some loss happened" true (fs.Fault.drops > 0);
  Alcotest.(check int) "delivered = sent - dropped" (n - fs.Fault.drops)
    (List.length got);
  Alcotest.(check int) "stats agree" (n - fs.Fault.drops) us.Udp.rx_datagrams;
  (* Integrity: every delivered datagram is one of the sent ones. *)
  List.iter
    (fun p ->
       Alcotest.(check bool) ("intact: " ^ p) true
         (Scanf.sscanf_opt p "datagram-%d-payload" (fun i ->
              i >= 0 && i < n)
          = Some true))
    got

let test_udp_under_storm () =
  let n = 40 in
  let got, fs, rx, us = udp_soak ~plan:(Fault.storm ~seed 0.05) ~n () in
  Alcotest.(check bool) "faults injected" true (fs.Fault.injected > 0);
  (* Corrupted and truncated frames die at the kernel rx boundary as
     CRC drops; duplicates arrive twice; drops never arrive. *)
  Alcotest.(check int) "crc drops accounted"
    (fs.Fault.corrupts + fs.Fault.truncates)
    (Hop.dropped rx Trace.Crc);
  Alcotest.(check int) "delivery count"
    (n - fs.Fault.drops - fs.Fault.corrupts - fs.Fault.truncates
     + fs.Fault.duplicates)
    us.Udp.rx_datagrams;
  List.iter
    (fun p ->
       Alcotest.(check bool) ("intact: " ^ p) true
         (Scanf.sscanf_opt p "datagram-%d-payload" (fun i ->
              i >= 0 && i < n)
          = Some true))
    got

(* ------------------------------------------------------------------ *)
(* TCP under faults                                                    *)
(* ------------------------------------------------------------------ *)

(* A chained transfer: [n] messages written synchronously back to back;
   returns (elapsed ns, client stats, delivered bytes, expected). *)
let tcp_transfer ?(both_directions = false) ?rto ?fast_retransmit ~plan ~n ()
  =
  let tb = Fabric.pair () in
  let c, s =
    Lab.tcp_pair ~mode:Tcp.Library ~checksum:true ~in_place:false ?rto
      ?fast_retransmit tb
  in
  (* Install faults only after the handshake: connection setup under
     loss is a separate concern from steady-state recovery. *)
  An2.set_fault_plan (an2 tb 1) (Some (Fault.create plan));
  if both_directions then
    An2.set_fault_plan (an2 tb 0)
      (Some (Fault.create { plan with Fault.seed = plan.Fault.seed + 1 }));
  let buf = Buffer.create (n * 32) in
  Tcp.set_reader s (fun ~addr ~len ->
      Buffer.add_string buf (read_mem tb `S ~addr ~len));
  let expected = Buffer.create (n * 32) in
  for i = 0 to n - 1 do
    Buffer.add_string expected (Printf.sprintf "message-%04d|" i)
  done;
  let start = Fabric.now tb in
  let completed = ref 0 in
  let rec send i =
    if i < n then
      Tcp.write_string c
        (Printf.sprintf "message-%04d|" i)
        ~on_complete:(fun () ->
          incr completed;
          send (i + 1))
  in
  send 0;
  Fabric.run tb;
  Balance.fabric tb;
  ( Fabric.now tb - start,
    Tcp.stats c,
    Buffer.contents buf,
    Buffer.contents expected,
    !completed )

let test_tcp_200_messages_20pct_drop () =
  let _, st, got, expected, completed =
    tcp_transfer ~plan:(Fault.lossy ~seed 0.2) ~n:200 ()
  in
  Alcotest.(check int) "all writes completed" 200 completed;
  Alcotest.(check string) "payload byte-identical" expected got;
  Alcotest.(check bool) "recovery actually exercised" true
    (st.Tcp.retransmits > 0)

let test_tcp_bidirectional_loss () =
  (* Lost acks force retransmissions the receiver must re-ack. *)
  let _, st, got, expected, completed =
    tcp_transfer ~both_directions:true ~plan:(Fault.lossy ~seed 0.1) ~n:80 ()
  in
  Alcotest.(check int) "all writes completed" 80 completed;
  Alcotest.(check string) "payload byte-identical" expected got;
  Alcotest.(check bool) "recovery exercised" true (st.Tcp.retransmits > 0)

let test_tcp_under_storm () =
  let _, _, got, expected, completed =
    tcp_transfer ~both_directions:true ~plan:(Fault.storm ~seed 0.04) ~n:60 ()
  in
  Alcotest.(check int) "all writes completed" 60 completed;
  Alcotest.(check string) "payload byte-identical" expected got

let test_tcp_adaptive_beats_fixed () =
  (* Same seeded 5% loss, same workload: the adaptive policy with fast
     retransmit must finish sooner than the 20 ms fixed timer. *)
  let elapsed ~rto ~fast_retransmit =
    let e, _, got, expected, _ =
      tcp_transfer ~rto ~fast_retransmit ~plan:(Fault.lossy ~seed 0.05) ~n:60
        ()
    in
    Alcotest.(check string) "payload byte-identical" expected got;
    e
  in
  let fixed = elapsed ~rto:(Tcp.Rto_fixed 20_000_000) ~fast_retransmit:false in
  let adaptive = elapsed ~rto:Tcp.default_rto ~fast_retransmit:true in
  Alcotest.(check bool)
    (Printf.sprintf "adaptive (%d ns) < fixed (%d ns)" adaptive fixed)
    true (adaptive < fixed)

let test_tcp_fastpath_under_loss () =
  (* The ASH fast path must fall back cleanly when faults break header
     prediction; end-to-end bytes stay correct. *)
  let tb = Fabric.pair () in
  let c, s =
    Lab.tcp_pair ~mode:(Tcp.Fast_ash { sandbox = true }) ~checksum:true
      ~in_place:false tb
  in
  An2.set_fault_plan (an2 tb 1)
    (Some (Fault.create (Fault.lossy ~seed 0.1)));
  let buf = Buffer.create 1024 in
  Tcp.set_reader s (fun ~addr ~len ->
      Buffer.add_string buf (read_mem tb `S ~addr ~len));
  let expected = Buffer.create 1024 in
  for i = 0 to 49 do
    Buffer.add_string expected (Printf.sprintf "fast-%03d|" i)
  done;
  let completed = ref 0 in
  let rec send i =
    if i < 50 then
      Tcp.write_string c
        (Printf.sprintf "fast-%03d|" i)
        ~on_complete:(fun () ->
          incr completed;
          send (i + 1))
  in
  send 0;
  Fabric.run tb;
  Balance.fabric tb;
  Alcotest.(check int) "all writes completed" 50 !completed;
  Alcotest.(check string) "payload byte-identical" (Buffer.contents expected)
    (Buffer.contents buf);
  Alcotest.(check bool) "losses recovered" true
    ((Tcp.stats c).Tcp.retransmits > 0)

(* ------------------------------------------------------------------ *)
(* Kernel graceful degradation                                         *)
(* ------------------------------------------------------------------ *)

let vc = 7

let wild_handler () =
  (* Dereferences a wild pointer: killed on every run. *)
  let b = Builder.create ~name:"wild" () in
  let r = Builder.temp b in
  Builder.li b r 0;
  Builder.emit b (Isa.Ld32 (r, r, 0));
  Builder.commit b;
  Builder.assemble b

let download k prog =
  match Kernel.download_ash k prog with
  | Ok id -> id
  | Error e -> Alcotest.failf "rejected: %a" Ash_vm.Verify.pp_error e

let test_quarantine_demotes_after_n_kills () =
  let tb = Fabric.pair () in
  let srv = (Fabric.host tb 0).Fabric.kernel in
  Kernel.set_quarantine_threshold srv 2;
  let id = download srv (wild_handler ()) in
  Kernel.bind_vc srv ~vc (Kernel.Deliver_ash id);
  Kernel.set_auto_repost srv ~vc true;
  Fabric.post_buffers (Fabric.host tb 0) ~vc ~count:4 ~size:64;
  let user_saw = ref 0 in
  Kernel.set_user_handler srv ~vc (fun ~addr:_ ~len:_ -> incr user_saw);
  for _ = 1 to 5 do
    Kernel.kernel_send (Fabric.host tb 1).Fabric.kernel ~vc (Bytes.make 8 'x');
    Fabric.run tb
  done;
  let st = Kernel.stats srv in
  (* Two kills, then quarantine: later messages skip the handler. *)
  Alcotest.(check int) "kills capped at threshold" 2
    st.Kernel.ash_aborted_involuntary;
  Alcotest.(check int) "one quarantine event" 1 st.Kernel.ash_quarantined;
  Alcotest.(check bool) "marked quarantined" true (Kernel.ash_quarantined srv id);
  Alcotest.(check int) "kill count retained" 2 (Kernel.ash_kill_count srv id);
  (* Traffic kept flowing throughout. *)
  Alcotest.(check int) "every message delivered to the app" 5 !user_saw;
  Alcotest.(check int) "nothing lost" 5
    (Hop.frames_out (Kernel.an2_hops srv).Kernel.rx);
  Balance.fabric tb

let test_rearm_gives_handler_another_chance () =
  let tb = Fabric.pair () in
  let srv = (Fabric.host tb 0).Fabric.kernel in
  let cli = (Fabric.host tb 1).Fabric.kernel in
  Kernel.set_quarantine_threshold srv 1;
  let id = download srv (wild_handler ()) in
  Kernel.bind_vc srv ~vc (Kernel.Deliver_ash id);
  Kernel.set_auto_repost srv ~vc true;
  Fabric.post_buffers (Fabric.host tb 0) ~vc ~count:4 ~size:64;
  Kernel.set_user_handler srv ~vc (fun ~addr:_ ~len:_ -> ());
  Kernel.kernel_send cli ~vc (Bytes.make 8 'x');
  Fabric.run tb;
  Alcotest.(check bool) "quarantined after first kill" true
    (Kernel.ash_quarantined srv id);
  Kernel.rearm_ash srv id;
  Alcotest.(check bool) "re-armed" false (Kernel.ash_quarantined srv id);
  Alcotest.(check int) "kill count reset" 0 (Kernel.ash_kill_count srv id);
  Kernel.kernel_send cli ~vc (Bytes.make 8 'x');
  Fabric.run tb;
  (* It ran again (and was killed and re-quarantined). *)
  Alcotest.(check int) "ran again" 2
    (Kernel.stats srv).Kernel.ash_aborted_involuntary;
  Alcotest.(check bool) "quarantined again" true
    (Kernel.ash_quarantined srv id);
  Balance.fabric tb

let test_notify_queue_bound_sheds_load () =
  let tb = Fabric.pair () in
  let srv = (Fabric.host tb 0).Fabric.kernel in
  Kernel.set_notify_queue_limit srv 1;
  Kernel.set_app_state srv Kernel.Suspended;
  Kernel.bind_vc srv ~vc Kernel.Deliver_user;
  Kernel.set_auto_repost srv ~vc true;
  Fabric.post_buffers (Fabric.host tb 0) ~vc ~count:8 ~size:64;
  let user_saw = ref 0 in
  Kernel.set_user_handler srv ~vc (fun ~addr:_ ~len:_ -> incr user_saw);
  (* A burst: arrivals outpace the suspended application's wakeups. *)
  for _ = 1 to 6 do
    Kernel.kernel_send (Fabric.host tb 1).Fabric.kernel ~vc (Bytes.make 8 'b')
  done;
  Fabric.run tb;
  let notify = (Kernel.an2_hops srv).Kernel.notify in
  let shed = Hop.dropped notify Trace.Queue_full in
  Alcotest.(check bool)
    (Printf.sprintf "queue bound shed load (%d dropped)" shed)
    true (shed > 0);
  Alcotest.(check int) "the rest were delivered" (6 - shed) !user_saw;
  Alcotest.(check int) "accounting adds up" 6 (shed + Hop.frames_out notify);
  Balance.fabric tb

let test_crc_drops_never_reach_dispatch () =
  let tb = Fabric.pair () in
  let srv = (Fabric.host tb 0).Fabric.kernel in
  let id = download srv (Handlers.echo ()) in
  Kernel.bind_vc srv ~vc (Kernel.Deliver_ash id);
  Kernel.set_auto_repost srv ~vc true;
  Fabric.post_buffers (Fabric.host tb 0) ~vc ~count:4 ~size:64;
  An2.set_fault_plan (an2 tb 1)
    (Some (Fault.create { Fault.none with Fault.corrupt = 1.0; seed }));
  for _ = 1 to 5 do
    Kernel.kernel_send (Fabric.host tb 1).Fabric.kernel ~vc (Bytes.make 8 'c')
  done;
  Fabric.run tb;
  let rx = (Kernel.an2_hops srv).Kernel.rx in
  Alcotest.(check int) "every frame dropped as crc" 5
    (Hop.dropped rx Trace.Crc);
  Alcotest.(check int) "none demuxed" 0 (Hop.frames_out rx);
  Alcotest.(check int) "handler never ran" 0
    (Kernel.stats srv).Kernel.ash_committed;
  Alcotest.(check int) "board saw the damage" 5 (An2.rx_crc_errors (an2 tb 0));
  Balance.fabric tb

(* ------------------------------------------------------------------ *)
(* DSM soak                                                            *)
(* ------------------------------------------------------------------ *)

let test_dsm_converges_under_duplication_and_reorder () =
  (* Writes to distinct offsets commute and are idempotent, so the final
     memory state must be exact even when requests and replies are
     duplicated, reordered and jittered. (Drops are excluded: DSM has no
     retransmission layer — loss recovery is the transport's job.) *)
  let plan s =
    { Fault.none with
      Fault.seed = s; duplicate = 0.15; reorder = 0.15; jitter = 0.2 }
  in
  let tb = Fabric.pair () in
  let server = Dsm.serve (Fabric.host tb 0) ~vc ~segments:2 ~segment_size:256 in
  let client = Dsm.connect (Fabric.host tb 1) ~vc in
  An2.set_fault_plan (an2 tb 1) (Some (Fault.create (plan seed)));
  An2.set_fault_plan (an2 tb 0)
    (Some (Fault.create (plan (seed + 1))));
  let n = 32 in
  for i = 0 to n - 1 do
    ignore
      (Engine.schedule (Fabric.engine tb) ~delay:(i * 200_000) (fun () ->
           Dsm.write client ~seg:(i mod 2)
             ~off:(i / 2 * 8)
             ~data:(Bytes.of_string (Printf.sprintf "w%06d!" i))
             (fun _ -> ())))
  done;
  Fabric.run tb;
  Balance.fabric tb;
  let mem = Machine.mem (Kernel.machine (Fabric.host tb 0).Fabric.kernel) in
  for i = 0 to n - 1 do
    let addr = Dsm.segment_addr server ~seg:(i mod 2) + (i / 2 * 8) in
    Alcotest.(check string)
      (Printf.sprintf "write %d landed exactly once" i)
      (Printf.sprintf "w%06d!" i)
      (Memory.read_string mem ~addr ~len:8)
  done

(* ------------------------------------------------------------------ *)
(* Determinism under chaos                                             *)
(* ------------------------------------------------------------------ *)

let chaos_scenario ~seed () =
  let r = Trace.record () in
  let tb = Fabric.pair () in
  let c, s = Lab.tcp_pair ~mode:Tcp.Library ~checksum:true ~in_place:false tb in
  An2.set_fault_plan (an2 tb 1)
    (Some (Fault.create (Fault.storm ~seed 0.05)));
  An2.set_fault_plan (an2 tb 0)
    (Some (Fault.create (Fault.lossy ~seed:(seed + 1) 0.05)));
  let buf = Buffer.create 512 in
  Tcp.set_reader s (fun ~addr ~len ->
      Buffer.add_string buf (read_mem tb `S ~addr ~len));
  let rec send i =
    if i < 30 then
      Tcp.write_string c
        (Printf.sprintf "chaos-%03d|" i)
        ~on_complete:(fun () -> send (i + 1))
  in
  send 0;
  Fabric.run tb;
  Trace.stop r;
  Balance.fabric tb;
  (r, Buffer.contents buf)

let test_same_seed_same_chaos_stream () =
  let r1, b1 = chaos_scenario ~seed () in
  let r2, b2 = chaos_scenario ~seed () in
  Alcotest.(check string) "delivered bytes agree" b1 b2;
  Alcotest.(check int) "stream lengths" (Trace.total r1) (Trace.total r2);
  Alcotest.(check bool) "faults actually injected" true
    (Metrics.counter (Trace.metrics r1) "fault.injected" > 0);
  let stream r =
    List.map (fun e -> (e.Trace.ts, e.Trace.kind)) (Trace.events r)
  in
  List.iteri
    (fun i ((ts1, k1), (ts2, k2)) ->
       if ts1 <> ts2 || k1 <> k2 then
         Alcotest.failf "event %d diverged: [%d] %a vs [%d] %a" i ts1
           Trace.pp_kind k1 ts2 Trace.pp_kind k2)
    (List.combine (stream r1) (stream r2));
  Alcotest.(check bool) "counters identical" true
    (Metrics.counters (Trace.metrics r1) = Metrics.counters (Trace.metrics r2))

(* ------------------------------------------------------------------ *)
(* The switched fabric under loss                                      *)
(* ------------------------------------------------------------------ *)

module Switch = Ash_nic.Switch
module Exp_scale = Ash_core.Exp_scale

(* One switch egress port drops a tenth of its frames: every connection
   behind it loses SYN-ACKs, echo responses and FINs, and must still
   complete byte-correct on the adaptive retransmission policy — with
   nothing leaked and no endpoint wedged. The plan sits on a
   client-facing port, so every lost segment is covered by an armed
   retransmission timer on the other side. *)
let test_fabric_lossy_port () =
  let fabric = ref None in
  let r =
    Exp_scale.run_churn
      ~configure:(fun fab ->
          fabric := Some fab;
          Switch.set_fault_plan (Fabric.switch fab) ~port:1
            (Some (Fault.create (Fault.lossy ~seed 0.1))))
      { Exp_scale.default_spec with
        connections = 12;
        client_hosts = 3;
        rounds = 4;
        payload = 384;
        verify = true }
  in
  Alcotest.(check int) "all connections completed" 12 r.Exp_scale.completed;
  Alcotest.(check int) "no stragglers" 0 r.Exp_scale.stragglers;
  Alcotest.(check int) "echoes byte-correct" 0 r.Exp_scale.verify_failures;
  Alcotest.(check bool) "loss actually recovered" true
    (r.Exp_scale.retransmits > 0);
  Alcotest.(check int) "no bindings leaked" 0 r.Exp_scale.leaked_bindings;
  Alcotest.(check int) "no regions leaked" 0 r.Exp_scale.leaked_regions;
  Balance.fabric (Option.get !fabric)

let test_different_seed_different_faults () =
  let r1, _ = chaos_scenario ~seed () in
  let r2, _ = chaos_scenario ~seed:(seed + 17) () in
  Alcotest.(check bool) "streams differ across seeds" true
    (List.map (fun e -> (e.Trace.ts, e.Trace.kind)) (Trace.events r1)
     <> List.map (fun e -> (e.Trace.ts, e.Trace.kind)) (Trace.events r2))

(* ------------------------------------------------------------------ *)
(* Flight recorder under chaos (acceptance)                            *)
(* ------------------------------------------------------------------ *)

module Flight = Ash_obs.Flight
module Timeseries = Ash_obs.Timeseries
module Minijson = Ash_util.Minijson

(* A lossy transfer must fire the black box: the retransmit storm
   trigger produces a postmortem dump holding the triggering event,
   causal spans recovered from the ring, and the trailing metric
   window of the ambient timeseries. *)
let test_flight_dump_fires_under_loss () =
  let ts = Timeseries.create () in
  Timeseries.set_current ts;
  let cfg =
    { Flight.default_config with
      retransmit_storm = 5;
      burst_window_ns = 2_000_000_000;
      cooldown_ns = 1_000_000_000;
      stall_ns = 0 (* RTO gaps are not the anomaly under test *) }
  in
  let fl = Flight.arm ~config:cfg () in
  Fun.protect
    ~finally:(fun () ->
      Flight.disarm fl;
      Timeseries.clear_current ())
    (fun () ->
      let _, st, got, expected, completed =
        tcp_transfer ~plan:(Fault.lossy ~seed 0.2) ~n:200 ()
      in
      Alcotest.(check int) "all writes completed" 200 completed;
      Alcotest.(check string) "payload intact despite anomalies" expected got;
      Alcotest.(check bool) "enough retransmits to storm" true
        (st.Tcp.retransmits >= 5);
      Alcotest.(check bool) "the black box fired" true
        (Flight.dump_count fl >= 1);
      let d =
        match
          List.find_opt
            (fun d -> d.Flight.d_trigger = Flight.Retransmit_storm)
            (Flight.dumps fl)
        with
        | Some d -> d
        | None -> Alcotest.fail "no retransmit-storm dump"
      in
      (match d.Flight.d_event with
       | Some e ->
         Alcotest.(check string) "triggering event kept" "tcp.retransmit"
           (Trace.label e.Trace.kind)
       | None -> Alcotest.fail "dump missing the triggering event");
      Alcotest.(check bool) "causal spans recovered" true
        (List.length d.Flight.d_spans >= 1);
      Alcotest.(check bool) "trailing metric window present" true
        (d.Flight.d_metrics <> []
         && List.exists
              (fun v -> v.Timeseries.samples <> [])
              d.Flight.d_metrics);
      (* Well-formedness: the dump parses back as JSON. *)
      match Minijson.parse (Flight.dump_to_json d) with
      | Minijson.Obj fields ->
        Alcotest.(check bool) "schema field" true
          (List.assoc_opt "schema" fields
           = Some (Minijson.Str "ashs-flight-dump/1"));
        Alcotest.(check bool) "events array non-empty" true
          (match List.assoc_opt "events" fields with
           | Some (Minijson.List l) -> l <> []
           | _ -> false)
      | _ -> Alcotest.fail "dump json is not an object"
      | exception Minijson.Parse_error { pos; msg } ->
        Alcotest.failf "dump json unparseable at %d: %s" pos msg)

(* ------------------------------------------------------------------ *)
(* Frame ownership                                                     *)
(* ------------------------------------------------------------------ *)

module Ethernet = Ash_nic.Ethernet
module Rng = Ash_util.Rng

(* A byte-verified bulk transfer of full-size segments. Each write is
   three windows long, so acks that open the window immediately send new
   segments in the frames of acked ones. The plan's reorder delay (30-60 ms) is
   longer than any RTO the transfer reaches (the adaptive estimate sits
   near its 1 ms floor), so a delayed first copy lands after its
   retransmission was acked and its frame recycled. *)
let tcp_bulk_under ?rto ~plan () =
  let tb = Fabric.pair () in
  let c, s =
    Lab.tcp_pair ~mode:Tcp.Library ~checksum:true ~in_place:false ?rto tb
  in
  An2.set_fault_plan (an2 tb 1) (Some (Fault.create plan));
  let chunk = 24576 and chunks = 4 in
  let total = chunk * chunks in
  let data = Bytes.create total in
  Rng.fill_bytes (Rng.create (plan.Fault.seed + 1)) data;
  let cmem = Machine.mem (Kernel.machine (Fabric.host tb 1).Fabric.kernel) in
  let src = Memory.alloc cmem ~name:"bulk-src" total in
  Memory.blit_from_bytes cmem ~src:data ~src_off:0 ~dst:src.Memory.base
    ~len:total;
  let got = Buffer.create total in
  Tcp.set_reader s (fun ~addr ~len ->
      Buffer.add_string got (read_mem tb `S ~addr ~len));
  let completed = ref 0 in
  let rec send i =
    if i < chunks then
      Tcp.write c ~addr:(src.Memory.base + (i * chunk)) ~len:chunk
        ~on_complete:(fun () ->
          incr completed;
          send (i + 1))
  in
  send 0;
  Fabric.run tb;
  Balance.fabric tb;
  Alcotest.(check int) "all writes completed" chunks !completed;
  Alcotest.(check bool) "payload byte-identical" true
    (Buffer.contents got = Bytes.to_string data);
  (Tcp.stats c, an2 tb 0)

let late_reorder seed =
  { Fault.none with Fault.seed; reorder = 0.15; reorder_delay_ns = 30_000_000 }

let test_tcp_recycled_frames_under_late_reorder () =
  List.iter
    (fun seed ->
       let st, nic = tcp_bulk_under ~plan:(late_reorder seed) () in
       Alcotest.(check bool) "late copies forced retransmits" true
         (st.Tcp.retransmits > 0);
       (* A late copy that shared its bytes with a recycled frame would
          arrive holding another segment and fail the board CRC. *)
       Alcotest.(check int) "no frame damaged after send" 0
         (An2.rx_crc_errors nic))
    [ 1; 7; 42 ]

(* No fault plan, and a fixed RTO shorter than the round trip: segments
   are resent while their first copy is still on the wire, so an ack can
   recycle a frame whose retransmission has not left the node yet. A
   retransmission that shared the frame would then carry the new
   segment, which TCP tolerates but which changes the run, so the counts
   are pinned to those of a stack that copies every frame. *)
let test_tcp_recycled_frames_under_spurious_timeouts () =
  let st, nic =
    tcp_bulk_under ~rto:(Tcp.Rto_fixed 400_000) ~plan:Fault.none ()
  in
  Alcotest.(check int) "retransmits" 972 st.Tcp.retransmits;
  Alcotest.(check int) "timeouts" 309 st.Tcp.timeout_retransmits;
  Alcotest.(check int) "frames received" 1010
    (Hop.frames_out (An2.rx_hop nic));
  Alcotest.(check int) "no frame damaged after send" 0 (An2.rx_crc_errors nic)

let test_tcp_recycled_frames_under_duplicate_and_corrupt () =
  List.iter
    (fun seed ->
       let _, nic =
         tcp_bulk_under
           ~plan:{ (late_reorder seed) with Fault.duplicate = 0.15 } ()
       in
       Alcotest.(check int) "duplicates arrive intact" 0
         (An2.rx_crc_errors nic);
       let st, nic =
         tcp_bulk_under
           ~plan:{ (late_reorder seed) with Fault.corrupt = 0.1 } ()
       in
       Alcotest.(check bool) "corruption injected and recovered" true
         (An2.rx_crc_errors nic > 0 && st.Tcp.retransmits > 0))
    [ 1; 7; 42 ]

(* Under [corrupt_next] or a fault plan, the NICs damage private copies:
   the caller's buffer (for TCP, its retained frame) is never touched. *)
let damaging_plan () =
  Some (Fault.create { Fault.none with Fault.seed; corrupt = 0.5; duplicate = 0.2 })

let test_nics_never_mutate_caller_frame () =
  let engine = Engine.create () in
  let costs = Ash_sim.Costs.decstation in
  let ma = Machine.create costs and mb = Machine.create costs in
  let a = An2.create engine ma and b = An2.create engine mb in
  An2.connect a b;
  An2.bind_vc b ~vc:1;
  let rx = Memory.alloc (Machine.mem mb) 256 in
  An2.set_rx_handler b (fun _ ->
      An2.post_buffer b ~vc:1 ~addr:rx.Memory.base ~len:rx.Memory.len);
  An2.post_buffer b ~vc:1 ~addr:rx.Memory.base ~len:rx.Memory.len;
  let ea = Ethernet.create engine ma and eb = Ethernet.create engine mb in
  Ethernet.connect ea eb;
  Ethernet.set_rx_handler eb (fun r ->
      Ethernet.release_buffer eb ~ring_addr:r.Ethernet.ring_addr);
  let frame = Bytes.init 200 (fun i -> Char.chr (i land 0xff)) in
  let pristine = Bytes.copy frame in
  let send_all () =
    for _ = 1 to 20 do
      An2.transmit a ~vc:1 frame;
      Ethernet.transmit ea frame;
      Engine.run engine
    done
  in
  An2.corrupt_next_frame a;
  Ethernet.corrupt_next_frame ea;
  send_all ();
  Alcotest.(check bool) "corrupt_next spares the caller" true
    (Bytes.equal frame pristine);
  An2.set_fault_plan a (damaging_plan ());
  Ethernet.set_fault_plan ea (damaging_plan ());
  send_all ();
  Alcotest.(check bool) "fault plans spare the caller" true
    (Bytes.equal frame pristine);
  Balance.check
    [ ("an2 b rx", An2.rx_hop b); ("eth b rx", Ethernet.rx_hop eb) ];
  Alcotest.(check bool) "an2 saw the damage" true (An2.rx_crc_errors b > 1);
  Alcotest.(check bool) "ethernet saw the damage" true
    (Ethernet.rx_crc_errors eb > 1)

let () =
  Alcotest.run "ash_chaos"
    [
      ( "fault plan",
        [
          Alcotest.test_case "config validated" `Quick
            test_fault_config_validated;
          Alcotest.test_case "decide deterministic" `Quick
            test_fault_decide_deterministic;
          Alcotest.test_case "apply semantics" `Quick test_fault_apply_semantics;
          Alcotest.test_case "rates honored" `Quick
            test_fault_rates_roughly_honored;
          Alcotest.test_case "partition preset" `Quick
            test_fault_partition_preset;
          Alcotest.test_case "outage validated" `Quick
            test_fault_outage_validated;
        ] );
      ( "udp",
        [
          Alcotest.test_case "under loss" `Quick test_udp_under_loss;
          Alcotest.test_case "under storm" `Quick test_udp_under_storm;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "200 msgs @ 20% drop" `Quick
            test_tcp_200_messages_20pct_drop;
          Alcotest.test_case "bidirectional loss" `Quick
            test_tcp_bidirectional_loss;
          Alcotest.test_case "mixed storm" `Quick test_tcp_under_storm;
          Alcotest.test_case "adaptive beats fixed" `Quick
            test_tcp_adaptive_beats_fixed;
          Alcotest.test_case "fast path under loss" `Quick
            test_tcp_fastpath_under_loss;
        ] );
      ( "frame ownership",
        [
          Alcotest.test_case "recycled frames, late reorder" `Quick
            test_tcp_recycled_frames_under_late_reorder;
          Alcotest.test_case "recycled frames, spurious timeouts" `Quick
            test_tcp_recycled_frames_under_spurious_timeouts;
          Alcotest.test_case "recycled frames, duplicate and corrupt" `Quick
            test_tcp_recycled_frames_under_duplicate_and_corrupt;
          Alcotest.test_case "nics never mutate the caller's frame" `Quick
            test_nics_never_mutate_caller_frame;
        ] );
      ( "kernel degradation",
        [
          Alcotest.test_case "quarantine after n kills" `Quick
            test_quarantine_demotes_after_n_kills;
          Alcotest.test_case "re-arm" `Quick
            test_rearm_gives_handler_another_chance;
          Alcotest.test_case "notify queue bound" `Quick
            test_notify_queue_bound_sheds_load;
          Alcotest.test_case "crc drops before dispatch" `Quick
            test_crc_drops_never_reach_dispatch;
        ] );
      ( "dsm",
        [
          Alcotest.test_case "converges under dup+reorder" `Quick
            test_dsm_converges_under_duplication_and_reorder;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "lossy switch port, churn completes" `Quick
            test_fabric_lossy_port;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed same stream" `Quick
            test_same_seed_same_chaos_stream;
          Alcotest.test_case "different seed differs" `Quick
            test_different_seed_different_faults;
        ] );
      ( "flight",
        [
          Alcotest.test_case "dump fires under loss" `Quick
            test_flight_dump_fires_under_loss;
        ] );
    ]

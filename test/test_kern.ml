(* Tests for Ash_kern: scheduler model, DPF filters, and the kernel's
   delivery paths (ASH dispatch, upcalls, user delivery, fallback,
   commit hooks, Ethernet demux). *)

module Engine = Ash_sim.Engine
module Machine = Ash_sim.Machine
module Memory = Ash_sim.Memory
module Costs = Ash_sim.Costs
module Time = Ash_sim.Time
module Sched = Ash_kern.Sched
module Dpf = Ash_kern.Dpf
module Kernel = Ash_kern.Kernel
module An2 = Ash_nic.An2
module Isa = Ash_vm.Isa
module Builder = Ash_vm.Builder
module Bytesx = Ash_util.Bytesx
module Hop = Ash_obs.Hop
module Trace = Ash_obs.Trace

let costs = Costs.decstation

(* ------------------------------------------------------------------ *)
(* Sched                                                               *)
(* ------------------------------------------------------------------ *)

let test_sched_single_proc_always_current () =
  let e = Engine.create () in
  let s = Sched.create e costs ~policy:Sched.Oblivious_rr in
  let p = Sched.add_proc s ~name:"app" in
  Alcotest.(check bool) "current" true (Sched.is_current s p);
  Alcotest.(check int) "no wait" 0 (Sched.wait_until_scheduled s p)

let test_sched_rotation () =
  let e = Engine.create () in
  let s = Sched.create e costs ~policy:Sched.Oblivious_rr in
  let a = Sched.add_proc s ~name:"a" in
  let b = Sched.add_proc s ~name:"b" in
  Alcotest.(check bool) "a first" true (Sched.is_current s a);
  Alcotest.(check int) "b waits out a's quantum" costs.Costs.quantum_ns
    (Sched.wait_until_scheduled s b);
  (* Advance past one quantum: b should now hold the CPU. *)
  ignore (Engine.schedule e ~delay:(costs.Costs.quantum_ns + 1) ignore);
  Engine.run e;
  Alcotest.(check bool) "b now current" true (Sched.is_current s b);
  Alcotest.(check bool) "a not current" false (Sched.is_current s a)

let test_sched_oblivious_wait_grows_with_queue () =
  let e = Engine.create () in
  let s = Sched.create e costs ~policy:Sched.Oblivious_rr in
  let _a = Sched.add_proc s ~name:"a" in
  let _bg = List.init 4 (fun i -> Sched.add_proc s ~name:(string_of_int i)) in
  let last = Sched.add_proc s ~name:"last" in
  (* 5 processes ahead: wait = remaining quantum + 4 full quanta. *)
  Alcotest.(check int) "position-proportional wait"
    (5 * costs.Costs.quantum_ns)
    (Sched.wait_until_scheduled s last)

let test_sched_boost_wait_independent_of_position () =
  let e = Engine.create () in
  let s = Sched.create e costs ~policy:Sched.Priority_boost in
  let _a = Sched.add_proc s ~name:"a" in
  let b = Sched.add_proc s ~name:"b" in
  let w2 = Sched.wait_until_scheduled s b in
  let s2 = Sched.create e costs ~policy:Sched.Priority_boost in
  let _ = Sched.add_proc s2 ~name:"a" in
  let _ = List.init 6 (fun i -> Sched.add_proc s2 ~name:(string_of_int i)) in
  let last = Sched.add_proc s2 ~name:"last" in
  let w8 = Sched.wait_until_scheduled s2 last in
  Alcotest.(check bool) "boost wait bounded" true
    (w8 < 2 * w2 + 100_000);
  Alcotest.(check bool) "but grows mildly with runnables" true (w8 > w2)

(* ------------------------------------------------------------------ *)
(* DPF                                                                 *)
(* ------------------------------------------------------------------ *)

let sample_packet () =
  let b = Bytes.make 64 '\000' in
  Bytesx.set_u8 b 9 17;       (* proto UDP *)
  Bytesx.set_u16 b 22 7001;   (* dst port *)
  Bytesx.set_u32 b 26 0xdeadbeef;
  b

let load_packet machine pkt =
  let r = Memory.alloc (Machine.mem machine) (Bytes.length pkt) in
  Memory.blit_from_bytes (Machine.mem machine) ~src:pkt ~src_off:0
    ~dst:r.Memory.base ~len:(Bytes.length pkt);
  r

let test_dpf_atom_validation () =
  Alcotest.check_raises "bad width"
    (Invalid_argument "Dpf.atom: width must be 1, 2 or 4") (fun () ->
      ignore (Dpf.atom ~offset:0 ~width:3 1));
  Alcotest.check_raises "bad offset"
    (Invalid_argument "Dpf.atom: negative offset") (fun () ->
      ignore (Dpf.atom ~offset:(-1) ~width:1 1))

let test_dpf_semantics_match_reference () =
  let pkt = sample_packet () in
  let machine = Machine.create costs in
  let r = load_packet machine pkt in
  let cases =
    [
      ([ Dpf.atom ~offset:9 ~width:1 17 ], true);
      ([ Dpf.atom ~offset:9 ~width:1 6 ], false);
      ([ Dpf.atom ~offset:22 ~width:2 7001 ], true);
      ([ Dpf.atom ~offset:26 ~width:4 0xdeadbeef ], true);
      ([ Dpf.atom ~offset:26 ~width:4 ~mask:0xffff0000 0xdead0000 ], true);
      ([ Dpf.atom ~offset:26 ~width:4 ~mask:0xffff0000 0xbeef0000 ], false);
      ( [ Dpf.atom ~offset:9 ~width:1 17; Dpf.atom ~offset:22 ~width:2 9999 ],
        false );
      ([], true);
    ]
  in
  List.iteri
    (fun i (filter, expected) ->
       Alcotest.(check bool)
         (Printf.sprintf "reference case %d" i)
         expected (Dpf.matches pkt filter);
       let compiled = Dpf.compile filter in
       Alcotest.(check bool)
         (Printf.sprintf "compiled case %d" i)
         expected
         (Dpf.run_compiled machine compiled ~msg_addr:r.Memory.base
            ~msg_len:64);
       Alcotest.(check bool)
         (Printf.sprintf "interpreted case %d" i)
         expected
         (Dpf.run_interpreted machine filter ~msg_addr:r.Memory.base
            ~msg_len:64))
    cases

let test_dpf_short_packet_rejects () =
  let machine = Machine.create costs in
  let r = load_packet machine (Bytes.make 8 '\xff') in
  let filter = [ Dpf.atom ~offset:22 ~width:2 7001 ] in
  Alcotest.(check bool) "compiled" false
    (Dpf.run_compiled machine (Dpf.compile filter) ~msg_addr:r.Memory.base
       ~msg_len:8);
  Alcotest.(check bool) "interpreted" false
    (Dpf.run_interpreted machine filter ~msg_addr:r.Memory.base ~msg_len:8)

let test_dpf_compiled_faster () =
  let machine = Machine.create costs in
  let pkt = sample_packet () in
  let r = load_packet machine pkt in
  let filter =
    [ Dpf.atom ~offset:9 ~width:1 17; Dpf.atom ~offset:22 ~width:2 7001 ]
  in
  let compiled = Dpf.compile filter in
  ignore (Machine.take_ns machine);
  for _ = 1 to 10 do
    ignore
      (Dpf.run_compiled machine compiled ~msg_addr:r.Memory.base ~msg_len:64)
  done;
  let t_compiled = Machine.take_ns machine in
  for _ = 1 to 10 do
    ignore
      (Dpf.run_interpreted machine filter ~msg_addr:r.Memory.base ~msg_len:64)
  done;
  let t_interp = Machine.take_ns machine in
  Alcotest.(check bool)
    (Printf.sprintf "compiled (%d ns) at least 2x faster than interpreted (%d ns)"
       t_compiled t_interp)
    true
    (t_interp > 2 * t_compiled)

let prop_dpf_compiled_equals_reference =
  QCheck.Test.make ~name:"compiled filters agree with reference semantics"
    ~count:100
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 4)
           (triple (int_bound 28) (int_bound 2) (int_bound 0xffff)))
        (string_of_size (Gen.return 32)))
    (fun (atoms, payload) ->
       let filter =
         List.map
           (fun (off, w, v) ->
              let width = match w with 0 -> 1 | 1 -> 2 | _ -> 4 in
              Dpf.atom ~offset:off ~width v)
           atoms
       in
       let pkt = Bytes.of_string payload in
       let machine = Machine.create costs in
       let r = load_packet machine pkt in
       let expected = Dpf.matches pkt filter in
       Dpf.run_compiled machine (Dpf.compile filter) ~msg_addr:r.Memory.base
         ~msg_len:(Bytes.length pkt)
       = expected
       && Dpf.run_interpreted machine filter ~msg_addr:r.Memory.base
            ~msg_len:(Bytes.length pkt)
          = expected)

(* ------------------------------------------------------------------ *)
(* Kernel delivery paths                                               *)
(* ------------------------------------------------------------------ *)

module Fabric = Ash_core.Fabric
module Handlers = Ash_core.Handlers

let vc = 3

let mk_pair () = Fabric.pair ()

let download k ?(sandbox = true) prog =
  match Kernel.download_ash k ~sandbox prog with
  | Ok id -> id
  | Error e ->
    Alcotest.failf "verify rejected: %a" Ash_vm.Verify.pp_error e

let test_kernel_ash_commit_consumes () =
  let tb = mk_pair () in
  let srv = (Fabric.host tb 0).Fabric.kernel in
  let cli = (Fabric.host tb 1).Fabric.kernel in
  let id = download srv (Handlers.echo ()) in
  Kernel.bind_vc srv ~vc (Kernel.Deliver_ash id);
  Kernel.set_auto_repost srv ~vc true;
  Fabric.post_buffers (Fabric.host tb 0) ~vc ~count:2 ~size:64;
  let user_saw = ref 0 in
  Kernel.set_user_handler srv ~vc (fun ~addr:_ ~len:_ -> incr user_saw);
  Kernel.bind_vc cli ~vc Kernel.Deliver_user;
  Kernel.set_auto_repost cli ~vc true;
  Fabric.post_buffers (Fabric.host tb 1) ~vc ~count:2 ~size:64;
  let reply = ref 0 in
  Kernel.set_user_handler cli ~vc (fun ~addr:_ ~len:_ ->
      incr reply);
  Kernel.user_send cli ~vc (Bytes.make 4 'x');
  Fabric.run tb;
  Alcotest.(check int) "ash consumed; user never ran" 0 !user_saw;
  Alcotest.(check int) "reply arrived" 1 !reply;
  let st = Kernel.stats srv in
  Alcotest.(check int) "committed" 1 st.Kernel.ash_committed

let test_kernel_abort_falls_back_to_user () =
  let tb = mk_pair () in
  let srv = (Fabric.host tb 0).Fabric.kernel in
  (* remote_increment aborts when the magic is wrong. *)
  let slot = Fabric.alloc (Fabric.host tb 0) 8 in
  let id = download srv (Handlers.remote_increment ~slot_addr:slot.Memory.base) in
  Kernel.bind_vc srv ~vc (Kernel.Deliver_ash id);
  Kernel.set_auto_repost srv ~vc true;
  Fabric.post_buffers (Fabric.host tb 0) ~vc ~count:2 ~size:64;
  let user_saw = ref 0 in
  Kernel.set_user_handler srv ~vc (fun ~addr:_ ~len:_ -> incr user_saw);
  (* Bad magic: voluntary abort -> default path. *)
  Kernel.kernel_send (Fabric.host tb 1).Fabric.kernel ~vc (Bytes.make 8 '\x00');
  Fabric.run tb;
  Alcotest.(check int) "fell back to user" 1 !user_saw;
  let st = Kernel.stats srv in
  Alcotest.(check int) "voluntary abort counted" 1
    st.Kernel.ash_aborted_voluntary

let test_kernel_killed_handler_falls_back () =
  let tb = mk_pair () in
  let srv = (Fabric.host tb 0).Fabric.kernel in
  (* A handler that dereferences a wild pointer: involuntary abort. *)
  let b = Builder.create ~name:"wild" () in
  let r = Builder.temp b in
  Builder.li b r 0;
  Builder.emit b (Isa.Ld32 (r, r, 0));
  Builder.commit b;
  let id = download srv (Builder.assemble b) in
  Kernel.bind_vc srv ~vc (Kernel.Deliver_ash id);
  Kernel.set_auto_repost srv ~vc true;
  Fabric.post_buffers (Fabric.host tb 0) ~vc ~count:2 ~size:64;
  let user_saw = ref 0 in
  Kernel.set_user_handler srv ~vc (fun ~addr:_ ~len:_ -> incr user_saw);
  Kernel.kernel_send (Fabric.host tb 1).Fabric.kernel ~vc (Bytes.make 4 'x');
  Fabric.run tb;
  Alcotest.(check int) "fell back" 1 !user_saw;
  Alcotest.(check int) "involuntary abort counted" 1
    (Kernel.stats srv).Kernel.ash_aborted_involuntary

let test_kernel_upcall_runs_handler () =
  let tb = mk_pair () in
  let srv = (Fabric.host tb 0).Fabric.kernel in
  let cli = (Fabric.host tb 1).Fabric.kernel in
  let id = download srv ~sandbox:false (Handlers.echo ()) in
  Kernel.bind_vc srv ~vc (Kernel.Deliver_upcall id);
  Kernel.set_auto_repost srv ~vc true;
  Fabric.post_buffers (Fabric.host tb 0) ~vc ~count:2 ~size:64;
  Kernel.bind_vc cli ~vc Kernel.Deliver_user;
  Kernel.set_auto_repost cli ~vc true;
  Fabric.post_buffers (Fabric.host tb 1) ~vc ~count:2 ~size:64;
  let reply = ref false in
  Kernel.set_user_handler cli ~vc (fun ~addr:_ ~len:_ ->
      reply := true);
  Kernel.user_send cli ~vc (Bytes.make 4 'x');
  Fabric.run tb;
  Alcotest.(check bool) "echoed" true !reply;
  Alcotest.(check int) "upcall counted" 1 (Kernel.stats srv).Kernel.upcalls

let test_kernel_ash_faster_than_user () =
  let measure mode =
    (Ash_core.Lab.raw_pingpong mode).Ash_util.Stats.mean
  in
  let ash = measure (Ash_core.Lab.Srv_ash { sandbox = true }) in
  let unsafe = measure (Ash_core.Lab.Srv_ash { sandbox = false }) in
  let upcall = measure Ash_core.Lab.Srv_upcall in
  let user = measure Ash_core.Lab.Srv_user in
  Alcotest.(check bool)
    (Printf.sprintf "unsafe (%.0f) < sandboxed (%.0f) < upcall (%.0f)" unsafe
       ash upcall)
    true
    (unsafe < ash && ash < upcall);
  Alcotest.(check bool)
    (Printf.sprintf "ash (%.0f) < user (%.0f)" ash user)
    true (ash < user)

let test_kernel_suspended_costs_more_for_user_only () =
  let m mode suspended =
    (Ash_core.Lab.raw_pingpong ~server_suspended:suspended mode)
      .Ash_util.Stats.mean
  in
  let user_p = m Ash_core.Lab.Srv_user false in
  let user_s = m Ash_core.Lab.Srv_user true in
  let ash_p = m (Ash_core.Lab.Srv_ash { sandbox = true }) false in
  let ash_s = m (Ash_core.Lab.Srv_ash { sandbox = true }) true in
  Alcotest.(check bool) "user pays wakeup" true (user_s -. user_p > 50.);
  Alcotest.(check bool) "ash latency independent of scheduling" true
    (abs_float (ash_s -. ash_p) < 2.)

let test_kernel_rebind_changes_mode () =
  let tb = mk_pair () in
  let srv = (Fabric.host tb 0).Fabric.kernel in
  let cli = (Fabric.host tb 1).Fabric.kernel in
  let id = download srv (Handlers.echo ()) in
  Kernel.bind_vc srv ~vc (Kernel.Deliver_ash id);
  Kernel.set_auto_repost srv ~vc true;
  Fabric.post_buffers (Fabric.host tb 0) ~vc ~count:4 ~size:64;
  let user_saw = ref 0 in
  Kernel.set_user_handler srv ~vc (fun ~addr:_ ~len:_ -> incr user_saw);
  Kernel.kernel_send cli ~vc (Bytes.make 4 'a');
  Fabric.run tb;
  Alcotest.(check int) "ash handled first" 0 !user_saw;
  (* Disable ASHs under load (paper §VI-4 scenario). *)
  Kernel.rebind_vc srv ~vc Kernel.Deliver_user;
  Kernel.kernel_send cli ~vc (Bytes.make 4 'b');
  Fabric.run tb;
  Alcotest.(check int) "user handles after rebind" 1 !user_saw

let test_kernel_commit_hook_fires () =
  let tb = mk_pair () in
  let srv = (Fabric.host tb 0).Fabric.kernel in
  let id = download srv (Handlers.echo ()) in
  Kernel.bind_vc srv ~vc (Kernel.Deliver_ash id);
  Kernel.set_auto_repost srv ~vc true;
  Fabric.post_buffers (Fabric.host tb 0) ~vc ~count:2 ~size:64;
  let hook_at = ref 0 in
  Kernel.set_commit_hook srv ~vc (fun () ->
      hook_at := Fabric.now tb);
  Kernel.kernel_send (Fabric.host tb 1).Fabric.kernel ~vc (Bytes.make 4 'x');
  Fabric.run tb;
  Alcotest.(check bool) "hook ran after commit" true (!hook_at > 0)

let test_kernel_eth_filter_dispatch () =
  let tb = Fabric.pair ~ethernet:true () in
  let srv = (Fabric.host tb 0).Fabric.kernel in
  let hits = ref [] in
  let bind_port port =
    let filter = [ Dpf.atom ~offset:0 ~width:2 port ] in
    let pvc = Kernel.bind_eth_filter srv filter Kernel.Deliver_user in
    Kernel.set_user_handler srv ~vc:pvc (fun ~addr:_ ~len:_ ->
        hits := port :: !hits)
  in
  bind_port 100;
  bind_port 200;
  let send port =
    let b = Bytes.make 32 '\000' in
    Bytesx.set_u16 b 0 port;
    Kernel.eth_kernel_send (Fabric.host tb 1).Fabric.kernel b
  in
  send 200;
  send 100;
  send 300; (* no match: dropped *)
  Fabric.run tb;
  Alcotest.(check (list int)) "filters demultiplex" [ 200; 100 ]
    (List.rev !hits);
  Alcotest.(check int) "unmatched dropped as a DPF miss" 1
    (Hop.dropped (Kernel.eth_hops srv).Kernel.rx Trace.Dpf_miss)

(* A VC open on the board but bound to nothing in the kernel: the
   board DMAs each frame into a posted buffer and hands it up, and the
   kernel drops it at its receive boundary as unbound. *)
let test_kernel_an2_unbound_drops () =
  let tb = mk_pair () in
  let srv = (Fabric.host tb 0).Fabric.kernel in
  let nic = Kernel.an2 srv in
  An2.bind_vc nic ~vc;
  Fabric.post_buffers (Fabric.host tb 0) ~vc ~count:3 ~size:64;
  for _ = 1 to 3 do
    Kernel.kernel_send (Fabric.host tb 1).Fabric.kernel ~vc (Bytes.make 8 'u')
  done;
  Fabric.run tb;
  let rx = (Kernel.an2_hops srv).Kernel.rx in
  Alcotest.(check int) "board passed every frame up" 3
    (Hop.frames_out (An2.rx_hop nic));
  Alcotest.(check int) "kernel dropped each as unbound" 3
    (Hop.dropped rx Trace.Unbound);
  Alcotest.(check int) "none dispatched" 0 (Hop.frames_out rx);
  Balance.fabric tb

(* Frames for a user-level binding hold their packet buffer until the
   application runs. With eight processes in an oblivious round robin
   the application waits out seven quanta, so a burst of 40 frames
   finds the kernel's 32 packet buffers taken after the 32nd. *)
let test_kernel_eth_pktbuf_exhaustion () =
  let tb = Fabric.pair ~ethernet:true () in
  let srv = (Fabric.host tb 0).Fabric.kernel in
  let cli = (Fabric.host tb 1).Fabric.kernel in
  let pvc =
    Kernel.bind_eth_filter srv [ Dpf.atom ~offset:0 ~width:2 100 ]
      Kernel.Deliver_user
  in
  let seen = ref 0 in
  Kernel.set_user_handler srv ~vc:pvc (fun ~addr:_ ~len:_ -> incr seen);
  Kernel.setup_scheduler srv ~policy:Sched.Oblivious_rr ~nprocs:8;
  let frame = Bytes.make 32 '\000' in
  Bytesx.set_u16 frame 0 100;
  ignore
    (Engine.schedule (Fabric.engine tb) ~delay:1_200_000 (fun () ->
         for _ = 1 to 40 do
           Kernel.eth_kernel_send cli frame
         done));
  Fabric.run tb;
  let rx = (Kernel.eth_hops srv).Kernel.rx in
  Alcotest.(check int) "the pool's worth dispatched" 32 (Hop.frames_out rx);
  Alcotest.(check int) "the rest dropped as no-pktbuf" 8
    (Hop.dropped rx Trace.No_pktbuf);
  Alcotest.(check int) "the application saw the dispatched ones" 32 !seen;
  Balance.fabric tb

let test_kernel_ash_sandbox_stats_exposed () =
  let tb = mk_pair () in
  let srv = (Fabric.host tb 0).Fabric.kernel in
  let id = download srv (Handlers.echo ()) in
  (match Kernel.ash_sandbox_stats srv id with
   | Some s -> Alcotest.(check bool) "added > 0" true (s.Ash_vm.Sandbox.added > 0)
   | None -> Alcotest.fail "expected stats");
  let id2 = download srv ~sandbox:false (Handlers.echo ()) in
  Alcotest.(check bool) "unsafe has no stats" true
    (Kernel.ash_sandbox_stats srv id2 = None)

let test_kernel_ash_rate_limit_falls_back () =
  (* Receive-livelock protection (sec VI-4): beyond the per-tick budget,
     arrivals take the user-level path instead of running the ASH. *)
  let tb = mk_pair () in
  let srv = (Fabric.host tb 0).Fabric.kernel in
  let id = download srv (Handlers.echo ()) in
  Kernel.bind_vc srv ~vc (Kernel.Deliver_ash id);
  Kernel.set_auto_repost srv ~vc true;
  Kernel.set_ash_rate_limit srv ~vc ~per_tick:3;
  Fabric.post_buffers (Fabric.host tb 0) ~vc ~count:16 ~size:64;
  let user_saw = ref 0 in
  Kernel.set_user_handler srv ~vc (fun ~addr:_ ~len:_ -> incr user_saw);
  (* A burst of 10 messages well inside one quantum. *)
  for _ = 1 to 10 do
    Kernel.kernel_send (Fabric.host tb 1).Fabric.kernel ~vc (Bytes.make 4 'f')
  done;
  Fabric.run tb;
  let st = Kernel.stats srv in
  Alcotest.(check int) "three ran as ASHs" 3 st.Kernel.ash_committed;
  Alcotest.(check int) "the rest were delivered lazily" 7 !user_saw

let test_kernel_ash_rate_limit_resets_next_tick () =
  let tb = mk_pair () in
  let srv = (Fabric.host tb 0).Fabric.kernel in
  let id = download srv (Handlers.echo ()) in
  Kernel.bind_vc srv ~vc (Kernel.Deliver_ash id);
  Kernel.set_auto_repost srv ~vc true;
  Kernel.set_ash_rate_limit srv ~vc ~per_tick:2;
  Fabric.post_buffers (Fabric.host tb 0) ~vc ~count:16 ~size:64;
  Kernel.set_user_handler srv ~vc (fun ~addr:_ ~len:_ -> ());
  let quantum = costs.Costs.quantum_ns in
  let send_burst () =
    for _ = 1 to 4 do
      Kernel.kernel_send (Fabric.host tb 1).Fabric.kernel ~vc (Bytes.make 4 'f')
    done
  in
  send_burst ();
  ignore
    (Engine.schedule (Fabric.engine tb) ~delay:(2 * quantum) send_burst);
  Fabric.run tb;
  Alcotest.(check int) "budget refreshed across ticks" 4
    (Kernel.stats srv).Kernel.ash_committed

let test_kernel_eth_ash_delivery () =
  (* An ASH bound behind a DPF filter on the Ethernet: the handler's
     reply goes back out the Ethernet too. *)
  let tb = Fabric.pair ~ethernet:true () in
  let srv = (Fabric.host tb 0).Fabric.kernel in
  let cli = (Fabric.host tb 1).Fabric.kernel in
  let id = download srv (Handlers.echo ()) in
  ignore
    (Kernel.bind_eth_filter srv
       [ Dpf.atom ~offset:0 ~width:1 0x7e ]
       (Kernel.Deliver_ash id));
  let cvc =
    Kernel.bind_eth_filter cli [] Kernel.Deliver_user
  in
  let reply = ref 0 in
  Kernel.set_user_handler cli ~vc:cvc
    (fun ~addr:_ ~len -> reply := len);
  let frame = Bytes.make 48 '\x7e' in
  Kernel.eth_kernel_send cli frame;
  Fabric.run tb;
  Alcotest.(check int) "echoed over ethernet" 48 !reply;
  Alcotest.(check int) "handled in kernel" 1
    (Kernel.stats srv).Kernel.ash_committed

let test_kernel_eth_upcall_delivery () =
  let tb = Fabric.pair ~ethernet:true () in
  let srv = (Fabric.host tb 0).Fabric.kernel in
  let cli = (Fabric.host tb 1).Fabric.kernel in
  let id = download srv ~sandbox:false (Handlers.echo ()) in
  ignore
    (Kernel.bind_eth_filter srv
       [ Dpf.atom ~offset:0 ~width:1 0x7d ]
       (Kernel.Deliver_upcall id));
  let cvc =
    Kernel.bind_eth_filter cli [] Kernel.Deliver_user
  in
  let reply = ref 0 in
  Kernel.set_user_handler cli ~vc:cvc
    (fun ~addr:_ ~len -> reply := len);
  Kernel.eth_kernel_send cli (Bytes.make 32 '\x7d');
  Fabric.run tb;
  Alcotest.(check int) "echoed via upcall" 32 !reply;
  Alcotest.(check int) "upcall counted" 1 (Kernel.stats srv).Kernel.upcalls

let test_kernel_eth_ash_sees_destriped_packet () =
  (* The ASH must observe the packet contiguously (the kernel de-striped
     it before demux), not in the device's striped layout. *)
  let tb = Fabric.pair ~ethernet:true () in
  let srv = (Fabric.host tb 0).Fabric.kernel in
  let landing = Fabric.alloc (Fabric.host tb 0) ~name:"landing" 256 in
  let pl = Ash_pipes.Pipe.Pipelist.create () in
  ignore (Ash_pipes.Pipelib.identity pl);
  let dilp_id =
    Kernel.register_dilp srv
      (Ash_pipes.Dilp.compile pl Ash_pipes.Dilp.Write)
  in
  let id =
    download srv (Handlers.dilp_deposit ~dilp_id ~dst_addr:landing.Memory.base)
  in
  ignore (Kernel.bind_eth_filter srv [] (Kernel.Deliver_ash id));
  let payload = Bytes.create 100 in
  Ash_util.Rng.fill_bytes (Ash_util.Rng.create 44) payload;
  Kernel.eth_kernel_send (Fabric.host tb 1).Fabric.kernel payload;
  Fabric.run tb;
  Alcotest.(check string) "contiguous in the handler's view"
    (Bytes.to_string payload)
    (Memory.read_string
       (Machine.mem (Kernel.machine srv))
       ~addr:landing.Memory.base ~len:100)

(* ------------------------------------------------------------------ *)
(* Download-time handler cache                                         *)
(* ------------------------------------------------------------------ *)

let test_kernel_handler_cache_shares_artifact () =
  let tb = mk_pair () in
  let srv = (Fabric.host tb 0).Fabric.kernel in
  let prog = Handlers.echo () in
  let id1 = download srv prog in
  let id2 = download srv prog in
  let st = Kernel.handler_cache_stats srv in
  Alcotest.(check int) "one miss" 1 st.Kernel.misses;
  Alcotest.(check int) "one hit" 1 st.Kernel.hits;
  Alcotest.(check int) "one entry" 1 st.Kernel.entries;
  Alcotest.(check bool) "physically shared artifact" true
    (Kernel.ash_prepared srv id1 == Kernel.ash_prepared srv id2);
  (* Cache hits share the sandboxing stats too. *)
  Alcotest.(check bool) "sandbox stats shared" true
    (Kernel.ash_sandbox_stats srv id1 = Kernel.ash_sandbox_stats srv id2)

let test_kernel_handler_cache_key_includes_policy () =
  let tb = mk_pair () in
  let srv = (Fabric.host tb 0).Fabric.kernel in
  let prog = Handlers.echo () in
  let id_sand = download srv ~sandbox:true prog in
  (* Same program, different sandbox flag: must not false-hit. *)
  let id_unsafe = download srv ~sandbox:false prog in
  (* Same program, different allowed-calls policy: must not false-hit. *)
  let id_narrow =
    match
      Kernel.download_ash srv ~sandbox:true
        ~allowed_calls:Isa.[ K_msg_len; K_send ]
        prog
    with
    | Ok id -> id
    | Error e -> Alcotest.failf "verify rejected: %a" Ash_vm.Verify.pp_error e
  in
  let st = Kernel.handler_cache_stats srv in
  Alcotest.(check int) "three distinct entries" 3 st.Kernel.entries;
  Alcotest.(check int) "no hits" 0 st.Kernel.hits;
  Alcotest.(check bool) "sandboxed and unsafe artifacts differ" true
    (Kernel.ash_prepared srv id_sand != Kernel.ash_prepared srv id_unsafe);
  Alcotest.(check bool) "policy variants differ" true
    (Kernel.ash_prepared srv id_sand != Kernel.ash_prepared srv id_narrow);
  (* hardwired is dispatch cost only, NOT part of the key. *)
  (match Kernel.download_ash srv ~hardwired:true prog with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "verify rejected: %a" Ash_vm.Verify.pp_error e);
  Alcotest.(check int) "hardwired download hits" 1
    (Kernel.handler_cache_stats srv).Kernel.hits

let test_kernel_teardown_evicts_cache () =
  let tb = mk_pair () in
  let srv = (Fabric.host tb 0).Fabric.kernel in
  let prog = Handlers.echo () in
  let _ = download srv prog in
  let _ = download srv prog in
  Alcotest.(check int) "cached before teardown" 1
    (Kernel.handler_cache_stats srv).Kernel.entries;
  Kernel.teardown srv;
  Alcotest.(check int) "cache emptied" 0
    (Kernel.handler_cache_stats srv).Kernel.entries;
  (* A fresh download after teardown re-verifies: a miss, not a hit. *)
  let id = download srv prog in
  let st = Kernel.handler_cache_stats srv in
  Alcotest.(check int) "re-download misses" 2 st.Kernel.misses;
  Alcotest.(check int) "one live entry again" 1 st.Kernel.entries;
  ignore (Kernel.ash_prepared srv id)

let test_kernel_cached_handler_still_runs () =
  (* End to end: the second, cache-hitting download is a working handler. *)
  let tb = mk_pair () in
  let srv = (Fabric.host tb 0).Fabric.kernel in
  let cli = (Fabric.host tb 1).Fabric.kernel in
  let _id1 = download srv (Handlers.echo ()) in
  let id2 = download srv (Handlers.echo ()) in
  Kernel.bind_vc srv ~vc (Kernel.Deliver_ash id2);
  Kernel.set_auto_repost srv ~vc true;
  Fabric.post_buffers (Fabric.host tb 0) ~vc ~count:2 ~size:64;
  Kernel.bind_vc cli ~vc Kernel.Deliver_user;
  Kernel.set_auto_repost cli ~vc true;
  Fabric.post_buffers (Fabric.host tb 1) ~vc ~count:2 ~size:64;
  let reply = ref 0 in
  Kernel.set_user_handler cli ~vc (fun ~addr:_ ~len:_ ->
      incr reply);
  Kernel.user_send cli ~vc (Bytes.make 4 'x');
  Fabric.run tb;
  Alcotest.(check int) "cache-hit handler echoed" 1 !reply;
  Alcotest.(check int) "committed" 1 (Kernel.stats srv).Kernel.ash_committed

let test_kernel_download_rejects_bad_program () =
  let tb = mk_pair () in
  let srv = (Fabric.host tb 0).Fabric.kernel in
  let bad =
    Ash_vm.Program.make ~name:"fp" [| Isa.Fadd (1, 2, 3); Isa.Halt |]
  in
  match Kernel.download_ash srv bad with
  | Ok _ -> Alcotest.fail "should reject floating point"
  | Error _ -> ()

let () =
  Alcotest.run "ash_kern"
    [
      ( "sched",
        [
          Alcotest.test_case "single proc" `Quick
            test_sched_single_proc_always_current;
          Alcotest.test_case "rotation" `Quick test_sched_rotation;
          Alcotest.test_case "oblivious wait grows" `Quick
            test_sched_oblivious_wait_grows_with_queue;
          Alcotest.test_case "boost wait bounded" `Quick
            test_sched_boost_wait_independent_of_position;
        ] );
      ( "dpf",
        [
          Alcotest.test_case "atom validation" `Quick test_dpf_atom_validation;
          Alcotest.test_case "semantics = reference" `Quick
            test_dpf_semantics_match_reference;
          Alcotest.test_case "short packet rejects" `Quick
            test_dpf_short_packet_rejects;
          Alcotest.test_case "compiled faster" `Quick test_dpf_compiled_faster;
          QCheck_alcotest.to_alcotest prop_dpf_compiled_equals_reference;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "ash commit consumes" `Quick
            test_kernel_ash_commit_consumes;
          Alcotest.test_case "abort falls back" `Quick
            test_kernel_abort_falls_back_to_user;
          Alcotest.test_case "killed falls back" `Quick
            test_kernel_killed_handler_falls_back;
          Alcotest.test_case "upcall runs" `Quick test_kernel_upcall_runs_handler;
          Alcotest.test_case "mechanism ordering" `Quick
            test_kernel_ash_faster_than_user;
          Alcotest.test_case "suspended penalty" `Quick
            test_kernel_suspended_costs_more_for_user_only;
          Alcotest.test_case "rebind" `Quick test_kernel_rebind_changes_mode;
          Alcotest.test_case "commit hook" `Quick test_kernel_commit_hook_fires;
          Alcotest.test_case "eth filter dispatch" `Quick
            test_kernel_eth_filter_dispatch;
          Alcotest.test_case "an2 unbound drops" `Quick
            test_kernel_an2_unbound_drops;
          Alcotest.test_case "eth pktbuf exhaustion" `Quick
            test_kernel_eth_pktbuf_exhaustion;
          Alcotest.test_case "sandbox stats" `Quick
            test_kernel_ash_sandbox_stats_exposed;
          Alcotest.test_case "download rejects" `Quick
            test_kernel_download_rejects_bad_program;
          Alcotest.test_case "ash rate limit" `Quick
            test_kernel_ash_rate_limit_falls_back;
          Alcotest.test_case "eth ash delivery" `Quick
            test_kernel_eth_ash_delivery;
          Alcotest.test_case "eth upcall delivery" `Quick
            test_kernel_eth_upcall_delivery;
          Alcotest.test_case "eth ash destriped view" `Quick
            test_kernel_eth_ash_sees_destriped_packet;
          Alcotest.test_case "rate limit resets" `Quick
            test_kernel_ash_rate_limit_resets_next_tick;
        ] );
      ( "handler-cache",
        [
          Alcotest.test_case "re-download shares artifact" `Quick
            test_kernel_handler_cache_shares_artifact;
          Alcotest.test_case "key includes policy" `Quick
            test_kernel_handler_cache_key_includes_policy;
          Alcotest.test_case "teardown evicts" `Quick
            test_kernel_teardown_evicts_cache;
          Alcotest.test_case "cached handler runs" `Quick
            test_kernel_cached_handler_still_runs;
        ] );
    ]

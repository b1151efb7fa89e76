(* Integration tests for Ash_core: the canonical handlers end to end,
   the experiment drivers, the reporting machinery, and the headline
   shape claims of the paper asserted as regressions. *)

module Fabric = Ash_core.Fabric
module Lab = Ash_core.Lab
module Report = Ash_core.Report
module Handlers = Ash_core.Handlers
module Kernel = Ash_kern.Kernel
module Memory = Ash_sim.Memory
module Machine = Ash_sim.Machine
module Engine = Ash_sim.Engine
module Stats = Ash_util.Stats
module Tcp = Ash_proto.Tcp
module Registry = Ash_core.Registry

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let test_report_deviation () =
  let r = Report.row ~label:"x" ~paper:100. ~measured:110. ~unit_:"us" () in
  (match Report.deviation r with
   | Some d -> Alcotest.(check (float 1e-9)) "ratio" 1.1 d
   | None -> Alcotest.fail "expected deviation");
  let r2 = Report.row ~label:"y" ~measured:5. ~unit_:"us" () in
  Alcotest.(check bool) "no paper value" true (Report.deviation r2 = None)

let test_report_markdown () =
  let t =
    { Report.id = "t"; title = "T";
      rows =
        [ Report.row ~label:"a" ~paper:1. ~measured:2. ~unit_:"x" ();
          Report.row ~label:"sandboxed ASH | suspended" ~measured:3.
            ~unit_:"us" () ];
      notes = [ "n" ] }
  in
  let md = Report.to_markdown t in
  Alcotest.(check bool) "has header" true
    (String.length md > 0 && String.sub md 0 3 = "###");
  Alcotest.(check bool) "mentions note" true
    (let rec find i =
       i + 1 <= String.length md - 1
       && (String.sub md i 1 = "n" || find (i + 1))
     in
     find 0);
  (* Five columns: every table line has six column separators, however
     many '|' its cells hold. *)
  let unescaped_bars line =
    let n = ref 0 in
    String.iteri
      (fun i c -> if c = '|' && (i = 0 || line.[i - 1] <> '\\') then incr n)
      line;
    !n
  in
  let rows =
    List.filter
      (fun l -> String.length l > 0 && l.[0] = '|')
      (String.split_on_char '\n' md)
  in
  Alcotest.(check int) "header, rule and two rows" 4 (List.length rows);
  List.iter
    (fun l -> Alcotest.(check int) l 6 (unescaped_bars l))
    rows

(* ------------------------------------------------------------------ *)
(* The back-to-back pair                                               *)
(* ------------------------------------------------------------------ *)

let test_pair_wiring () =
  let no_eth = Invalid_argument "Kernel.ethernet: no Ethernet NIC attached" in
  let no_switch =
    Invalid_argument "Fabric.switch: a back-to-back pair has no switch"
  in
  let tb = Fabric.pair () in
  Alcotest.(check int) "two hosts" 2 (Fabric.hosts tb);
  for h = 0 to 1 do
    let k = (Fabric.host tb h).Fabric.kernel in
    Alcotest.check_raises (Printf.sprintf "host %d: no Ethernet" h) no_eth
      (fun () -> ignore (Kernel.ethernet k));
    Alcotest.(check bool) (Printf.sprintf "host %d: no ARP" h) true
      (Option.is_none (Fabric.host tb h).Fabric.arp)
  done;
  Alcotest.check_raises "no switch" no_switch (fun () ->
      ignore (Fabric.switch tb));
  Alcotest.check_raises "no ARP to warm"
    (Invalid_argument "Fabric.warm_arp: a back-to-back pair has no ARP")
    (fun () -> Fabric.warm_arp tb ~server:0);
  let tb = Fabric.pair ~ethernet:true () in
  let eth h = Kernel.ethernet (Fabric.host tb h).Fabric.kernel in
  Alcotest.(check bool) "each host has its own Ethernet NIC" true
    (eth 0 != eth 1);
  Alcotest.check_raises "still no switch" no_switch (fun () ->
      ignore (Fabric.switch tb))

(* ------------------------------------------------------------------ *)
(* Handlers end to end                                                 *)
(* ------------------------------------------------------------------ *)

let test_remote_increment_applies_delta () =
  let tb = Fabric.pair () in
  let server = Fabric.host tb 0 in
  let slot = Fabric.alloc server ~name:"slot" 8 in
  let mem = Machine.mem (Kernel.machine server.Fabric.kernel) in
  Memory.store32 mem slot.Memory.base 40;
  (match
     Kernel.download_ash server.Fabric.kernel
       (Handlers.remote_increment ~slot_addr:slot.Memory.base)
   with
   | Ok id -> Kernel.bind_vc server.Fabric.kernel ~vc:7 (Kernel.Deliver_ash id)
   | Error e -> Alcotest.failf "rejected: %a" Ash_vm.Verify.pp_error e);
  Kernel.set_auto_repost server.Fabric.kernel ~vc:7 true;
  Fabric.post_buffers server ~vc:7 ~count:2 ~size:64;
  let req = Bytes.create 8 in
  Ash_util.Bytesx.set_u32 req 0 0xA5A5A5A5;
  Ash_util.Bytesx.set_u32 req 4 2;
  Kernel.kernel_send (Fabric.host tb 1).Fabric.kernel ~vc:7 req;
  Fabric.run tb;
  Alcotest.(check int) "40 + 2" 42 (Memory.load32 mem slot.Memory.base)

let test_dilp_deposit_handler () =
  let tb = Fabric.pair () in
  let server = Fabric.host tb 0 in
  let dst = Fabric.alloc server ~name:"deposit" 4096 in
  let pl = Ash_pipes.Pipe.Pipelist.create () in
  ignore (Ash_pipes.Pipelib.identity pl);
  let compiled = Ash_pipes.Dilp.compile pl Ash_pipes.Dilp.Write in
  let dilp_id = Kernel.register_dilp server.Fabric.kernel compiled in
  (match
     Kernel.download_ash server.Fabric.kernel
       (Handlers.dilp_deposit ~dilp_id ~dst_addr:dst.Memory.base)
   with
   | Ok id -> Kernel.bind_vc server.Fabric.kernel ~vc:7 (Kernel.Deliver_ash id)
   | Error e -> Alcotest.failf "rejected: %a" Ash_vm.Verify.pp_error e);
  Kernel.set_auto_repost server.Fabric.kernel ~vc:7 true;
  Fabric.post_buffers server ~vc:7 ~count:2 ~size:256;
  let payload = Bytes.create 128 in
  Ash_util.Rng.fill_bytes (Ash_util.Rng.create 8) payload;
  Kernel.kernel_send (Fabric.host tb 1).Fabric.kernel ~vc:7 payload;
  Fabric.run tb;
  Alcotest.(check string) "message vectored to destination"
    (Bytes.to_string payload)
    (Memory.read_string
       (Machine.mem (Kernel.machine server.Fabric.kernel))
       ~addr:dst.Memory.base ~len:128)

let test_pingpong_client_terminates () =
  let us = Lab.inkernel_pingpong ~iters:5 () in
  Alcotest.(check bool)
    (Printf.sprintf "in-kernel roundtrip ~108 us (got %.1f)" us)
    true
    (us > 100. && us < 120.)

(* ------------------------------------------------------------------ *)
(* The CRL-style DSM (sec VII)                                          *)
(* ------------------------------------------------------------------ *)

module Dsm = Ash_core.Dsm

let dsm_fixture () =
  let tb = Fabric.pair () in
  let srv = Dsm.serve (Fabric.host tb 0) ~vc:8 ~segments:3 ~segment_size:1024 in
  (* The exporting application plays no part: suspend it. *)
  Kernel.set_app_state (Fabric.host tb 0).Fabric.kernel Kernel.Suspended;
  let cl = Dsm.connect (Fabric.host tb 1) ~vc:8 in
  (tb, srv, cl)

let test_dsm_write_then_read_roundtrip () =
  let tb, srv, cl = dsm_fixture () in
  let payload = Bytes.of_string "remote memory over handlers!" in
  let wrote = ref false and got = ref None in
  Dsm.write cl ~seg:1 ~off:64 ~data:payload (fun ok -> wrote := ok);
  Dsm.read cl ~seg:1 ~off:64 ~len:(Bytes.length payload) (fun r -> got := r);
  Fabric.run tb;
  Alcotest.(check bool) "write acked" true !wrote;
  (match !got with
   | Some b ->
     Alcotest.(check string) "read back" (Bytes.to_string payload)
       (Bytes.to_string b)
   | None -> Alcotest.fail "read failed");
  (* And it really is the exported segment. *)
  let mem = Machine.mem (Kernel.machine (Fabric.host tb 0).Fabric.kernel) in
  Alcotest.(check string) "segment contents"
    (Bytes.to_string payload)
    (Memory.read_string mem
       ~addr:(Dsm.segment_addr srv ~seg:1 + 64)
       ~len:(Bytes.length payload))

let test_dsm_lock_protocol () =
  let tb, srv, cl = dsm_fixture () in
  let acq1 = ref false and acq2 = ref true and acq3 = ref false in
  Dsm.lock cl ~seg:0 ~owner:7 (fun ok -> acq1 := ok);
  Dsm.lock cl ~seg:0 ~owner:9 (fun ok -> acq2 := ok);
  Fabric.run tb;
  Alcotest.(check bool) "first acquisition wins" true !acq1;
  Alcotest.(check bool) "second refused" false !acq2;
  Alcotest.(check int) "holder recorded" 7 (Dsm.lock_holder srv ~seg:0);
  Dsm.unlock cl ~seg:0 (fun _ -> ());
  Dsm.lock cl ~seg:0 ~owner:9 (fun ok -> acq3 := ok);
  Fabric.run tb;
  Alcotest.(check bool) "free after unlock" true !acq3;
  Alcotest.(check int) "new holder" 9 (Dsm.lock_holder srv ~seg:0)

let test_dsm_segments_isolated () =
  let tb, srv, cl = dsm_fixture () in
  Dsm.write cl ~seg:0 ~off:0 ~data:(Bytes.make 16 'A') (fun _ -> ());
  Dsm.write cl ~seg:2 ~off:0 ~data:(Bytes.make 16 'C') (fun _ -> ());
  Fabric.run tb;
  let mem = Machine.mem (Kernel.machine (Fabric.host tb 0).Fabric.kernel) in
  Alcotest.(check string) "seg 0" (String.make 16 'A')
    (Memory.read_string mem ~addr:(Dsm.segment_addr srv ~seg:0) ~len:16);
  Alcotest.(check string) "seg 1 untouched" (String.make 16 '\000')
    (Memory.read_string mem ~addr:(Dsm.segment_addr srv ~seg:1) ~len:16);
  Alcotest.(check string) "seg 2" (String.make 16 'C')
    (Memory.read_string mem ~addr:(Dsm.segment_addr srv ~seg:2) ~len:16)

let test_dsm_out_of_bounds_rejected () =
  let tb, srv, cl = dsm_fixture () in
  ignore srv;
  (* Out-of-bounds write: the handler aborts; no reply, no damage. *)
  let fired = ref false in
  Dsm.write cl ~seg:0 ~off:1020 ~data:(Bytes.make 16 'X') (fun _ ->
      fired := true);
  Fabric.run tb;
  Alcotest.(check bool) "no reply for rejected op" false !fired;
  let ks = Kernel.stats (Fabric.host tb 0).Fabric.kernel in
  Alcotest.(check bool) "handler aborted" true
    (ks.Kernel.ash_aborted_voluntary >= 1)

let test_dsm_server_app_never_runs () =
  let tb, _, cl = dsm_fixture () in
  let done_ = ref 0 in
  for i = 0 to 9 do
    Dsm.write cl ~seg:0 ~off:(i * 8) ~data:(Bytes.make 8 'z') (fun _ ->
        incr done_)
  done;
  Fabric.run tb;
  Alcotest.(check int) "all ten acked" 10 !done_;
  let k = (Fabric.host tb 0).Fabric.kernel in
  Alcotest.(check int) "zero user-level deliveries" 0
    (Ash_obs.Hop.frames_out (Kernel.an2_hops k).Kernel.notify);
  Alcotest.(check int) "all in the kernel" 10
    (Kernel.stats k).Kernel.ash_committed

(* ------------------------------------------------------------------ *)
(* Shape regressions: the paper's headline claims                       *)
(* ------------------------------------------------------------------ *)

let test_shape_table5 () =
  let m mode = (Lab.raw_pingpong mode).Stats.mean in
  let unsafe = m (Lab.Srv_ash { sandbox = false }) in
  let sand = m (Lab.Srv_ash { sandbox = true }) in
  let upcall = m Lab.Srv_upcall in
  let user = m Lab.Srv_user in
  (* Table V's polling row ordering. *)
  Alcotest.(check bool)
    (Printf.sprintf "ASH %.0f < %.0f < user %.0f < upcall %.0f" unsafe sand
       user upcall)
    true
    (unsafe < sand && sand < user && user < upcall)

let test_shape_suspended_gap () =
  (* Suspended user-level pays ~65 us; ASHs are flat (Table V). *)
  let u_p = (Lab.raw_pingpong Lab.Srv_user).Stats.mean in
  let u_s = (Lab.raw_pingpong ~server_suspended:true Lab.Srv_user).Stats.mean in
  let gap = u_s -. u_p in
  Alcotest.(check bool)
    (Printf.sprintf "wakeup gap %.0f in [55, 75]" gap)
    true
    (gap > 55. && gap < 75.)

let test_shape_fig4_flatness () =
  let ash n =
    (fst
       (Lab.remote_increment ~iters:20 ~nprocs:n
          (Lab.Srv_ash { sandbox = true })))
      .Stats.mean
  in
  let user n =
    (fst (Lab.remote_increment ~iters:20 ~nprocs:n Lab.Srv_user)).Stats.mean
  in
  let a1 = ash 1 and a8 = ash 8 in
  let u1 = user 1 and u8 = user 8 in
  Alcotest.(check bool)
    (Printf.sprintf "ASH flat: %.0f vs %.0f" a1 a8)
    true
    (abs_float (a8 -. a1) < 10.);
  Alcotest.(check bool)
    (Printf.sprintf "user grows: %.0f -> %.0f" u1 u8)
    true
    (u8 > u1 +. 200.)

let test_shape_ilp_wins () =
  let sep = Ash_core.Exp_ilp.separate ~uncached:false ~bswap:false () in
  let fused = Ash_core.Exp_ilp.dilp ~bswap:false () in
  Alcotest.(check bool)
    (Printf.sprintf "DILP %.1f > 1.3x separate %.1f" fused sep)
    true
    (fused > 1.3 *. sep)

let test_shape_sandbox_amortizes () =
  let r40 =
    Ash_core.Exp_sandbox.overhead_ratio ~variant:Ash_core.Exp_sandbox.Specific
      ~payload_len:40
  in
  let r4k =
    Ash_core.Exp_sandbox.overhead_ratio ~variant:Ash_core.Exp_sandbox.Specific
      ~payload_len:4096
  in
  Alcotest.(check bool)
    (Printf.sprintf "overhead shrinks with size: %.2f -> %.3f" r40 r4k)
    true
    (r40 > 1.15 && r4k < 1.05)

let test_shape_specific_beats_generic () =
  let insns variant sandboxed =
    (Ash_core.Exp_sandbox.run_once ~variant ~sandboxed ~payload_len:40 ())
      .Ash_vm.Interp.insns
  in
  let specific_sandboxed = insns Ash_core.Exp_sandbox.Specific true in
  let generic_unsafe = insns Ash_core.Exp_sandbox.Generic false in
  Alcotest.(check bool)
    (Printf.sprintf "specific sandboxed (%d) < generic unsafe (%d)"
       specific_sandboxed generic_unsafe)
    true
    (specific_sandboxed < generic_unsafe)

let test_shape_tcp_fastpath_gains_when_suspended () =
  let lat mode =
    Lab.tcp_latency ~mode ~checksum:true ~suspended:true ~iters:6 ()
  in
  let ash = lat (Tcp.Fast_ash { sandbox = true }) in
  let user = lat Tcp.Library in
  Alcotest.(check bool)
    (Printf.sprintf "ASH %.0f at least 50 us under user %.0f" ash user)
    true
    (user -. ash > 50.)

let test_shape_small_mss_amplifies_handler_benefit () =
  (* §V-B: with a smaller MSS, handler benefits roughly double. *)
  let tput mode mss chunk =
    fst
      (Lab.tcp_throughput ~mode ~checksum:true ~in_place:false ~mss ~chunk
         ~total:(512 * 1024) ~suspended:true ())
  in
  let gain mss chunk =
    tput (Tcp.Fast_ash { sandbox = true }) mss chunk
    /. tput Tcp.Library mss chunk
  in
  let big = gain 3072 8192 in
  let small = gain 536 4096 in
  Alcotest.(check bool)
    (Printf.sprintf "small-MSS gain %.2f > large-MSS gain %.2f" small big)
    true (small > big)

(* ------------------------------------------------------------------ *)
(* Experiment smoke tests (each produces a well-formed table)           *)
(* ------------------------------------------------------------------ *)

let smoke name f () =
  let t = f () in
  Alcotest.(check bool) (name ^ " has rows") true (List.length t.Report.rows > 0);
  List.iter
    (fun r ->
       Alcotest.(check bool)
         (Printf.sprintf "%s/%s finite" name r.Report.label)
         true
         (Float.is_finite r.Report.measured))
    t.Report.rows

(* ------------------------------------------------------------------ *)
(* Experiment registry                                                 *)
(* ------------------------------------------------------------------ *)

let ids = List.map (fun (e : Registry.t) -> e.id) Registry.all

let test_registry_ids_unique () =
  Alcotest.(check int) "no duplicate ids" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun id ->
       match Registry.find id with
       | Some e -> Alcotest.(check string) "find round-trips" id e.Registry.id
       | None -> Alcotest.failf "find %S" id)
    ids;
  Alcotest.(check bool) "unknown id" true (Registry.find "table7" = None);
  Alcotest.(check bool) "select rejects unknown" true
    (Result.is_error (Registry.select [ "table1"; "table7" ]))

(* Every experiment keeps its id, so golden lines, CI invocations and
   scripts that name experiments stay valid. *)
let test_registry_keeps_ids () =
  List.iter
    (fun id -> Alcotest.(check bool) id true (List.mem id ids))
    [ "table1"; "fig3"; "table2"; "table3"; "table4"; "table5"; "table6";
      "fig4"; "sandbox"; "dpf"; "demux"; "dilp-scaling"; "striped";
      "absint"; "chaos"; "exp_scale"; "exp_multicore"; "exp_mq" ]

let test_registry_self_check () =
  let get id = Option.get (Registry.find id) in
  let bare =
    { Report.id = "exp_mq"; title = "T"; rows = []; notes = [ "n" ] }
  in
  Alcotest.(check bool) "missing marker fails" true
    (Result.is_error (Registry.self_check (get "exp_mq") bare));
  let table1 = get "table1" in
  Alcotest.(check bool) "table1 passes" true
    (Registry.self_check table1 (table1.Registry.table ()) = Ok ())

let () =
  Alcotest.run "ash_core"
    [
      ( "report",
        [
          Alcotest.test_case "deviation" `Quick test_report_deviation;
          Alcotest.test_case "markdown" `Quick test_report_markdown;
        ] );
      ( "fabric",
        [ Alcotest.test_case "pair wiring" `Quick test_pair_wiring ] );
      ( "handlers",
        [
          Alcotest.test_case "remote increment" `Quick
            test_remote_increment_applies_delta;
          Alcotest.test_case "dilp deposit" `Quick test_dilp_deposit_handler;
          Alcotest.test_case "in-kernel pingpong" `Quick
            test_pingpong_client_terminates;
        ] );
      ( "dsm",
        [
          Alcotest.test_case "write/read roundtrip" `Quick
            test_dsm_write_then_read_roundtrip;
          Alcotest.test_case "lock protocol" `Quick test_dsm_lock_protocol;
          Alcotest.test_case "segment isolation" `Quick
            test_dsm_segments_isolated;
          Alcotest.test_case "bounds rejected" `Quick
            test_dsm_out_of_bounds_rejected;
          Alcotest.test_case "server app never runs" `Quick
            test_dsm_server_app_never_runs;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "table5 ordering" `Quick test_shape_table5;
          Alcotest.test_case "suspended gap" `Quick test_shape_suspended_gap;
          Alcotest.test_case "fig4 flatness" `Quick test_shape_fig4_flatness;
          Alcotest.test_case "ilp wins" `Quick test_shape_ilp_wins;
          Alcotest.test_case "sandbox amortizes" `Quick
            test_shape_sandbox_amortizes;
          Alcotest.test_case "specific beats generic" `Quick
            test_shape_specific_beats_generic;
          Alcotest.test_case "tcp fastpath gains" `Quick
            test_shape_tcp_fastpath_gains_when_suspended;
          Alcotest.test_case "small mss amplifies" `Slow
            test_shape_small_mss_amplifies_handler_benefit;
        ] );
      ( "experiment smoke",
        [
          Alcotest.test_case "table1" `Quick
            (smoke "table1" Ash_core.Exp_raw.table1);
          Alcotest.test_case "table3" `Quick
            (smoke "table3" Ash_core.Exp_memory.table3);
          Alcotest.test_case "table4" `Quick
            (smoke "table4" Ash_core.Exp_ilp.table4);
          Alcotest.test_case "table5" `Quick
            (smoke "table5" Ash_core.Exp_ash.table5);
          Alcotest.test_case "sec V-D" `Quick
            (smoke "sec5D" Ash_core.Exp_sandbox.section_vd);
          Alcotest.test_case "dpf ablation" `Quick
            (smoke "dpf" Ash_core.Exp_ablate.dpf);
        ] );
      ( "registry",
        [
          Alcotest.test_case "ids unique" `Quick test_registry_ids_unique;
          Alcotest.test_case "keeps harness ids" `Quick
            test_registry_keeps_ids;
          Alcotest.test_case "self-check" `Quick test_registry_self_check;
        ] );
    ]

(* Tests for Ash_nic: link serialization, AN2 VC demux and buffer
   management, CRC behaviour, Ethernet striping and ring limits. *)

module Engine = Ash_sim.Engine
module Machine = Ash_sim.Machine
module Memory = Ash_sim.Memory
module Costs = Ash_sim.Costs
module Link = Ash_nic.Link
module An2 = Ash_nic.An2
module Ethernet = Ash_nic.Ethernet
module Hop = Ash_obs.Hop
module Trace = Ash_obs.Trace

let costs = Costs.decstation

(* ------------------------------------------------------------------ *)
(* Link                                                                *)
(* ------------------------------------------------------------------ *)

(* The wire timing depends on [wire_bytes] alone; no plan is installed,
   so the frame itself crosses untouched. *)
let send l ~bytes k =
  Link.transmit l ~wire_bytes:bytes ~frame:Bytes.empty (fun _ -> k ())

let test_link_latency () =
  let e = Engine.create () in
  let l = Link.create e ~nic:"test" ~fixed_ns:1000 ~ns_per_byte:10.0 () in
  let arrival = ref 0 in
  send l ~bytes:100 (fun () -> arrival := Engine.now e);
  Engine.run e;
  (* 100 bytes * 10 ns + 1000 ns fixed *)
  Alcotest.(check int) "arrival" 2000 !arrival

let test_link_serializes () =
  let e = Engine.create () in
  let l = Link.create e ~nic:"test" ~fixed_ns:0 ~ns_per_byte:10.0 () in
  let arrivals = ref [] in
  for _ = 1 to 3 do
    send l ~bytes:100 (fun () ->
        arrivals := Engine.now e :: !arrivals)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "back-to-back frames queue"
    [ 1000; 2000; 3000 ] (List.rev !arrivals)

let test_link_occupancy () =
  let e = Engine.create () in
  let l =
    Link.create e ~nic:"test" ~pkt_occupancy_ns:500 ~fixed_ns:1000
      ~ns_per_byte:10.0 ()
  in
  let arrivals = ref [] in
  for _ = 1 to 2 do
    send l ~bytes:10 (fun () -> arrivals := Engine.now e :: !arrivals)
  done;
  Engine.run e;
  (* each frame occupies 500+100 ns; fixed 1000 pipelined *)
  Alcotest.(check (list int)) "occupancy serialized" [ 1600; 2200 ]
    (List.rev !arrivals)

let test_link_idle_gap () =
  let e = Engine.create () in
  let l = Link.create e ~nic:"test" ~fixed_ns:0 ~ns_per_byte:10.0 () in
  let arrivals = ref [] in
  send l ~bytes:10 (fun () -> arrivals := Engine.now e :: !arrivals);
  ignore
    (Engine.schedule e ~delay:5000 (fun () ->
         send l ~bytes:10 (fun () ->
             arrivals := Engine.now e :: !arrivals)));
  Engine.run e;
  Alcotest.(check (list int)) "no queueing across idle gaps" [ 100; 5100 ]
    (List.rev !arrivals)

(* ------------------------------------------------------------------ *)
(* AN2                                                                 *)
(* ------------------------------------------------------------------ *)

type an2_pair = {
  engine : Engine.t;
  ma : Machine.t;
  mb : Machine.t;
  a : An2.t;
  b : An2.t;
}

let an2_pair () =
  let engine = Engine.create () in
  let ma = Machine.create costs and mb = Machine.create costs in
  let a = An2.create engine ma and b = An2.create engine mb in
  An2.connect a b;
  { engine; ma; mb; a; b }

let post p nic machine len =
  ignore p;
  let r = Memory.alloc (Machine.mem machine) len in
  An2.post_buffer nic ~vc:1 ~addr:r.Memory.base ~len:r.Memory.len;
  r

let test_an2_delivery () =
  let p = an2_pair () in
  An2.bind_vc p.b ~vc:1;
  let buf = post p p.b p.mb 64 in
  let got = ref None in
  An2.set_rx_handler p.b (fun rx -> got := Some rx);
  An2.transmit p.a ~vc:1 (Bytes.of_string "hello an2");
  Engine.run p.engine;
  match !got with
  | Some rx ->
    Alcotest.(check int) "vc" 1 rx.An2.vc;
    Alcotest.(check int) "len" 9 rx.An2.len;
    Alcotest.(check int) "landed in posted buffer" buf.Memory.base rx.An2.addr;
    Alcotest.(check int) "capacity reported" 64 rx.An2.buf_len;
    Alcotest.(check bool) "crc ok" true rx.An2.crc_ok;
    Alcotest.(check string) "content DMA'ed" "hello an2"
      (Memory.read_string (Machine.mem p.mb) ~addr:rx.An2.addr ~len:9)
  | None -> Alcotest.fail "no delivery"

let test_an2_latency_calibration () =
  (* A 4-byte frame must take ~48 us one way (occupancy + fixed). *)
  let p = an2_pair () in
  An2.bind_vc p.b ~vc:1;
  ignore (post p p.b p.mb 64);
  let arrival = ref 0 in
  An2.set_rx_handler p.b (fun _ -> arrival := Engine.now p.engine);
  An2.transmit p.a ~vc:1 (Bytes.make 4 'x');
  Engine.run p.engine;
  let us = Ash_sim.Time.us_of_ns !arrival in
  Alcotest.(check bool)
    (Printf.sprintf "one-way ~48 us (got %.1f)" us)
    true
    (us > 45. && us < 52.)

let test_an2_unbound_vc_drops () =
  let p = an2_pair () in
  An2.bind_vc p.b ~vc:1;
  ignore (post p p.b p.mb 64);
  An2.transmit p.a ~vc:2 (Bytes.make 4 'x');
  Engine.run p.engine;
  let hop = An2.rx_hop p.b in
  Balance.check [ ("an2 b rx", hop) ];
  Alcotest.(check int) "dropped no vc" 1 (Hop.dropped hop Trace.No_vc);
  Alcotest.(check int) "not delivered" 0 (Hop.frames_out hop)

let test_an2_no_buffer_drops () =
  let p = an2_pair () in
  An2.bind_vc p.b ~vc:1;
  An2.transmit p.a ~vc:1 (Bytes.make 4 'x');
  Engine.run p.engine;
  Balance.check [ ("an2 b rx", An2.rx_hop p.b) ];
  Alcotest.(check int) "dropped no buffer" 1
    (Hop.dropped (An2.rx_hop p.b) Trace.No_buffer)

let test_an2_buffers_fifo () =
  let p = an2_pair () in
  An2.bind_vc p.b ~vc:1;
  let b1 = post p p.b p.mb 64 in
  let b2 = post p p.b p.mb 64 in
  let landed = ref [] in
  An2.set_rx_handler p.b (fun rx -> landed := rx.An2.addr :: !landed);
  An2.transmit p.a ~vc:1 (Bytes.make 4 'x');
  An2.transmit p.a ~vc:1 (Bytes.make 4 'y');
  Engine.run p.engine;
  Alcotest.(check (list int)) "fifo buffer use"
    [ b1.Memory.base; b2.Memory.base ]
    (List.rev !landed);
  Alcotest.(check int) "buffers consumed" 0 (An2.free_buffers p.b ~vc:1)

let test_an2_oversize_frame_dropped () =
  let p = an2_pair () in
  An2.bind_vc p.b ~vc:1;
  ignore (post p p.b p.mb 16);
  let delivered = ref false in
  An2.set_rx_handler p.b (fun _ -> delivered := true);
  An2.transmit p.a ~vc:1 (Bytes.make 64 'z');
  Engine.run p.engine;
  Alcotest.(check bool) "not delivered" false !delivered;
  let hop = An2.rx_hop p.b in
  Balance.check [ ("an2 b rx", hop) ];
  Alcotest.(check int) "dropped too big" 1 (Hop.dropped hop Trace.Too_big);
  Alcotest.(check int) "not a no-buffer drop" 0
    (Hop.dropped hop Trace.No_buffer)

(* At 16 bytes the CRC runs bytewise; at 3 KiB the flipped middle byte
   lies in the prefix the carry-less fold takes on a PCLMULQDQ host. *)
let test_an2_crc_catches_corruption () =
  List.iter
    (fun size ->
       let p = an2_pair () in
       An2.bind_vc p.b ~vc:1;
       ignore (post p p.b p.mb size);
       ignore (post p p.b p.mb size);
       let crc_flags = ref [] in
       An2.set_rx_handler p.b (fun rx ->
           crc_flags := rx.An2.crc_ok :: !crc_flags);
       An2.corrupt_next_frame p.a;
       An2.transmit p.a ~vc:1 (Bytes.make size 'x');
       An2.transmit p.a ~vc:1 (Bytes.make size 'x');
       Engine.run p.engine;
       let name = Printf.sprintf "%d B: " size in
       Alcotest.(check (list bool)) (name ^ "first corrupt, second clean")
         [ false; true ] (List.rev !crc_flags);
       Alcotest.(check int) (name ^ "crc error counted") 1
         (An2.rx_crc_errors p.b))
    [ 16; 3072 ]

let test_an2_rejects_bad_frames () =
  let p = an2_pair () in
  Alcotest.check_raises "empty" (Invalid_argument "An2.transmit: bad frame length")
    (fun () -> An2.transmit p.a ~vc:1 Bytes.empty);
  Alcotest.check_raises "oversize"
    (Invalid_argument "An2.transmit: bad frame length") (fun () ->
      An2.transmit p.a ~vc:1 (Bytes.create 5000))

let test_an2_double_bind_rejected () =
  let p = an2_pair () in
  An2.bind_vc p.b ~vc:1;
  Alcotest.check_raises "double bind"
    (Invalid_argument "An2.bind_vc: already bound") (fun () ->
      An2.bind_vc p.b ~vc:1)

(* ------------------------------------------------------------------ *)
(* Ethernet                                                            *)
(* ------------------------------------------------------------------ *)

type eth_pair = {
  e_engine : Engine.t;
  e_ma : Machine.t;
  e_mb : Machine.t;
  ea : Ethernet.t;
  eb : Ethernet.t;
}

let eth_pair () =
  let e_engine = Engine.create () in
  let e_ma = Machine.create costs and e_mb = Machine.create costs in
  let ea = Ethernet.create e_engine e_ma
  and eb = Ethernet.create e_engine e_mb in
  Ethernet.connect ea eb;
  { e_engine; e_ma; e_mb; ea; eb }

let test_eth_striped_dma () =
  let p = eth_pair () in
  let got = ref None in
  Ethernet.set_rx_handler p.eb (fun rx -> got := Some rx);
  let payload = Bytes.of_string (String.init 40 (fun i -> Char.chr (i + 65))) in
  Ethernet.transmit p.ea payload;
  Engine.run p.e_engine;
  match !got with
  | None -> Alcotest.fail "no delivery"
  | Some rx ->
    let mem = Machine.mem p.e_mb in
    Alcotest.(check int) "len" 40 rx.Ethernet.len;
    (* Striping: 16 data, 16 pad, 16 data, ... *)
    Alcotest.(check string) "first chunk at offset 0"
      (String.init 16 (fun i -> Char.chr (i + 65)))
      (Memory.read_string mem ~addr:rx.Ethernet.ring_addr ~len:16);
    Alcotest.(check string) "second chunk at offset 32"
      (String.init 16 (fun i -> Char.chr (i + 81)))
      (Memory.read_string mem ~addr:(rx.Ethernet.ring_addr + 32) ~len:16)

let test_eth_destripe () =
  let p = eth_pair () in
  let got = ref None in
  Ethernet.set_rx_handler p.eb (fun rx -> got := Some rx);
  let payload = Bytes.create 100 in
  Ash_util.Rng.fill_bytes (Ash_util.Rng.create 5) payload;
  Ethernet.transmit p.ea payload;
  Engine.run p.e_engine;
  match !got with
  | None -> Alcotest.fail "no delivery"
  | Some rx ->
    let dst = Memory.alloc (Machine.mem p.e_mb) 128 in
    Ethernet.destripe p.eb rx ~dst:dst.Memory.base;
    Alcotest.(check string) "destriped content" (Bytes.to_string payload)
      (Memory.read_string (Machine.mem p.e_mb) ~addr:dst.Memory.base ~len:100)

let test_eth_ring_exhaustion () =
  let p = eth_pair () in
  (* Consume the whole ring without releasing. *)
  let seen = ref 0 in
  Ethernet.set_rx_handler p.eb (fun _ -> incr seen);
  for _ = 1 to costs.Costs.eth_rx_ring_slots + 3 do
    Ethernet.transmit p.ea (Bytes.make 32 'q')
  done;
  Engine.run p.e_engine;
  Balance.check [ ("eth b rx", Ethernet.rx_hop p.eb) ];
  Alcotest.(check int) "ring-limited deliveries" costs.Costs.eth_rx_ring_slots
    !seen;
  Alcotest.(check int) "overflow dropped" 3
    (Hop.dropped (Ethernet.rx_hop p.eb) Trace.No_buffer)

let test_eth_release_recycles () =
  let p = eth_pair () in
  Ethernet.set_rx_handler p.eb (fun rx ->
      Ethernet.release_buffer p.eb ~ring_addr:rx.Ethernet.ring_addr);
  for _ = 1 to costs.Costs.eth_rx_ring_slots + 5 do
    Ethernet.transmit p.ea (Bytes.make 32 'q')
  done;
  Engine.run p.e_engine;
  Alcotest.(check int) "all delivered when released"
    (costs.Costs.eth_rx_ring_slots + 5)
    (Hop.frames_out (Ethernet.rx_hop p.eb));
  Alcotest.(check int) "nothing outstanding" 0
    (Ethernet.outstanding_buffers p.eb)

let test_eth_release_validation () =
  let p = eth_pair () in
  Alcotest.check_raises "not a slot"
    (Invalid_argument "Ethernet.release_buffer: not a ring slot") (fun () ->
      Ethernet.release_buffer p.eb ~ring_addr:0xdead);
  let got = ref None in
  Ethernet.set_rx_handler p.eb (fun rx -> got := Some rx);
  Ethernet.transmit p.ea (Bytes.make 8 'x');
  Engine.run p.e_engine;
  match !got with
  | None -> Alcotest.fail "no rx"
  | Some rx ->
    Ethernet.release_buffer p.eb ~ring_addr:rx.Ethernet.ring_addr;
    Alcotest.check_raises "double release"
      (Invalid_argument "Ethernet.release_buffer: buffer not outstanding")
      (fun () -> Ethernet.release_buffer p.eb ~ring_addr:rx.Ethernet.ring_addr)

let test_eth_wire_slower_than_an2 () =
  (* 10 Mb/s: a 1500-byte frame takes >1.2 ms one way. *)
  let p = eth_pair () in
  let arrival = ref 0 in
  Ethernet.set_rx_handler p.eb (fun _ -> arrival := Engine.now p.e_engine);
  Ethernet.transmit p.ea (Bytes.make 1400 'd');
  Engine.run p.e_engine;
  Alcotest.(check bool) "ethernet is slow" true
    (Ash_sim.Time.ms_of_ns !arrival > 1.0)

let test_eth_crc () =
  List.iter
    (fun size ->
       let p = eth_pair () in
       let flags = ref [] in
       Ethernet.set_rx_handler p.eb (fun rx ->
           flags := rx.Ethernet.crc_ok :: !flags;
           Ethernet.release_buffer p.eb ~ring_addr:rx.Ethernet.ring_addr);
       Ethernet.corrupt_next_frame p.ea;
       Ethernet.transmit p.ea (Bytes.make size 'x');
       Ethernet.transmit p.ea (Bytes.make size 'x');
       Engine.run p.e_engine;
       Alcotest.(check (list bool))
         (Printf.sprintf "%d B: corruption flagged" size)
         [ false; true ] (List.rev !flags))
    [ 32; 1500 ]

let () =
  Alcotest.run "ash_nic"
    [
      ( "link",
        [
          Alcotest.test_case "latency" `Quick test_link_latency;
          Alcotest.test_case "serializes" `Quick test_link_serializes;
          Alcotest.test_case "occupancy" `Quick test_link_occupancy;
          Alcotest.test_case "idle gap" `Quick test_link_idle_gap;
        ] );
      ( "an2",
        [
          Alcotest.test_case "delivery" `Quick test_an2_delivery;
          Alcotest.test_case "latency calibration" `Quick
            test_an2_latency_calibration;
          Alcotest.test_case "unbound vc drops" `Quick
            test_an2_unbound_vc_drops;
          Alcotest.test_case "no buffer drops" `Quick test_an2_no_buffer_drops;
          Alcotest.test_case "fifo buffers" `Quick test_an2_buffers_fifo;
          Alcotest.test_case "oversize dropped" `Quick
            test_an2_oversize_frame_dropped;
          Alcotest.test_case "crc catches corruption" `Quick
            test_an2_crc_catches_corruption;
          Alcotest.test_case "rejects bad frames" `Quick
            test_an2_rejects_bad_frames;
          Alcotest.test_case "double bind rejected" `Quick
            test_an2_double_bind_rejected;
        ] );
      ( "ethernet",
        [
          Alcotest.test_case "striped dma" `Quick test_eth_striped_dma;
          Alcotest.test_case "destripe" `Quick test_eth_destripe;
          Alcotest.test_case "ring exhaustion" `Quick test_eth_ring_exhaustion;
          Alcotest.test_case "release recycles" `Quick
            test_eth_release_recycles;
          Alcotest.test_case "release validation" `Quick
            test_eth_release_validation;
          Alcotest.test_case "wire speed" `Quick test_eth_wire_slower_than_an2;
          Alcotest.test_case "crc" `Quick test_eth_crc;
        ] );
    ]

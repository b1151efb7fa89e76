(* Ablation A1: DPF compiled filters vs an interpreted filter engine.
   §IV-A: "DPF is an order of magnitude faster than the highest
   performance packet filter engines in the literature" — the mechanism
   being compilation with constant specialization. We measure demux cost
   per packet as installed filters grow. *)

module Machine = Ash_sim.Machine
module Memory = Ash_sim.Memory
module Costs = Ash_sim.Costs
module Dpf = Ash_kern.Dpf
module Packet = Ash_proto.Packet
module Bytesx = Ash_util.Bytesx

(* A UDP datagram to [port], matched by [Packet.Udp.dst_port_filter]. *)
let mk_packet ~port =
  let b = Bytes.make 64 '\000' in
  Bytesx.set_u8 b Packet.Ip.off_proto Packet.Ip.proto_udp;
  Bytesx.set_u16 b (Packet.ip_header_len + Packet.Udp.off_dst_port) port;
  b

(* Demux one packet against n installed filters (worst case: match on
   the last), returning the cycles consumed. *)
let demux_cycles ~compiled ~nfilters =
  let m = Machine.create Costs.decstation in
  let mem = Machine.mem m in
  let pkt = mk_packet ~port:(7000 + nfilters - 1) in
  let buf = Memory.alloc mem ~name:"pkt" 64 in
  Memory.blit_from_bytes mem ~src:pkt ~src_off:0 ~dst:buf.Memory.base ~len:64;
  let filters =
    List.init nfilters (fun i -> Packet.Udp.dst_port_filter (7000 + i))
  in
  let programs =
    if compiled then List.map (fun f -> Some (Dpf.compile f)) filters
    else List.map (fun _ -> None) filters
  in
  ignore (Machine.take_ns m);
  let matched = ref false in
  List.iter2
    (fun f p ->
       if not !matched then
         matched :=
           (match p with
            | Some prog ->
              Dpf.run_compiled m prog ~msg_addr:buf.Memory.base ~msg_len:64
            | None ->
              Dpf.run_interpreted m f ~msg_addr:buf.Memory.base ~msg_len:64))
    filters programs;
  assert !matched;
  Machine.take_ns m

module Dpf_trie = Ash_kern.Dpf_trie

(* Same worst-case demux as [demux_cycles], but through the merged
   filter trie: the port filters share their protocol atom, so the walk
   tests the protocol once and dispatches on the port value — constant
   work in the number of installed filters. *)
let demux_cycles_trie ~nfilters =
  let m = Machine.create Costs.decstation in
  let mem = Machine.mem m in
  let pkt = mk_packet ~port:(7000 + nfilters - 1) in
  let buf = Memory.alloc mem ~name:"pkt" 64 in
  Memory.blit_from_bytes mem ~src:pkt ~src_off:0 ~dst:buf.Memory.base ~len:64;
  let trie = Dpf_trie.create () in
  List.iteri
    (fun i f -> Dpf_trie.insert trie ~prio:i f i)
    (List.init nfilters (fun i -> Packet.Udp.dst_port_filter (7000 + i)));
  ignore (Machine.take_ns m);
  let r = Dpf_trie.lookup trie m ~msg_addr:buf.Memory.base ~msg_len:64 in
  assert (r = Some (nfilters - 1));
  Machine.take_ns m

let demux_scaling () =
  let rows =
    List.concat_map
      (fun n ->
         let lin = demux_cycles ~compiled:true ~nfilters:n in
         let trie = demux_cycles_trie ~nfilters:n in
         [
           Report.row
             ~label:(Printf.sprintf "%2d filters | linear scan, compiled" n)
             ~measured:(Ash_sim.Time.us_of_ns lin) ~unit_:"us/pkt" ();
           Report.row
             ~label:(Printf.sprintf "%2d filters | merged trie" n)
             ~measured:(Ash_sim.Time.us_of_ns trie) ~unit_:"us/pkt" ();
         ])
      [ 1; 4; 16; 64 ]
  in
  {
    Report.id = "ablation-demux";
    title =
      "Ablation A4: Ethernet demux scaling in installed filters — \
       per-filter linear scan vs one merged-trie walk";
    rows;
    notes =
      [
        "worst-case packet (matches the last installed filter); the \
         trie merges the shared protocol atom so its walk is constant \
         in the number of port filters, while the linear scan runs \
         every filter's program";
        "with one installed filter the two charge identical cycles: the \
         trie walk is priced as the same compiled filter code, merely \
         merged";
      ];
  }

let dpf () =
  let rows =
    List.concat_map
      (fun n ->
         let c = demux_cycles ~compiled:true ~nfilters:n in
         let i = demux_cycles ~compiled:false ~nfilters:n in
         [
           Report.row
             ~label:(Printf.sprintf "%2d filters | compiled (DPF)" n)
             ~measured:(Ash_sim.Time.us_of_ns c) ~unit_:"us/pkt" ();
           Report.row
             ~label:(Printf.sprintf "%2d filters | interpreted" n)
             ~measured:(Ash_sim.Time.us_of_ns i) ~unit_:"us/pkt" ();
         ])
      [ 1; 4; 16; 64 ]
  in
  {
    Report.id = "ablation-dpf";
    title = "Ablation A1: packet demultiplexing, compiled vs interpreted";
    rows;
    notes =
      [
        "worst-case demux (match on the last installed filter); DPF's \
         claim is roughly an order of magnitude over interpreted engines";
      ];
  }

(* Ablation A3: interface-specific DILP back ends (sec III-C). For a
   striped Ethernet receive buffer, compare de-striping with the trusted
   copy engine and then running a contiguous DILP checksum pass (two
   traversals) against the striped DILP back end doing everything in one
   pass. *)

module Pipe = Ash_pipes.Pipe
module Pipelib = Ash_pipes.Pipelib
module Dilp = Ash_pipes.Dilp

let striped_source m ~len ~seed =
  let mem = Machine.mem m in
  let stripes = (len + 15) / 16 in
  let region = Memory.alloc mem ~name:"striped" (stripes * 32) in
  let payload = Bytes.create len in
  Ash_util.Rng.fill_bytes (Ash_util.Rng.create seed) payload;
  for s = 0 to stripes - 1 do
    let chunk = min 16 (len - (s * 16)) in
    Memory.blit_from_bytes mem ~src:payload ~src_off:(s * 16)
      ~dst:(region.Memory.base + (s * 32))
      ~len:chunk
  done;
  region.Memory.base

let striped_one_pass ~len () =
  let m = Machine.create Costs.decstation in
  let mem = Machine.mem m in
  let src = striped_source m ~len ~seed:31 in
  let dst = (Memory.alloc mem ~name:"dst" len).Memory.base in
  let pl = Pipe.Pipelist.create () in
  let _, acc = Pipelib.cksum32 pl in
  let c = Dilp.compile ~layout:Dilp.eth_striped pl Dilp.Write in
  Machine.flush_cache m;
  ignore (Machine.take_ns m);
  ignore (Dilp.execute_exn m c ~init:[ (acc, 0) ] ~src ~dst ~len);
  Ash_sim.Time.us_of_ns (Machine.take_ns m)

let destripe_then_dilp ~len () =
  let m = Machine.create Costs.decstation in
  let mem = Machine.mem m in
  let src = striped_source m ~len ~seed:31 in
  let mid = (Memory.alloc mem ~name:"mid" len).Memory.base in
  let dst = (Memory.alloc mem ~name:"dst" len).Memory.base in
  let pl = Pipe.Pipelist.create () in
  let _, acc = Pipelib.cksum32 pl in
  let c = Dilp.compile pl Dilp.Write in
  Machine.flush_cache m;
  ignore (Machine.take_ns m);
  Machine.destripe m ~src ~dst:mid ~len ~stripe:16;
  ignore (Dilp.execute_exn m c ~init:[ (acc, 0) ] ~src:mid ~dst ~len);
  Ash_sim.Time.us_of_ns (Machine.take_ns m)

(* Ablation A5: download-time abstract interpretation (§III-B). How
   much of the sandbox's added-instruction and cycle cost does the
   static analyzer recover on the remote-write handlers, and what does
   specializing the exit code (§V-D) add on top? *)

let absint () =
  let module S = Ash_vm.Sandbox in
  let module E = Exp_sandbox in
  let added ~absint ~specialize_exit variant =
    (E.sandbox_stats ~absint ~specialize_exit ~variant ()).S.added
  in
  let cycles ~absint ~specialize_exit variant =
    (E.run_once ~absint ~specialize_exit ~variant ~sandboxed:true
       ~payload_len:40 ())
      .Ash_vm.Interp.cycles
  in
  let variants =
    [ (E.Specific, "specific"); (E.Guarded, "guarded");
      (E.Generic, "generic") ]
  in
  let rows =
    List.concat_map
      (fun (v, vname) ->
         let plain_added = added ~absint:false ~specialize_exit:false v in
         let ai_added = added ~absint:true ~specialize_exit:false v in
         let full_added = added ~absint:true ~specialize_exit:true v in
         let plain_cyc = cycles ~absint:false ~specialize_exit:false v in
         let ai_cyc = cycles ~absint:true ~specialize_exit:false v in
         let full_cyc = cycles ~absint:true ~specialize_exit:true v in
         [
           Report.row
             ~label:(Printf.sprintf "%s | added insns, checks everywhere" vname)
             ~measured:(float_of_int plain_added) ~unit_:"insns" ();
           Report.row
             ~label:(Printf.sprintf "%s | added insns, absint" vname)
             ~measured:(float_of_int ai_added) ~unit_:"insns" ();
           Report.row
             ~label:
               (Printf.sprintf "%s | added insns, absint + specialized exit"
                  vname)
             ~measured:(float_of_int full_added) ~unit_:"insns" ();
           Report.row
             ~label:(Printf.sprintf "%s | 40 B run, checks everywhere" vname)
             ~measured:(float_of_int plain_cyc) ~unit_:"cycles" ();
           Report.row
             ~label:(Printf.sprintf "%s | 40 B run, absint" vname)
             ~measured:(float_of_int ai_cyc) ~unit_:"cycles" ();
           Report.row
             ~label:
               (Printf.sprintf "%s | 40 B run, absint + specialized exit"
                  vname)
             ~measured:(float_of_int full_cyc) ~unit_:"cycles" ();
         ])
      variants
  in
  {
    Report.id = "ablation-absint";
    title =
      "Ablation A5: download-time abstract interpretation — sandbox \
       checks elided and cycles recovered on the DSM remote write";
    rows;
    notes =
      [
        "absint proves loads/stores in-bounds (message-relative \
         intervals), divisors nonzero, and covered-by-earlier-access \
         windows, then drops exactly those checks; the run faults \
         identically by construction (see test/test_absint.ml)";
        "'specialized exit' additionally drops the overly general exit \
         code the paper's §V-D blames for most of the residual overhead";
      ];
  }

let striped () =
  let rows =
    List.concat_map
      (fun len ->
         [
           Report.row
             ~label:(Printf.sprintf "%4d B | destripe copy + DILP" len)
             ~measured:(destripe_then_dilp ~len ()) ~unit_:"us" ();
           Report.row
             ~label:(Printf.sprintf "%4d B | striped DILP back end" len)
             ~measured:(striped_one_pass ~len ()) ~unit_:"us" ();
         ])
      [ 256; 1024; 1440 ]
  in
  {
    Report.id = "ablation-striped";
    title =
      "Ablation A3: Ethernet striped receive buffers — separate de-stripe \
       vs the interface-specific DILP back end (copy + checksum)";
    rows;
    notes =
      [
        "sec III-C: only the back end of the DILP engine changes per \
         network interface; the fused striped loop saves the whole \
         de-striping traversal";
      ];
  }

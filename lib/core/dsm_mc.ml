(* Cross-core DSM over the multi-queue server: the §V atomicity story
   applied across kernel shards.

   Every exported segment has exactly one owner core ([seg mod cores]),
   and only that core's kernel ever touches the segment's memory — the
   paper's handler-atomicity argument (one handler runs to completion
   per core) then makes every DSM op atomic without locks. Requests are
   UDP frames steered by the RSS flow hash, so a request can land on a
   core that does {e not} own its target segment. That core's handler
   is the stock generic remote write whose translation table maps only
   the segments the core owns; a non-owned segment reads [base=0,
   limit=0], fails the bounds check, and takes the voluntary-abort
   path. The user-level fallback then forwards the op to the owner
   shard as a cluster message (one epoch of virtual latency — the
   cross-core handoff), and the owner applies it. Ownership is thus
   enforced twice: structurally (segments live in the owner's machine)
   and dynamically (foreign ops abort and are re-routed). *)

module Engine = Ash_sim.Engine
module Machine = Ash_sim.Machine
module Memory = Ash_sim.Memory
module Time = Ash_sim.Time
module Kernel = Ash_kern.Kernel
module Rss = Ash_nic.Rss
module Packet = Ash_proto.Packet
module Bytesx = Ash_util.Bytesx

let net_header = Packet.ip_header_len + Packet.udp_header_len (* 28 *)
let data_off = net_header + Handlers.rw_header (* the request's data *)

type t = {
  fab : Fabric.t;
  port : int;
  segments : int;
  seg_size : int;
  cores : Fabric.core array;
  segs : Memory.region array; (* seg i lives in its owner core's machine *)
  forwarded : int array; (* per core: foreign ops it re-routed away *)
  applied : int array; (* per owner core: forwarded ops applied here *)
  base_commits : int array; (* ash_committed at create time, per core *)
}

let ncores t = Array.length t.cores
let owner t ~seg = seg mod ncores t

let committed_in_kernel t =
  let sum = ref 0 in
  Array.iteri
    (fun c (core : Fabric.core) ->
      sum :=
        !sum
        + (Kernel.stats core.Fabric.core_kernel).Kernel.ash_committed
        - t.base_commits.(c))
    t.cores;
  !sum

let forwards t = Array.fold_left ( + ) 0 t.forwarded
let applied_forwards t = Array.fold_left ( + ) 0 t.applied

let create ?(port = 9_000) ~segments ~segment_size fab =
  if segments < 1 then invalid_arg "Dsm_mc.create: segments";
  if segment_size < 4 then invalid_arg "Dsm_mc.create: segment_size";
  let cores = Fabric.cores fab in
  let n = Array.length cores in
  let segs =
    Array.init segments (fun i ->
        let c = cores.(i mod n) in
        Memory.alloc
          (Machine.mem (Kernel.machine c.Fabric.core_kernel))
          ~name:(Printf.sprintf "dsm-mc-seg-%d" i)
          segment_size)
  in
  let t =
    {
      fab;
      port;
      segments;
      seg_size = segment_size;
      cores;
      segs;
      forwarded = Array.make n 0;
      applied = Array.make n 0;
      base_commits = Array.make n 0;
    }
  in
  let cluster = Fabric.cluster fab in
  let epoch = Engine.Cluster.epoch_ns cluster in
  Array.iteri
    (fun c (core : Fabric.core) ->
      let k = core.Fabric.core_kernel in
      let mem = Machine.mem (Kernel.machine k) in
      (* Translation table over ALL segments, but only the owned ones
         are mapped; the rest stay zeroed, so foreign ops fail the
         handler's bounds check and fall back to the forwarder. *)
      let table =
        Memory.alloc mem ~name:"dsm-mc-table"
          (segments * Handlers.seg_entry_len)
      in
      for i = 0 to segments - 1 do
        if i mod n = c then begin
          let entry = table.Memory.base + (i * Handlers.seg_entry_len) in
          Memory.store32 mem
            (entry + Handlers.seg_off_base)
            t.segs.(i).Memory.base;
          Memory.store32 mem
            (entry + Handlers.seg_off_limit)
            t.segs.(i).Memory.len
        end
      done;
      let prog =
        Handlers.remote_write_generic ~msg_off:net_header
          ~table_addr:table.Memory.base ~entries:segments ()
      in
      let delivery =
        match Kernel.download_ash k ~sandbox:true prog with
        | Ok id -> Kernel.Deliver_ash id
        | Error e ->
          failwith
            (Format.asprintf "Dsm_mc.create: %a" Ash_vm.Verify.pp_error e)
      in
      let vc =
        Kernel.bind_eth_filter k (Packet.Udp.dst_port_filter port) delivery
      in
      Kernel.set_auto_repost k ~vc true;
      t.base_commits.(c) <- (Kernel.stats k).Kernel.ash_committed;
      (* Foreign-segment fallback: re-route the op to the owner shard
         as a cluster message landing one epoch out (always beyond the
         current merge barrier). *)
      Kernel.set_user_handler k ~vc (fun ~addr ~len ->
          if len >= data_off then begin
            let field f = Memory.load32 mem (addr + net_header + f) in
            let seg = field Handlers.rw_off_seg in
            let off = field Handlers.rw_off_offset in
            let size = field Handlers.rw_off_size in
            if
              seg >= 0
              && seg < segments
              && size >= 0
              && off >= 0
              && off + size <= segment_size
              && len >= data_off + size
            then begin
              let data = Bytes.create size in
              Memory.blit_to_bytes mem
                ~src:(addr + data_off)
                ~dst:data ~dst_off:0 ~len:size;
              let o = seg mod n in
              t.forwarded.(c) <- t.forwarded.(c) + 1;
              let at = Engine.now (Kernel.engine k) + epoch in
              Engine.Cluster.post cluster ~dst:t.cores.(o).Fabric.core_shard
                ~at (fun () ->
                  let omem =
                    Machine.mem (Kernel.machine t.cores.(o).Fabric.core_kernel)
                  in
                  Memory.blit_from_bytes omem ~src:data ~src_off:0
                    ~dst:(t.segs.(seg).Memory.base + off)
                    ~len:size;
                  t.applied.(o) <- t.applied.(o) + 1)
            end
          end))
    cores;
  (* Telemetry: cross-core DSM progress — in-kernel commits across all
     owner cores, plus the forward/apply split of foreign-segment
     writes. *)
  (match Ash_obs.Timeseries.current () with
   | None -> ()
   | Some ts ->
     Ash_obs.Timeseries.register_rate ts "dsm.commits" (fun () ->
         committed_in_kernel t);
     Ash_obs.Timeseries.register_rate ts "dsm.forwards" (fun () -> forwards t);
     Ash_obs.Timeseries.register_rate ts "dsm.applied_forwards" (fun () ->
         applied_forwards t));
  t

let ring_of t ~client ~sport =
  Rss.hash_tuple
    {
      Rss.src_addr = (Fabric.host t.fab client).Fabric.ip;
      dst_addr = (Fabric.host t.fab 0).Fabric.ip;
      proto = Packet.Ip.proto_udp;
      src_port = sport;
      dst_port = t.port;
    }
  mod ncores t

(* Trusted-client validation, as in {!Dsm}: a request the handler would
   reject produces no effect at all, so clients check geometry first. *)
let write_at t ~client ~sport ~at ~seg ~off ~data =
  let size = Bytes.length data in
  if client < 1 || client >= Fabric.hosts t.fab then
    invalid_arg "Dsm_mc.write_at: client";
  if seg < 0 || seg >= t.segments then invalid_arg "Dsm_mc.write_at: seg";
  if size < 4 || size mod 4 <> 0 || size > 4096 then
    invalid_arg "Dsm_mc.write_at: size must be word-aligned, in [4, 4096]";
  if off < 0 || off + size > t.seg_size then
    invalid_arg "Dsm_mc.write_at: out of bounds";
  let total = data_off + size in
  let frame = Bytes.create total in
  Packet.Ip.write frame ~off:0
    {
      Packet.Ip.src = (Fabric.host t.fab client).Fabric.ip;
      dst = (Fabric.host t.fab 0).Fabric.ip;
      proto = Packet.Ip.proto_udp;
      total_len = total;
      ttl = 64;
      id = seg + 1;
    };
  Packet.Udp.write frame ~off:Packet.ip_header_len
    {
      Packet.Udp.src_port = sport;
      dst_port = t.port;
      length = total - Packet.ip_header_len;
      checksum = 0;
    };
  Bytesx.set_u32 frame (net_header + Handlers.rw_off_seg) seg;
  Bytesx.set_u32 frame (net_header + Handlers.rw_off_offset) off;
  Bytesx.set_u32 frame (net_header + Handlers.rw_off_size) size;
  Bytes.blit data 0 frame data_off size;
  let kernel = (Fabric.host t.fab client).Fabric.kernel in
  ignore
    (Engine.schedule_at
       (Fabric.host_engine t.fab client)
       ~at
       (fun () -> Kernel.eth_kernel_send kernel frame))

let read_seg t ~seg ~off ~len =
  let core = t.cores.(owner t ~seg) in
  let mem = Machine.mem (Kernel.machine core.Fabric.core_kernel) in
  let b = Bytes.create len in
  Memory.blit_to_bytes mem
    ~src:(t.segs.(seg).Memory.base + off)
    ~dst:b ~dst_off:0 ~len;
  b

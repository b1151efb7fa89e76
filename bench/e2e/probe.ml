(* Layer probes: host time of repeated calls into one layer's public
   functions, with inputs shaped like a workload's. Each probe reports
   the median of [batches] batches of a fixed call count, after one
   untimed batch that warms caches and the heap. *)

module Engine = Ash_sim.Engine
module Machine = Ash_sim.Machine
module Memory = Ash_sim.Memory
module Costs = Ash_sim.Costs
module Kernel = Ash_kern.Kernel
module Dpf = Ash_kern.Dpf
module Dpf_trie = Ash_kern.Dpf_trie
module Exec = Ash_vm.Exec
module Interp = Ash_vm.Interp
module Isa = Ash_vm.Isa
module Dilp = Ash_pipes.Dilp
module Pipelib = Ash_pipes.Pipelib
module Packet = Ash_proto.Packet
module Tcb = Ash_proto.Tcb
module Tcp_fastpath = Ash_proto.Tcp_fastpath
module Handlers = Ash_core.Handlers

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* Python's [statistics.quantiles(xs, n=4)] (the exclusive method) and
   the median, so the spreads printed here are the ones an outside
   check computes. *)
let quartiles xs =
  let d = Array.of_list xs in
  Array.sort Float.compare d;
  let n = Array.length d in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (d.(0), d.(0), d.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    let med = if n land 1 = 1 then d.(n / 2) else (d.((n / 2) - 1) +. d.(n / 2)) /. 2.0 in
    (q 1, med, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

let batches = 5

(* Host ns per call of [f i] for i in [0, calls), median over batches.
   [prep] runs untimed before each batch. *)
let ns_per_call ?(prep = ignore) ~calls f =
  let batch () =
    prep ();
    let t0 = now_ns () in
    for i = 0 to calls - 1 do
      f i
    done;
    (now_ns () -. t0) /. float_of_int calls
  in
  ignore (batch ());
  median (List.init batches (fun _ -> batch ()))

(* -- sim: one engine event -------------------------------------------- *)

(* A chain of no-op events, each scheduling the next, fired while
   [depth] other events sit in the queue. *)
let engine_ns_per_event ~depth =
  let eng = Engine.create () in
  for _ = 1 to depth do
    ignore (Engine.schedule eng ~delay:1_000_000_000_000 ignore)
  done;
  let calls = 200_000 in
  let left = ref 0 in
  let rec tick () =
    if !left > 0 then begin
      decr left;
      ignore (Engine.schedule eng ~delay:1 tick)
    end
  in
  ns_per_call ~calls:1 (fun _ ->
      left := calls;
      ignore (Engine.schedule eng ~delay:1 tick);
      Engine.run_until eng (Engine.now eng + calls + 1))
  /. float_of_int calls

(* -- kern: demultiplexing through the merged trie ---------------------- *)

let filters = 1024
let src_port k = 10_000 + k
let dst_port k = 28_000 + k
let tcp_port_off = Packet.ip_header_len

let port_filter k =
  [
    Dpf.atom ~offset:9 ~width:1 Packet.Ip.proto_tcp;
    Dpf.atom ~offset:(tcp_port_off + Packet.Tcp.off_src_port) ~width:2 (src_port k);
    Dpf.atom ~offset:(tcp_port_off + Packet.Tcp.off_dst_port) ~width:2 (dst_port k);
  ]

type demux = { ns_per_lookup : float; ns_per_insert_remove : float }

(* [Dpf_trie.lookup] is the kernel's receive path: it walks segments in
   simulated memory and charges the walk to the machine. *)
let demux () =
  let trie = Dpf_trie.create () in
  for k = 0 to filters - 1 do
    Dpf_trie.insert trie ~prio:k (port_filter k) k
  done;
  let m = Machine.create Costs.decstation in
  let mem = Machine.mem m in
  let len = Packet.ip_header_len + Packet.tcp_header_len in
  let segs =
    Array.init filters (fun k ->
        let r = Memory.alloc mem len in
        Memory.store8 mem (r.Memory.base + 9) Packet.Ip.proto_tcp;
        Memory.store16 mem (r.Memory.base + tcp_port_off + Packet.Tcp.off_src_port) (src_port k);
        Memory.store16 mem (r.Memory.base + tcp_port_off + Packet.Tcp.off_dst_port) (dst_port k);
        r.Memory.base)
  in
  let ns_per_lookup =
    ns_per_call ~calls:100_000 (fun i ->
        let k = i * 7919 land (filters - 1) in
        match Dpf_trie.lookup trie m ~msg_addr:segs.(k) ~msg_len:len with
        | Some v when v = k -> ()
        | _ -> failwith "demux probe: lookup missed its filter")
  in
  let ns_per_insert_remove =
    ns_per_call ~calls:3_000 (fun i ->
        let k = i * 7919 land (filters - 1) in
        Dpf_trie.remove trie ~prio:k (port_filter k);
        Dpf_trie.insert trie ~prio:k (port_filter k) k)
  in
  { ns_per_lookup; ns_per_insert_remove }

(* -- vm: one sandboxed handler ----------------------------------------- *)

let all_calls =
  Isa.[ K_msg_read8; K_msg_read16; K_msg_read32; K_msg_write32; K_copy;
        K_dilp; K_send; K_msg_len ]

let fresh_kernel () = Kernel.create (Engine.create ()) Costs.decstation ~name:"probe"

let download k prog =
  match Kernel.download_ash k ~sandbox:true prog with
  | Ok id -> id
  | Error e -> failwith ("probe handler rejected: " ^ e.Ash_vm.Verify.reason)

(* A handler installed in a kernel's memory: its program, the message
   it runs on, and the reset that returns the message (and the state
   the handler updates) to what it expects before each run. *)
type message = { addr : int; len : int; reset : int -> unit }
type handler = Kernel.t -> Ash_vm.Program.t * message

let mem k = Machine.mem (Kernel.machine k)
let alloc k len = (Memory.alloc (mem k) len).Memory.base

(* The TCP fast path on an in-sequence pure ack, which it absorbs and
   commits: half of every rpc round trip's handler runs. *)
let tcp_ack k =
  let local = 4001 and remote = 4000 and rcv = 5001 and snd = 1001 in
  let tcb = alloc k Tcb.size in
  let set = Tcb.set (mem k) ~base:tcb in
  set Tcb.off_state Tcb.st_established;
  set Tcb.off_local_port local;
  set Tcb.off_remote_port remote;
  set Tcb.off_rcv_nxt rcv;
  set Tcb.off_snd_nxt snd;
  set Tcb.off_snd_una snd;
  let len = Packet.ip_header_len + Packet.tcp_header_len in
  let m = alloc k len in
  let tcp = m + Packet.ip_header_len in
  Memory.store16 (mem k) (tcp + Packet.Tcp.off_src_port) remote;
  Memory.store16 (mem k) (tcp + Packet.Tcp.off_dst_port) local;
  Memory.store32 (mem k) (tcp + Packet.Tcp.off_seq) rcv;
  Memory.store32 (mem k) (tcp + Packet.Tcp.off_ack) snd;
  Memory.store16 (mem k) (tcp + Packet.Tcp.off_dataoff_flags) 0x5010;
  ( Tcp_fastpath.program
      { Tcp_fastpath.tcb_addr = tcb; checksum = true; dilp_id = 0;
        cksum_acc_reg = Isa.reg_arg3 },
    { addr = m; len; reset = ignore } )

(* The primary's produce handler appending a fresh sequence number and
   chaining the replicate: every mq-lossy message's first handler. *)
let mq_produce k =
  let net_off = Packet.ip_header_len + Packet.udp_header_len in
  let payload = 32 and capacity = 1 lsl 12 in
  let g =
    {
      Handlers.mq_net_off = net_off;
      mq_capacity = capacity;
      mq_producers = 2;
      mq_slot_shift = 6;
      mq_meta = alloc k 16;
      mq_log = alloc k (capacity lsl 6);
      mq_sess = alloc k 16;
      mq_ctr = alloc k Handlers.mq_ctr_len;
    }
  in
  let len = net_off + Handlers.mq_header + payload in
  let m = alloc k len in
  let word i v = Memory.store32 (mem k) (m + net_off + (4 * i)) v in
  word 0 Handlers.mq_magic;
  word 2 0;
  word 7 payload;
  let reset i =
    (* The log holds [capacity] slots: start over before it fills. *)
    if i land (capacity - 1) = 0 then begin
      Memory.store32 (mem k) g.Handlers.mq_meta 0;
      Memory.store32 (mem k) g.Handlers.mq_sess 0
    end;
    (* Chaining rewrote the frame into a replicate. *)
    word 1 Handlers.mq_op_produce;
    word 3 ((i land (capacity - 1)) + 1)
  in
  ( Handlers.mq_produce g
      (Handlers.Mq_chain
         { self_ip = 1; peer_ip = 2; produce_port = 8_100; repl_port = 8_101 }),
    { addr = m; len; reset } )

type vm = { ns_per_insn : float; download_us : float }

let vm (h : handler) =
  let k = fresh_kernel () in
  let prog, msg = h k in
  let prepared = Kernel.ash_prepared k (download k prog) in
  let env =
    {
      Interp.machine = Kernel.machine k;
      msg_addr = msg.addr;
      msg_len = msg.len;
      allowed_calls = all_calls;
      dilp = (fun ~id:_ ~src:_ ~dst:_ ~len:_ ~regs:_ -> false);
      send = ignore;
      gas_cycles = Interp.default_gas;
    }
  in
  msg.reset 0;
  let insns = (Exec.run env prepared).Interp.insns in
  let ns_per_run =
    ns_per_call ~calls:10_000 (fun i ->
        msg.reset i;
        if (Exec.run env prepared).Interp.outcome <> Interp.Committed then
          failwith "vm probe: handler left its committing path")
  in
  (* Downloads into fresh kernels, so the handler cache always misses. *)
  let downloads = 20 in
  let kernels = ref [||] in
  let download_ns =
    ns_per_call ~calls:downloads
      ~prep:(fun () ->
        kernels :=
          Array.init downloads (fun _ ->
              let k = fresh_kernel () in
              (k, fst (h k))))
      (fun i ->
        let k, prog = !kernels.(i) in
        ignore (download k prog))
  in
  { ns_per_insn = ns_per_run /. float_of_int insns; download_us = download_ns /. 1e3 }

(* -- pipes: the fused copy+checksum loop over one MSS segment ----------- *)

let segment = 3072

let dilp_ns_per_kb () =
  let pl = Ash_pipes.Pipe.Pipelist.create () in
  let _, acc = Pipelib.cksum32 pl in
  let c = Dilp.compile pl Dilp.Write in
  let m = Machine.create Costs.decstation in
  let mem = Machine.mem m in
  let src = (Memory.alloc mem segment).Memory.base
  and dst = (Memory.alloc mem segment).Memory.base in
  ns_per_call ~calls:500 (fun _ ->
      ignore (Dilp.execute_exn ~init:[ (acc, 0) ] m c ~src ~dst ~len:segment))
  /. (float_of_int segment /. 1024.0)

(* The replicated message-queue service: the robustness showcase of the
   handler architecture. The data plane — produce with offset
   assignment and append, replicate-apply, fetch and poll — runs
   entirely as ASHs over plain memory segments on two broker hosts
   ({!Handlers.mq_produce} and friends); the OCaml code here is only
   control plane: request framing, retry with exponential backoff,
   failover redirection, chaos scheduling, and the delivery audit.

   Delivery contract (the at-least-once argument, DESIGN.md §13):
   - every produce carries a per-producer sequence number; the client
     is stop-and-wait, so at most one sequence per producer is ever
     unacknowledged;
   - brokers keep a per-producer session [(last_seq, last_offset)].
     A retried duplicate ([seq = last]) is re-acked with the stored
     offset and never re-appended; below-window and out-of-window
     sequences are counted and dropped without an ack;
   - the primary's produce handler chains a replicate to the replica
     inside the handler, and the *replica* acks the client — an ack
     therefore implies the message is durable on both logs at the same
     offset. After failover the client produces to the replica
     directly and the solo path acks the same way;
   - the replica's log is append-only in every scenario this module
     schedules (only the primary is crashed, partitioned, or wiped),
     so it is the authoritative log: consumers fetch from it, and the
     audit replays it. Re-syncing a lost *replica* is out of scope,
     and recorded as such in DESIGN.md. *)

module Engine = Ash_sim.Engine
module Memory = Ash_sim.Memory
module Machine = Ash_sim.Machine
module Fault = Ash_sim.Fault
module Kernel = Ash_kern.Kernel
module Ethernet = Ash_nic.Ethernet
module Switch = Ash_nic.Switch
module Packet = Ash_proto.Packet
module Trace = Ash_obs.Trace
module Timeseries = Ash_obs.Timeseries
module Bytesx = Ash_util.Bytesx

let net_off = Packet.ip_header_len + Packet.udp_header_len
let payload_off = net_off + Handlers.mq_header
let slot_shift = 6
let slot_stride = 1 lsl slot_shift
let payload_max = Handlers.mq_payload_max ~slot_shift
let ctr_words = Handlers.mq_ctr_len / 4

type spec = {
  producers : int;  (* one producer process per host, hosts 2.. *)
  capacity : int;  (* log slots per broker *)
  payload_words : int;  (* 32-bit words per message, 1..12 *)
  produce_port : int;
  repl_port : int;
  fetch_port : int;
  retry_base_ns : int;  (* first retransmit timeout *)
  retry_cap_ns : int;  (* backoff ceiling *)
  redirect_after : int;  (* consecutive timeouts before failover *)
  max_attempts : int;  (* audit bound, not a give-up threshold *)
  housekeep_ns : int;  (* broker telemetry tick *)
  consumer_rto_ns : int;  (* consumer re-fetch timeout *)
  horizon_ns : int;  (* periodic ticks stop here so [Fabric.run]
                        style full drains still terminate *)
}

let default_spec =
  {
    producers = 2;
    capacity = 1024;
    payload_words = 8;
    produce_port = 8_100;
    repl_port = 8_101;
    fetch_port = 8_102;
    retry_base_ns = 2_000_000;
    retry_cap_ns = 32_000_000;
    redirect_after = 3;
    max_attempts = 64;
    housekeep_ns = 1_000_000;
    consumer_rto_ns = 4_000_000;
    horizon_ns = 10_000_000_000;
  }

(* Per-broker state. Counter *bases* carry the machine counters across
   crashes: the crash action folds the about-to-be-wiped values into
   [b_base], so totals stay monotonic and the housekeeping deltas stay
   exact. [b_seen] is how much of each total has already been emitted
   as [drops.mq.*] trace events. *)
type broker = {
  b_host : int;
  b_meta : Memory.region;
  b_log : Memory.region;
  b_sess : Memory.region;
  b_ctr : Memory.region;
  b_base : int array;  (* appends, dup, stale, gap *)
  b_seen : int array;
  mutable b_down : bool;
}

type producer = {
  p_idx : int;
  p_host : int;
  p_port : int;
  mutable p_target : int;  (* broker index currently produced to *)
  mutable p_next_seq : int;
  mutable p_pending : int;  (* messages queued behind the inflight one *)
  mutable p_scheduled : int;  (* enqueues scheduled but not yet fired *)
  mutable p_inflight : int;  (* 0 = idle, else the unacked seq *)
  mutable p_attempt : int;
  mutable p_streak : int;  (* consecutive timeouts on p_target *)
  mutable p_gen : int;  (* invalidates retry timers on ack *)
  mutable p_acked : (int * int * int) list;  (* seq, offset, ts; newest first *)
  mutable p_acked_n : int;  (* List.length p_acked, for [stats] *)
  mutable p_redeliveries : int;
  mutable p_max_attempt : int;
  mutable p_last_ack_ts : int;  (* -1 until the first send *)
  mutable p_max_gap_ns : int;  (* widest send→ack / ack→ack gap *)
}

type await = A_none | A_fetch of int | A_poll

type consumer = {
  k_idx : int;
  k_host : int;
  k_port : int;
  mutable k_cursor : int;
  mutable k_head : int;  (* broker head as last reported *)
  mutable k_await : await;
  mutable k_sent_at : int;
  mutable k_attempt : int;
  mutable k_refetches : int;
  mutable k_delivered : (int * int * int * bool) list;
      (* offset, producer, seq, payload_ok; newest first *)
  mutable k_delivered_n : int;  (* List.length k_delivered, for [stats] *)
}

type t = {
  fab : Fabric.t;
  spec : spec;
  t0 : int;  (* virtual time at creation; all scheduling offsets are
                relative to it (ARP warm-up consumes virtual time) *)
  brokers : broker array;  (* [| primary (host 0); replica (host 1) |] *)
  prods : producer array;
  mutable consumers : consumer list;
}

(* Deterministic payload contents: word [w] of message [seq] from
   [producer]. The audit recomputes this, so any corruption or
   cross-wiring in the data path surfaces as a payload mismatch. *)
let payload_word ~producer ~seq ~w =
  (((producer + 1) * 0x9E3779B1) + (seq * 0x85EBCA6B) + (w * 0x27D4EB2F))
  land 0xFFFFFFFF

let geometry t bi =
  let b = t.brokers.(bi) in
  {
    Handlers.mq_net_off = net_off;
    mq_capacity = t.spec.capacity;
    mq_producers = t.spec.producers;
    mq_slot_shift = slot_shift;
    mq_meta = b.b_meta.Memory.base;
    mq_log = b.b_log.Memory.base;
    mq_sess = b.b_sess.Memory.base;
    mq_ctr = b.b_ctr.Memory.base;
  }

let broker_mem t bi =
  Machine.mem
    (Kernel.machine (Fabric.host t.fab t.brokers.(bi).b_host).Fabric.kernel)

(* Totals that survive crashes: carried base plus the live machine
   counter (zero while wiped). *)
let ctr_total t bi off =
  let b = t.brokers.(bi) in
  b.b_base.(off / 4) + Memory.load32 (broker_mem t bi) (b.b_ctr.Memory.base + off)

let log_count t bi =
  Memory.load32 (broker_mem t bi) t.brokers.(bi).b_meta.Memory.base

let install_handler k prog port =
  match Kernel.download_ash k prog with
  | Error e -> failwith ("Mq: handler rejected: " ^ e.Ash_vm.Verify.reason)
  | Ok id ->
    let vc =
      Kernel.bind_eth_filter k (Packet.Udp.dst_port_filter port)
        (Kernel.Deliver_ash id)
    in
    Kernel.set_auto_repost k ~vc true;
    (* Aborted frames (malformed, log full) fall back to user delivery;
       the broker process just drops them. *)
    Kernel.set_user_handler k ~vc (fun ~addr:_ ~len:_ -> ())

(* (Re)install a broker's data plane: downloads and DPF bindings. Also
   the heal action after a crash — [Kernel.reboot] removed every
   binding, so this brings the broker back cold. *)
let install_broker t bi =
  let b = t.brokers.(bi) in
  let node = Fabric.host t.fab b.b_host in
  let peer = Fabric.host t.fab t.brokers.(1 - bi).b_host in
  let geo = geometry t bi in
  let route =
    if bi = 0 then
      Handlers.Mq_chain
        {
          self_ip = node.Fabric.ip;
          peer_ip = peer.Fabric.ip;
          produce_port = t.spec.produce_port;
          repl_port = t.spec.repl_port;
        }
    else Handlers.Mq_solo
  in
  install_handler node.Fabric.kernel (Handlers.mq_produce geo route)
    t.spec.produce_port;
  install_handler node.Fabric.kernel (Handlers.mq_fetch geo) t.spec.fetch_port;
  if bi = 1 then
    install_handler node.Fabric.kernel
      (Handlers.mq_replicate geo ~self_ip:node.Fabric.ip
         ~produce_port:t.spec.produce_port)
      t.spec.repl_port

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let base_frame t ~src ~dst ~src_port ~dst_port ~op ~producer ~seq ~offset
    ~payload_len =
  let total = payload_off + payload_len in
  let fr = Bytes.make total '\000' in
  Packet.Ip.write fr ~off:0
    {
      Packet.Ip.src = (Fabric.host t.fab src).Fabric.ip;
      dst = (Fabric.host t.fab dst).Fabric.ip;
      proto = Packet.Ip.proto_udp;
      total_len = total;
      ttl = 64;
      id = (producer lxor seq) land 0xFFFF;
    };
  Packet.Udp.write fr ~off:Packet.ip_header_len
    {
      Packet.Udp.src_port;
      dst_port;
      length = total - Packet.ip_header_len;
      checksum = 0;
    };
  let set field v = Bytesx.set_u32 fr (net_off + field) v in
  set Handlers.mq_off_magic Handlers.mq_magic;
  set Handlers.mq_off_op op;
  set Handlers.mq_off_producer producer;
  set Handlers.mq_off_seq seq;
  set Handlers.mq_off_offset offset;
  set Handlers.mq_off_client_ip (Fabric.host t.fab src).Fabric.ip;
  set Handlers.mq_off_client_port src_port;
  set Handlers.mq_off_len payload_len;
  fr

let produce_frame t p =
  let plen = t.spec.payload_words * 4 in
  let fr =
    base_frame t ~src:p.p_host ~dst:t.brokers.(p.p_target).b_host
      ~src_port:p.p_port ~dst_port:t.spec.produce_port
      ~op:Handlers.mq_op_produce ~producer:p.p_idx ~seq:p.p_inflight ~offset:0
      ~payload_len:plen
  in
  for w = 0 to t.spec.payload_words - 1 do
    Bytesx.set_u32 fr
      (payload_off + (4 * w))
      (payload_word ~producer:p.p_idx ~seq:p.p_inflight ~w)
  done;
  fr

(* Consumer requests are padded to a full slot so the fetch handler's
   in-place payload copy stays inside the frame. *)
let consumer_frame t c ~op ~offset =
  base_frame t ~src:c.k_host ~dst:t.brokers.(1).b_host ~src_port:c.k_port
    ~dst_port:t.spec.fetch_port ~op ~producer:0 ~seq:0 ~offset
    ~payload_len:payload_max

(* ------------------------------------------------------------------ *)
(* Producer control plane                                              *)
(* ------------------------------------------------------------------ *)

let backoff t attempt =
  let shift = min (attempt - 1) 16 in
  min (t.spec.retry_base_ns lsl shift) t.spec.retry_cap_ns

let send_produce t p =
  let node = Fabric.host t.fab p.p_host in
  Kernel.eth_user_send node.Fabric.kernel (produce_frame t p)

let rec arm_retry t p ~seq ~gen =
  let eng = Fabric.host_engine t.fab p.p_host in
  ignore
    (Engine.schedule eng ~delay:(backoff t p.p_attempt) (fun () ->
         if p.p_gen = gen && p.p_inflight = seq then begin
           p.p_attempt <- p.p_attempt + 1;
           p.p_max_attempt <- max p.p_max_attempt p.p_attempt;
           p.p_streak <- p.p_streak + 1;
           if p.p_streak >= t.spec.redirect_after then begin
             p.p_target <- 1 - p.p_target;
             p.p_streak <- 0
           end;
           p.p_redeliveries <- p.p_redeliveries + 1;
           if Trace.enabled () then
             Trace.emit
               (Trace.Mq_redelivery
                  { producer = p.p_idx; seq; attempt = p.p_attempt });
           send_produce t p;
           arm_retry t p ~seq ~gen
         end))

let rec kick t p =
  if p.p_inflight = 0 && p.p_pending > 0 then begin
    p.p_pending <- p.p_pending - 1;
    p.p_inflight <- p.p_next_seq;
    p.p_next_seq <- p.p_next_seq + 1;
    p.p_attempt <- 1;
    if p.p_last_ack_ts < 0 then
      p.p_last_ack_ts <- Engine.now (Fabric.host_engine t.fab p.p_host);
    send_produce t p;
    arm_retry t p ~seq:p.p_inflight ~gen:p.p_gen
  end

and on_ack t p ~seq ~offset =
  if p.p_inflight = seq && seq <> 0 then begin
    let now = Engine.now (Fabric.host_engine t.fab p.p_host) in
    if p.p_last_ack_ts >= 0 then
      p.p_max_gap_ns <- max p.p_max_gap_ns (now - p.p_last_ack_ts);
    p.p_last_ack_ts <- now;
    p.p_acked <- (seq, offset, now) :: p.p_acked;
    p.p_acked_n <- p.p_acked_n + 1;
    p.p_inflight <- 0;
    p.p_gen <- p.p_gen + 1;
    p.p_attempt <- 0;
    p.p_streak <- 0;
    kick t p
  end
(* else: a stale ack for an already-acked seq (duplicate in the fabric,
   or a late primary-path ack after failover) — ignored. *)

let bind_producer t p =
  let node = Fabric.host t.fab p.p_host in
  let k = node.Fabric.kernel in
  let mem = Machine.mem (Kernel.machine k) in
  let vc =
    Kernel.bind_eth_filter k (Packet.Udp.dst_port_filter p.p_port)
      Kernel.Deliver_user
  in
  Kernel.set_auto_repost k ~vc true;
  Kernel.set_user_handler k ~vc (fun ~addr ~len ->
      if len >= payload_off then begin
        let g field = Memory.load32 mem (addr + net_off + field) in
        if
          g Handlers.mq_off_magic = Handlers.mq_magic
          && g Handlers.mq_off_op = Handlers.mq_op_produce_ack
          && g Handlers.mq_off_producer = p.p_idx
        then
          on_ack t p ~seq:(g Handlers.mq_off_seq)
            ~offset:(g Handlers.mq_off_offset)
      end)

let produce t ~producer ~count ~at =
  if producer < 0 || producer >= Array.length t.prods then
    invalid_arg "Mq.produce: producer out of range";
  if count < 1 then invalid_arg "Mq.produce: count < 1";
  let p = t.prods.(producer) in
  p.p_scheduled <- p.p_scheduled + count;
  ignore
    (Engine.schedule_at
       (Fabric.host_engine t.fab p.p_host)
       ~at:(t.t0 + at)
       (fun () ->
         p.p_scheduled <- p.p_scheduled - count;
         p.p_pending <- p.p_pending + count;
         kick t p))

(* ------------------------------------------------------------------ *)
(* Consumer control plane                                              *)
(* ------------------------------------------------------------------ *)

let consumer_send t c ~op ~offset =
  let node = Fabric.host t.fab c.k_host in
  Kernel.eth_user_send node.Fabric.kernel (consumer_frame t c ~op ~offset);
  c.k_sent_at <- Engine.now (Fabric.host_engine t.fab c.k_host)

let consumer_tick t c =
  let now = Engine.now (Fabric.host_engine t.fab c.k_host) in
  match c.k_await with
  | A_none ->
    c.k_attempt <- 1;
    if c.k_head > c.k_cursor then begin
      c.k_await <- A_fetch c.k_cursor;
      consumer_send t c ~op:Handlers.mq_op_fetch ~offset:c.k_cursor
    end
    else begin
      c.k_await <- A_poll;
      consumer_send t c ~op:Handlers.mq_op_poll ~offset:0
    end
  | A_fetch o when now - c.k_sent_at >= t.spec.consumer_rto_ns ->
    c.k_attempt <- c.k_attempt + 1;
    c.k_refetches <- c.k_refetches + 1;
    consumer_send t c ~op:Handlers.mq_op_fetch ~offset:o
  | A_poll when now - c.k_sent_at >= t.spec.consumer_rto_ns ->
    c.k_attempt <- c.k_attempt + 1;
    c.k_refetches <- c.k_refetches + 1;
    consumer_send t c ~op:Handlers.mq_op_poll ~offset:0
  | A_fetch _ | A_poll -> ()

let bind_consumer t c =
  let node = Fabric.host t.fab c.k_host in
  let k = node.Fabric.kernel in
  let mem = Machine.mem (Kernel.machine k) in
  let vc =
    Kernel.bind_eth_filter k (Packet.Udp.dst_port_filter c.k_port)
      Kernel.Deliver_user
  in
  Kernel.set_auto_repost k ~vc true;
  Kernel.set_user_handler k ~vc (fun ~addr ~len ->
      if len >= payload_off then begin
        let g field = Memory.load32 mem (addr + net_off + field) in
        if g Handlers.mq_off_magic = Handlers.mq_magic then
          let op = g Handlers.mq_off_op in
          if op = Handlers.mq_op_fetch_resp then begin
            let o = g Handlers.mq_off_offset in
            c.k_head <- max c.k_head (o + 1);
            match c.k_await with
            | A_fetch e when e = o ->
              let producer = g Handlers.mq_off_producer in
              let seq = g Handlers.mq_off_seq in
              let plen = g Handlers.mq_off_len in
              let ok = ref (plen = t.spec.payload_words * 4) in
              if !ok then
                for w = 0 to t.spec.payload_words - 1 do
                  if
                    g (Handlers.mq_header + (4 * w))
                    <> payload_word ~producer ~seq ~w
                  then ok := false
                done;
              c.k_delivered <- (o, producer, seq, !ok) :: c.k_delivered;
              c.k_delivered_n <- c.k_delivered_n + 1;
              c.k_cursor <- o + 1;
              c.k_await <- A_none
            | _ -> ()
          end
          else if op = Handlers.mq_op_poll_resp then begin
            let head = g Handlers.mq_off_offset in
            c.k_head <- max c.k_head head;
            match c.k_await with
            | A_poll -> c.k_await <- A_none
            | A_fetch o when head <= o ->
              (* Our fetch raced ahead of the head: nothing to read
                 yet; go idle until the next tick. *)
              c.k_await <- A_none
            | _ -> ()
          end
      end)

let add_consumer t ~host ~start_at ~interval_ns ~until =
  if host < 2 || host >= Fabric.hosts t.fab then
    invalid_arg "Mq.add_consumer: host out of range";
  if interval_ns <= 0 then invalid_arg "Mq.add_consumer: interval";
  let c =
    {
      k_idx = List.length t.consumers;
      k_host = host;
      k_port = 21_000 + List.length t.consumers;
      k_cursor = 0;
      k_head = 0;
      k_await = A_none;
      k_sent_at = 0;
      k_attempt = 0;
      k_refetches = 0;
      k_delivered = [];
      k_delivered_n = 0;
    }
  in
  bind_consumer t c;
  t.consumers <- t.consumers @ [ c ];
  let eng = Fabric.host_engine t.fab host in
  let rec tick at =
    ignore
      (Engine.schedule_at eng ~at:(t.t0 + at) (fun () ->
           consumer_tick t c;
           let next = at + interval_ns in
           if next <= until then tick next))
  in
  tick start_at;
  c.k_idx

(* ------------------------------------------------------------------ *)
(* Chaos: faults, crash/restart, partition                             *)
(* ------------------------------------------------------------------ *)

let set_host_fault t ~host plan =
  Ethernet.set_fault_plan
    (Kernel.ethernet (Fabric.host t.fab host).Fabric.kernel)
    (Option.map Fault.create plan)

let set_port_fault t ~host plan =
  Switch.set_fault_plan (Fabric.switch t.fab) ~port:host
    (Option.map Fault.create plan)

(* One plan per direction per host, each with its own seed so no two
   links share an RNG stream. *)
let install_chaos t ~config ~seed =
  for h = 0 to Fabric.hosts t.fab - 1 do
    set_host_fault t ~host:h
      (Some { config with Fault.seed = seed + (2 * h) });
    set_port_fault t ~host:h
      (Some { config with Fault.seed = seed + (2 * h) + 1 })
  done

let clear_chaos t =
  for h = 0 to Fabric.hosts t.fab - 1 do
    set_host_fault t ~host:h None;
    set_port_fault t ~host:h None
  done

let crash_broker t bi =
  let b = t.brokers.(bi) in
  let mem = broker_mem t bi in
  for i = 0 to ctr_words - 1 do
    b.b_base.(i) <-
      b.b_base.(i) + Memory.load32 mem (b.b_ctr.Memory.base + (4 * i))
  done;
  List.iter
    (fun (r : Memory.region) ->
      Memory.fill mem ~addr:r.Memory.base ~len:r.Memory.len '\000')
    [ b.b_meta; b.b_log; b.b_sess; b.b_ctr ];
  Kernel.reboot (Fabric.host t.fab b.b_host).Fabric.kernel;
  b.b_down <- true

let heal_broker t bi =
  install_broker t bi;
  t.brokers.(bi).b_down <- false

(* Kernel crash with scheduled heal: ASH state and DSM segments are
   wiped at [down_at] (arrivals drop at the demux boundary while
   down), and the broker reinstalls cold at [heal_at]. Both actions
   run on the broker's own engine so the schedule is deterministic at
   any [--jobs]. *)
let schedule_crash t ~broker (o : Fault.outage) =
  let eng = Fabric.host_engine t.fab t.brokers.(broker).b_host in
  ignore
    (Engine.schedule_at eng ~at:(t.t0 + o.Fault.down_at) (fun () ->
         crash_broker t broker));
  ignore
    (Engine.schedule_at eng ~at:(t.t0 + o.Fault.heal_at) (fun () ->
         heal_broker t broker))

(* Network partition of one broker: total loss in both directions for
   the outage window. The switch-side plan is installed from shard 0's
   engine (which owns the switch), the host-side plan from the
   broker's engine. *)
let schedule_partition t ~broker ?(seed = 1) (o : Fault.outage) =
  let b = t.brokers.(broker) in
  let heng = Fabric.host_engine t.fab b.b_host in
  let seng = Fabric.engine t.fab in
  ignore
    (Engine.schedule_at heng ~at:(t.t0 + o.Fault.down_at) (fun () ->
         set_host_fault t ~host:b.b_host (Some (Fault.partition ~seed ()))));
  ignore
    (Engine.schedule_at heng ~at:(t.t0 + o.Fault.heal_at) (fun () ->
         set_host_fault t ~host:b.b_host None));
  ignore
    (Engine.schedule_at seng ~at:(t.t0 + o.Fault.down_at) (fun () ->
         set_port_fault t ~host:b.b_host
           (Some (Fault.partition ~seed:(seed + 1) ()))));
  ignore
    (Engine.schedule_at seng ~at:(t.t0 + o.Fault.heal_at) (fun () ->
         set_port_fault t ~host:b.b_host None))

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

let total_redeliveries t =
  Array.fold_left (fun a p -> a + p.p_redeliveries) 0 t.prods
  + List.fold_left (fun a c -> a + c.k_refetches) 0 t.consumers

(* Broker housekeeping: diff the handler-maintained drop counters
   against what has already been emitted and surface the difference as
   [drops.mq.*] trace events, so the unified drop namespace carries
   exactly the machine counters. *)
let housekeeping_tick t bi =
  let b = t.brokers.(bi) in
  if not b.b_down then begin
    let emit off reason =
      let total = ctr_total t bi off in
      let d = total - b.b_seen.(off / 4) in
      b.b_seen.(off / 4) <- total;
      if d > 0 && Trace.enabled () then
        for _ = 1 to d do
          Trace.emit (Trace.Pkt_drop { nic = "mq"; reason })
        done
    in
    emit Handlers.mq_ctr_dup Trace.Dup_seq;
    emit Handlers.mq_ctr_stale Trace.Stale_seq;
    emit Handlers.mq_ctr_gap Trace.Repl_gap
  end

let start_housekeeping t bi =
  let eng = Fabric.host_engine t.fab t.brokers.(bi).b_host in
  let rec tick at =
    ignore
      (Engine.schedule_at eng ~at (fun () ->
           housekeeping_tick t bi;
           let next = at + t.spec.housekeep_ns in
           if next <= t.t0 + t.spec.horizon_ns then tick next))
  in
  tick (Engine.now eng + t.spec.housekeep_ns)

let register_timeseries t =
  match Timeseries.current () with
  | None -> ()
  | Some ts ->
    let appends bi = ctr_total t bi Handlers.mq_ctr_appends in
    let dups bi = ctr_total t bi Handlers.mq_ctr_dup in
    Timeseries.register_rate ts "mq.appends" (fun () ->
        appends 0 + appends 1);
    Timeseries.register_rate ts "mq.dedup_hits" (fun () -> dups 0 + dups 1);
    Timeseries.register_rate ts "mq.redeliveries" (fun () ->
        total_redeliveries t);
    Timeseries.register_gauge ts "mq.repl_lag" (fun () ->
        float_of_int (log_count t 0 - log_count t 1));
    Timeseries.register_gauge ts "mq.log_depth" (fun () ->
        float_of_int (log_count t 1))

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create fab spec =
  if spec.producers < 1 then invalid_arg "Mq.create: producers < 1";
  if Fabric.hosts fab < 2 + spec.producers then
    invalid_arg "Mq.create: need 2 broker hosts + one host per producer";
  if spec.capacity < 1 then invalid_arg "Mq.create: capacity < 1";
  if spec.payload_words < 1 || spec.payload_words * 4 > payload_max then
    invalid_arg "Mq.create: payload_words outside the slot";
  if spec.retry_base_ns <= 0 || spec.retry_cap_ns < spec.retry_base_ns then
    invalid_arg "Mq.create: retry window";
  (* Resolve every client↔broker pair up front; the data plane never
     issues ARP traffic, so resolution survives broker reboots (the
     caches live user-side). *)
  Fabric.warm_arp fab ~server:0;
  Fabric.warm_arp fab ~server:1;
  let t0 = Fabric.now fab in
  let mk_broker host =
    let node = Fabric.host fab host in
    {
      b_host = host;
      b_meta = Fabric.alloc node ~name:"mq-meta" 16;
      b_log = Fabric.alloc node ~name:"mq-log" (spec.capacity * slot_stride);
      b_sess =
        Fabric.alloc node ~name:"mq-sess"
          (spec.producers * Handlers.mq_sess_len);
      b_ctr = Fabric.alloc node ~name:"mq-ctr" Handlers.mq_ctr_len;
      b_base = Array.make ctr_words 0;
      b_seen = Array.make ctr_words 0;
      b_down = false;
    }
  in
  let t =
    {
      fab;
      spec;
      t0;
      brokers = [| mk_broker 0; mk_broker 1 |];
      prods =
        Array.init spec.producers (fun i ->
            {
              p_idx = i;
              p_host = 2 + i;
              p_port = 20_000 + i;
              p_target = 0;
              p_next_seq = 1;
              p_pending = 0;
              p_scheduled = 0;
              p_inflight = 0;
              p_attempt = 0;
              p_streak = 0;
              p_gen = 0;
              p_acked = [];
              p_acked_n = 0;
              p_redeliveries = 0;
              p_max_attempt = 0;
              p_last_ack_ts = -1;
              p_max_gap_ns = 0;
            });
      consumers = [];
    }
  in
  install_broker t 0;
  install_broker t 1;
  Array.iter (fun p -> bind_producer t p) t.prods;
  register_timeseries t;
  start_housekeeping t 0;
  start_housekeeping t 1;
  t

(* ------------------------------------------------------------------ *)
(* Drain, stats, audit                                                 *)
(* ------------------------------------------------------------------ *)

let idle t =
  Array.for_all
    (fun p -> p.p_inflight = 0 && p.p_pending = 0 && p.p_scheduled = 0)
    t.prods

let drain t ~deadline =
  let deadline = t.t0 + deadline in
  let step = 5_000_000 in
  let rec loop () =
    if idle t then true
    else begin
      let now = Fabric.now t.fab in
      if now >= deadline then false
      else begin
        Fabric.run_until t.fab (min deadline (now + step));
        loop ()
      end
    end
  in
  loop ()

type stats = {
  s_produced : int;
  s_acked : int;
  s_redeliveries : int;
  s_refetches : int;
  s_delivered : int;
  s_appends : int * int;
  s_dedup : int * int;
  s_stale : int * int;
  s_gap : int * int;
  s_log : int * int;
  s_max_attempt : int;
  s_blackout_ns : int;
}

let stats t =
  let pair f = (f 0, f 1) in
  {
    s_produced =
      Array.fold_left (fun a p -> a + (p.p_next_seq - 1)) 0 t.prods;
    s_acked = Array.fold_left (fun a p -> a + p.p_acked_n) 0 t.prods;
    s_redeliveries =
      Array.fold_left (fun a p -> a + p.p_redeliveries) 0 t.prods;
    s_refetches = List.fold_left (fun a c -> a + c.k_refetches) 0 t.consumers;
    s_delivered =
      List.fold_left (fun a c -> a + c.k_delivered_n) 0 t.consumers;
    s_appends = pair (fun bi -> ctr_total t bi Handlers.mq_ctr_appends);
    s_dedup = pair (fun bi -> ctr_total t bi Handlers.mq_ctr_dup);
    s_stale = pair (fun bi -> ctr_total t bi Handlers.mq_ctr_stale);
    s_gap = pair (fun bi -> ctr_total t bi Handlers.mq_ctr_gap);
    s_log = pair (log_count t);
    s_max_attempt =
      Array.fold_left (fun a p -> max a p.p_max_attempt) 0 t.prods;
    s_blackout_ns =
      Array.fold_left (fun a p -> max a p.p_max_gap_ns) 0 t.prods;
  }

type audit = {
  a_ok : bool;
  a_errors : string list;  (* first few failures, human-readable *)
  a_log_len : int;
  a_acked : int;
  a_delivered : int;
}

(* Replay the authoritative (replica) log and check the delivery
   contract end to end: every acknowledged (producer, seq) appears
   exactly once, at the acknowledged offset, with intact payload;
   per-producer sequences are strictly increasing in offset order; and
   everything consumers recorded matches the log. With
   [check_prefix_equal] (clean runs only) the primary log must be
   identical — chained replication kept the copies in lockstep. *)
let audit ?(check_prefix_equal = false) t =
  let errors = ref [] in
  let nerr = ref 0 in
  let err fmt =
    Printf.ksprintf
      (fun s ->
        incr nerr;
        if !nerr <= 12 then errors := s :: !errors)
      fmt
  in
  let mem = broker_mem t 1 in
  let b = t.brokers.(1) in
  let count = log_count t 1 in
  if count < 0 || count > t.spec.capacity then
    err "replica log count %d outside [0, %d]" count t.spec.capacity;
  let count = max 0 (min count t.spec.capacity) in
  let slot o field =
    Memory.load32 mem (b.b_log.Memory.base + (o * slot_stride) + field)
  in
  let seen = Hashtbl.create 256 in
  let last = Array.make t.spec.producers 0 in
  for o = 0 to count - 1 do
    let p = slot o Handlers.mq_slot_off_producer in
    let s = slot o Handlers.mq_slot_off_seq in
    let len = slot o Handlers.mq_slot_off_len in
    if p < 0 || p >= t.spec.producers then
      err "offset %d: producer %d out of range" o p
    else begin
      if Hashtbl.mem seen (p, s) then
        err "offset %d: duplicate append of (%d, %d)" o p s
      else Hashtbl.add seen (p, s) o;
      if s <= last.(p) then
        err "offset %d: producer %d seq %d not above %d (offset order)" o p s
          last.(p)
      else last.(p) <- s;
      if len <> t.spec.payload_words * 4 then
        err "offset %d: payload length %d" o len
      else
        for w = 0 to t.spec.payload_words - 1 do
          if
            slot o (Handlers.mq_slot_header + (4 * w))
            <> payload_word ~producer:p ~seq:s ~w
          then err "offset %d: payload word %d corrupt" o w
        done
    end
  done;
  let acked = ref 0 in
  Array.iter
    (fun p ->
      if p.p_inflight <> 0 || p.p_pending <> 0 then
        err "producer %d not drained (inflight %d, pending %d)" p.p_idx
          p.p_inflight p.p_pending;
      if p.p_max_attempt > t.spec.max_attempts then
        err "producer %d needed %d attempts (bound %d)" p.p_idx p.p_max_attempt
          t.spec.max_attempts;
      let prev_off = ref (-1) in
      List.iter
        (fun (seq, off, _ts) ->
          incr acked;
          (match Hashtbl.find_opt seen (p.p_idx, seq) with
          | Some o when o = off -> ()
          | Some o ->
            err "acked (%d, %d) at offset %d but logged at %d" p.p_idx seq off
              o
          | None -> err "acked (%d, %d) missing from the log" p.p_idx seq);
          if off <= !prev_off then
            err "producer %d: ack offsets not increasing at seq %d" p.p_idx seq;
          prev_off := off)
        (List.rev p.p_acked))
    t.prods;
  let delivered = ref 0 in
  List.iter
    (fun c ->
      List.iter
        (fun (off, p, s, payload_ok) ->
          incr delivered;
          if not payload_ok then
            err "consumer %d: corrupt payload at offset %d" c.k_idx off;
          match Hashtbl.find_opt seen (p, s) with
          | Some o when o = off -> ()
          | _ -> err "consumer %d: offset %d (%d, %d) not in the log" c.k_idx off p s)
        c.k_delivered)
    t.consumers;
  if check_prefix_equal then begin
    let pcount = log_count t 0 in
    if pcount <> count then
      err "primary log %d entries, replica %d (clean run)" pcount count;
    let pmem = broker_mem t 0 in
    let pb = t.brokers.(0) in
    for o = 0 to min pcount count - 1 do
      for w = 0 to (slot_stride / 4) - 1 do
        if
          Memory.load32 pmem (pb.b_log.Memory.base + (o * slot_stride) + (4 * w))
          <> slot o (4 * w)
        then err "logs differ at offset %d word %d" o w
      done
    done
  end;
  {
    a_ok = !nerr = 0;
    a_errors = List.rev !errors;
    a_log_len = count;
    a_acked = !acked;
    a_delivered = !delivered;
  }

let acked_offsets t ~producer =
  List.rev_map (fun (s, o, ts) -> (s, o, ts)) t.prods.(producer).p_acked

let delivered t ~consumer =
  let c = List.nth t.consumers consumer in
  List.rev_map (fun (o, p, s, ok) -> (o, p, s, ok)) c.k_delivered

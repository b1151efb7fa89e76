module Kernel = Ash_kern.Kernel
module Dpf = Ash_kern.Dpf
module Machine = Ash_sim.Machine
module Memory = Ash_sim.Memory
module Engine = Ash_sim.Engine
module Baseline = Ash_pipes.Baseline
module Pipe = Ash_pipes.Pipe
module Pipelib = Ash_pipes.Pipelib
module Dilp = Ash_pipes.Dilp

type mode = Library | Fast_ash of { sandbox : bool } | Fast_upcall

type medium = Tcp_an2 of { vc : int } | Tcp_ethernet

type rto_policy =
  | Rto_fixed of int
  | Rto_adaptive of { init_ns : int; min_ns : int; max_ns : int }

let default_rto =
  Rto_adaptive
    { init_ns = 20_000_000; min_ns = 1_000_000; max_ns = 320_000_000 }

type config = {
  medium : medium;
  local_ip : int;
  local_port : int;
  remote_ip : int;
  remote_port : int;
  mss : int;
  window : int;
  checksum : bool;
  in_place : bool;
  mode : mode;
  rx_buffers : int;
  iss : int;
  rto : rto_policy;
  fast_retransmit : bool;
  dup_ack_threshold : int;
}

let default_config =
  {
    medium = Tcp_an2 { vc = 6 };
    local_ip = 0x0a000001;
    local_port = 4000;
    remote_ip = 0x0a000002;
    remote_port = 4001;
    mss = 3072;
    window = 8192;
    checksum = true;
    in_place = false;
    mode = Library;
    rx_buffers = 8;
    iss = 1000;
    rto = default_rto;
    fast_retransmit = true;
    dup_ack_threshold = 3;
  }

type stats = {
  segments_sent : int;
  segments_received : int;
  fast_path_data : int;
  fast_path_acks : int;
  fast_path_aborts : int;
  retransmits : int;
  timeout_retransmits : int;
  fast_retransmits : int;
  dup_acks_received : int;
  spurious_timeouts : int;
  out_of_order : int;
  bad_checksums : int;
}

type write_op = {
  src_addr : int;
  src_len : int;
  mutable sent : int;
  end_seq : int;
  on_complete : unit -> unit;
}

(* An outstanding (unacknowledged) segment. [sent_at] is the time of
   the most recent transmission; [rexmitted] implements Karn's rule:
   once a segment has been resent, an ack for it is ambiguous and must
   not produce an RTT sample. *)
type seg = {
  end_seq : int;
  frame : Bytes.t;
  mutable sent_at : int;
  mutable rexmitted : bool;
}

type t = {
  kernel : Kernel.t;
  cfg : config;
  mutable bind_vc : int;
  (* real AN2 vc, or the Ethernet binding's pseudo-vc (assigned when the
     filter is installed) *)
  tcb : Memory.region;
  rcv_buf : Memory.region;
  ack_buf : Memory.region;
  snd_buf : Memory.region;   (* per-segment staging for the data copy *)
  staging : Memory.region;   (* for write_string *)
  mutable pending_write : write_op option;
  mutable unacked : seg list; (* newest first *)
  mutable spare_frames : Bytes.t list;
  (* Full-size frames of acked segments, reused by [build_segment] so a
     bulk transfer does not churn 3-KB frames through the major heap. *)
  mutable rt_timer : Engine.event_id option;
  (* Jacobson/Karn retransmission state (all ns; srtt < 0 = no sample
     yet). [rto_cur] is the smoothed estimate before backoff; the
     effective timeout is [current_rto]. *)
  mutable srtt : int;
  mutable rttvar : int;
  mutable rto_cur : int;
  mutable backoff : int;
  mutable min_rtt : int; (* max_int until the first sample *)
  mutable dup_acks : int; (* consecutive, since the last fresh ack *)
  mutable rto_last : (int * int) option; (* (fired_at, snd_una then) *)
  mutable reader : (addr:int -> len:int -> unit) option;
  mutable on_connected : (unit -> unit) option;
  mutable on_closed : (unit -> unit) option;
  mutable on_peer_fin : (unit -> unit) option;
  mutable delivered_off : int;
  mutable sent_during_delivery : bool;
  mutable ip_id : int;
  (* stats *)
  mutable s_tx : int;
  mutable s_rx : int;
  mutable s_rexmit : int;
  mutable s_rexmit_to : int;
  mutable s_fast_rexmit : int;
  mutable s_dup_acks : int;
  mutable s_spurious : int;
  mutable s_ooo : int;
  mutable s_bad_cksum : int;
}

let headers_len = Packet.ip_header_len + Packet.tcp_header_len
let ack_send_overhead_ns = 7_000

(* RTO floor on the variance term: with a near-constant simulated RTT
   the variance collapses, and srtt alone would time out on the first
   queueing delay. *)
let rtt_granularity_ns = 100_000

let mem t = Machine.mem (Kernel.machine t.kernel)
let machine t = Kernel.machine t.kernel
let tcb_get t off = Tcb.get (mem t) ~base:t.tcb.Memory.base off
let tcb_set t off v = Tcb.set (mem t) ~base:t.tcb.Memory.base off v

let state t = tcb_get t Tcb.off_state
let set_state t s = tcb_set t Tcb.off_state s

let state_name t =
  match state t with
  | 0 -> "CLOSED"
  | 1 -> "LISTEN"
  | 2 -> "SYN_SENT"
  | 3 -> "SYN_RCVD"
  | 4 -> "ESTABLISHED"
  | 5 -> "FIN_WAIT_1"
  | 6 -> "FIN_WAIT_2"
  | 7 -> "CLOSE_WAIT"
  | 8 -> "LAST_ACK"
  | 9 -> "TIME_WAIT"
  | _ -> "?"

let established t = state t = Tcb.st_established

(* ------------------------------------------------------------------ *)
(* Segment construction and transmission                               *)
(* ------------------------------------------------------------------ *)

(* Build a segment as a host frame. Data payload is staged through the
   send buffer with a charged copy (the library buffers outgoing data
   for retransmission); the checksum pass is charged through the cache
   model. *)
let build_segment t ~flags ~seq ~ack ~payload =
  let m = machine t in
  let plen, cksum =
    match payload with
    | None -> (0, 0)
    | Some (src, len) ->
      Machine.copy m ~src ~dst:(t.snd_buf.Memory.base + headers_len) ~len;
      let c =
        if not t.cfg.checksum then 0
        else begin
          Kernel.app_compute t.kernel
            (Protocost.cksum_call_overhead_ns + Protocost.tcp_cksum_extra_ns);
          Baseline.cksum16_pass m ~addr:(t.snd_buf.Memory.base + headers_len)
            ~len
        end
      in
      (len, c)
  in
  (* A recycled frame needs no clearing: the two header writers cover
     all [headers_len] bytes and the payload blit the rest. *)
  let frame =
    match t.spare_frames with
    | spare :: rest when Bytes.length spare = headers_len + plen ->
      t.spare_frames <- rest;
      spare
    | _ -> Bytes.create (headers_len + plen)
  in
  Packet.Ip.write frame ~off:0
    {
      Packet.Ip.src = t.cfg.local_ip;
      dst = t.cfg.remote_ip;
      proto = Packet.Ip.proto_tcp;
      total_len = headers_len + plen;
      ttl = 64;
      id = t.ip_id;
    };
  t.ip_id <- (t.ip_id + 1) land 0xffff;
  Packet.Tcp.write frame ~off:Packet.ip_header_len
    {
      Packet.Tcp.src_port = t.cfg.local_port;
      dst_port = t.cfg.remote_port;
      seq;
      ack;
      flags;
      window = t.cfg.window;
      checksum = cksum;
    };
  if plen > 0 then
    Memory.blit_to_bytes (mem t)
      ~src:(t.snd_buf.Memory.base + headers_len)
      ~dst:frame ~dst_off:headers_len ~len:plen;
  frame

let xmit t frame =
  t.s_tx <- t.s_tx + 1;
  match t.cfg.medium with
  | Tcp_an2 { vc } -> Kernel.user_send t.kernel ~vc frame
  | Tcp_ethernet -> Kernel.eth_user_send t.kernel frame

let now_ns t = Engine.now (Kernel.engine t.kernel)

(* The effective retransmission timeout. Under the fixed policy this is
   the historical crude constant — no backoff, no adaptation — kept as
   the measurable baseline (ashbench chaos compares the two). *)
let current_rto t =
  match t.cfg.rto with
  | Rto_fixed ns -> ns
  | Rto_adaptive { min_ns; max_ns; _ } ->
    let backed = t.rto_cur lsl min t.backoff 16 in
    min max_ns (max min_ns backed)

(* Jacobson's estimator (RFC 6298 gains): SRTT <- 7/8 SRTT + 1/8 R,
   RTTVAR <- 3/4 RTTVAR + 1/4 |SRTT - R|. *)
let rtt_sample t sample =
  if sample >= 0 then begin
    if t.srtt < 0 then begin
      t.srtt <- sample;
      t.rttvar <- sample / 2
    end
    else begin
      t.rttvar <- ((3 * t.rttvar) + abs (t.srtt - sample)) / 4;
      t.srtt <- ((7 * t.srtt) + sample) / 8
    end;
    if sample < t.min_rtt then t.min_rtt <- sample;
    t.rto_cur <- t.srtt + max rtt_granularity_ns (4 * t.rttvar)
  end

(* Go-back-N: resend everything outstanding, marking each segment
   retransmitted so Karn's rule suppresses its RTT sample. [how] names
   the cause ("timeout" or "fast") on the per-segment trace event —
   the flight recorder's retransmit-storm trigger counts these. *)
let resend_outstanding t ~how =
  let module Trace = Ash_obs.Trace in
  let now = now_ns t in
  List.iter
    (fun seg ->
       seg.rexmitted <- true;
       seg.sent_at <- now;
       t.s_rexmit <- t.s_rexmit + 1;
       if Trace.enabled () then
         Trace.emit (Trace.Tcp_retransmit { how; seq = seg.end_seq });
       Kernel.app_compute t.kernel Protocost.tcp_send_overhead_ns;
       xmit t (Bytes.copy seg.frame))
    (List.rev t.unacked)

(* FIN retry limit in LAST_ACK (the R2 limit of real stacks): a peer
   that actively closed and already reclaimed its binding will never
   ack our FIN — its late segments drop as demux misses — so after this
   many consecutive timeouts the passive closer gives up and finishes
   unilaterally instead of retransmitting forever. *)
let last_ack_max_backoff = 6

let rec arm_rt_timer t =
  match t.rt_timer with
  | Some _ -> ()
  | None ->
    t.rt_timer <-
      Some
        (Engine.schedule
           (Kernel.engine t.kernel)
           ~delay:(current_rto t)
           (fun () ->
              t.rt_timer <- None;
              if t.unacked <> [] then begin
                if state t = Tcb.st_last_ack
                   && t.backoff >= last_ack_max_backoff
                then begin
                  t.unacked <- [];
                  set_state t Tcb.st_closed;
                  match t.on_closed with
                  | Some f ->
                    t.on_closed <- None;
                    f ()
                  | None -> ()
                end
                else begin
                  t.s_rexmit_to <- t.s_rexmit_to + 1;
                  t.rto_last <- Some (now_ns t, tcb_get t Tcb.off_snd_una);
                  (* Exponential backoff until a fresh ack arrives (only
                     the adaptive policy consults it). *)
                  t.backoff <- t.backoff + 1;
                  resend_outstanding t ~how:"timeout";
                  arm_rt_timer t
                end
              end))

let cancel_rt_timer t =
  match t.rt_timer with
  | Some id ->
    Engine.cancel (Kernel.engine t.kernel) id;
    t.rt_timer <- None
  | None -> ()

(* Restart the timer for the (possibly changed) outstanding window. *)
let restart_rt_timer t =
  cancel_rt_timer t;
  if t.unacked <> [] then arm_rt_timer t

(* Three duplicate acks mean the peer keeps receiving segments beyond a
   hole: retransmit without waiting for the timer (§IV-D calls the
   library's lack of this out; the adaptive stack adds it). The library
   has no reassembly queue on the receive side, so the whole window is
   resent (go-back-N), not just the first segment. *)
let fast_retransmit t =
  t.s_fast_rexmit <- t.s_fast_rexmit + 1;
  resend_outstanding t ~how:"fast";
  restart_rt_timer t

let send_pure_ack t =
  Kernel.app_compute t.kernel ack_send_overhead_ns;
  let frame =
    build_segment t ~flags:Packet.Tcp.flag_ack
      ~seq:(tcb_get t Tcb.off_snd_nxt)
      ~ack:(tcb_get t Tcb.off_rcv_nxt)
      ~payload:None
  in
  xmit t frame

let send_data_segment t ~src ~len =
  Kernel.app_compute t.kernel Protocost.tcp_send_overhead_ns;
  let seq = tcb_get t Tcb.off_snd_nxt in
  let frame =
    build_segment t ~flags:Packet.Tcp.flag_ack ~seq
      ~ack:(tcb_get t Tcb.off_rcv_nxt)
      ~payload:(Some (src, len))
  in
  tcb_set t Tcb.off_snd_nxt (seq + len);
  t.unacked <-
    { end_seq = seq + len; frame; sent_at = now_ns t; rexmitted = false }
    :: t.unacked;
  t.sent_during_delivery <- true;
  arm_rt_timer t;
  xmit t frame

(* ------------------------------------------------------------------ *)
(* Window pump and write completion                                    *)
(* ------------------------------------------------------------------ *)

let rec pump t =
  match t.pending_write with
  | None -> ()
  | Some w ->
    let snd_nxt = tcb_get t Tcb.off_snd_nxt in
    let snd_una = tcb_get t Tcb.off_snd_una in
    let inflight = snd_nxt - snd_una in
    let remaining = w.src_len - w.sent in
    let room = t.cfg.window - inflight in
    if remaining > 0 && room > 0 then begin
      let seg = Int.min t.cfg.mss (Int.min remaining room) in
      send_data_segment t ~src:(w.src_addr + w.sent) ~len:seg;
      w.sent <- w.sent + seg;
      pump t
    end

(* An acked segment's frame can be reused: its first transmission was
   that very frame, and the ack proves it was delivered (links are FIFO
   and fault plans work on copies); every retransmission sent a copy. *)
let recycle_frame t frame =
  if Bytes.length frame = t.cfg.mss + headers_len then
    t.spare_frames <- frame :: t.spare_frames

let check_acks t =
  let una = tcb_get t Tcb.off_snd_una in
  t.unacked <-
    List.filter
      (fun seg ->
         seg.end_seq > una
         || begin
           recycle_frame t seg.frame;
           false
         end)
      t.unacked;
  if t.unacked = [] then cancel_rt_timer t;
  match t.pending_write with
  | Some w when w.sent = w.src_len && una >= w.end_seq ->
    t.pending_write <- None;
    Kernel.app_compute t.kernel Protocost.tcp_sync_write_return_ns;
    w.on_complete ()
  | Some _ -> pump t
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Receive-buffer delivery                                             *)
(* ------------------------------------------------------------------ *)

let deliver_from_rcv_buf t =
  let rcv_off = tcb_get t Tcb.off_rcv_off in
  if rcv_off > t.delivered_off then begin
    let base = t.rcv_buf.Memory.base + t.delivered_off in
    let n = rcv_off - t.delivered_off in
    t.delivered_off <- rcv_off;
    t.sent_during_delivery <- false;
    (match t.reader with Some f -> f ~addr:base ~len:n | None -> ());
    (* Reset the ring when drained so the fast path never wraps. *)
    if t.delivered_off = tcb_get t Tcb.off_rcv_off then begin
      tcb_set t Tcb.off_rcv_off 0;
      t.delivered_off <- 0
    end
  end

(* ------------------------------------------------------------------ *)
(* The library receive path                                            *)
(* ------------------------------------------------------------------ *)

let parse_segment t ~addr ~len =
  if len < headers_len then None
  else begin
    let view = Bytes.create headers_len in
    Memory.blit_to_bytes (mem t) ~src:addr ~dst:view ~dst_off:0
      ~len:headers_len;
    match Packet.Ip.read view ~off:0 with
    | Error _ -> None
    | Ok ip ->
      if ip.Packet.Ip.proto <> Packet.Ip.proto_tcp || ip.Packet.Ip.total_len > len
      then None
      else begin
        match Packet.Tcp.read view ~off:Packet.ip_header_len with
        | Error _ -> None
        | Ok tcp ->
          if tcp.Packet.Tcp.dst_port <> t.cfg.local_port
             || tcp.Packet.Tcp.src_port <> t.cfg.remote_port
          then None
          else Some (tcp, ip.Packet.Ip.total_len - headers_len)
      end
  end

let process_ack t (tcp : Packet.Tcp.t) ~plen =
  if tcp.Packet.Tcp.flags.Packet.Tcp.ack then begin
    let snd_nxt = tcb_get t Tcb.off_snd_nxt in
    let snd_una = tcb_get t Tcb.off_snd_una in
    let a = tcp.Packet.Tcp.ack in
    if a > snd_una && a <= snd_nxt then begin
      let now = now_ns t in
      (* Karn's rule: only a never-retransmitted segment covered by
         this ack yields an RTT sample (the newest such one). *)
      let sample =
        List.fold_left
          (fun acc seg ->
             if seg.end_seq <= a && not seg.rexmitted then
               match acc with
               | Some best when best >= seg.sent_at -> acc
               | _ -> Some seg.sent_at
             else acc)
          None t.unacked
      in
      (match sample with
       | Some sent -> rtt_sample t (now - sent)
       | None -> ());
      (* Spurious-timeout heuristic: progress arriving sooner after an
         RTO firing than the fastest round trip ever observed must have
         been triggered by the original transmission, not the resend. *)
      (match t.rto_last with
       | Some (fired_at, una_then) when a > una_then ->
         if t.min_rtt < max_int && now - fired_at < t.min_rtt then
           t.s_spurious <- t.s_spurious + 1;
         t.rto_last <- None
       | _ -> ());
      (* Fresh ack: collapse the backoff and the dup-ack run, restart
         the timer for what is still outstanding (RFC 6298 5.3). *)
      t.backoff <- 0;
      t.dup_acks <- 0;
      tcb_set t Tcb.off_snd_una a;
      cancel_rt_timer t;
      check_acks t;
      if t.unacked <> [] then arm_rt_timer t
    end
    else if
      a = snd_una && plen = 0 && t.unacked <> []
      && state t = Tcb.st_established
    then begin
      (* A pure ack that moves nothing while data is outstanding: the
         receiver is telling us it got something out of order. *)
      t.s_dup_acks <- t.s_dup_acks + 1;
      t.dup_acks <- t.dup_acks + 1;
      if t.cfg.fast_retransmit && t.dup_acks = t.cfg.dup_ack_threshold then
        fast_retransmit t
    end
  end

let verify_payload_cksum t (tcp : Packet.Tcp.t) ~payload_addr ~plen =
  if not t.cfg.checksum || plen = 0 then true
  else begin
    Kernel.app_compute t.kernel
      (Protocost.cksum_call_overhead_ns + Protocost.tcp_cksum_extra_ns);
    let sum = Baseline.cksum16_pass (machine t) ~addr:payload_addr ~len:plen in
    if sum = tcp.Packet.Tcp.checksum then true
    else begin
      t.s_bad_cksum <- t.s_bad_cksum + 1;
      false
    end
  end

let handle_established t (tcp : Packet.Tcp.t) ~addr ~plen =
  let flags = tcp.Packet.Tcp.flags in
  process_ack t tcp ~plen;
  let rcv_nxt = tcb_get t Tcb.off_rcv_nxt in
  if plen > 0 then begin
    if tcp.Packet.Tcp.seq = rcv_nxt then begin
      let payload_addr = addr + headers_len in
      if verify_payload_cksum t tcp ~payload_addr ~plen then begin
        tcb_set t Tcb.off_rcv_nxt (rcv_nxt + plen);
        t.sent_during_delivery <- false;
        if t.cfg.in_place then begin
          (* Zero copy: the application consumes the data where the
             board DMA'ed it. *)
          match t.reader with
          | Some f -> f ~addr:payload_addr ~len:plen
          | None -> ()
        end
        else begin
          (* Traditional read interface: copy into the receive buffer
             (an additional copy the paper calls out, §IV-D). *)
          let off = tcb_get t Tcb.off_rcv_off in
          if off + plen <= t.rcv_buf.Memory.len then begin
            Machine.copy (machine t) ~src:payload_addr
              ~dst:(t.rcv_buf.Memory.base + off)
              ~len:plen;
            tcb_set t Tcb.off_rcv_off (off + plen);
            deliver_from_rcv_buf t
          end
        end;
        (* Piggyback: if the reader wrote, that segment carried the
           ack; otherwise acknowledge explicitly. *)
        if not t.sent_during_delivery then send_pure_ack t
      end
    end
    else if tcp.Packet.Tcp.seq < rcv_nxt then
      (* Old duplicate (e.g. a retransmission that crossed our ack):
         re-acknowledge. *)
      send_pure_ack t
    else begin
      (* Out of order: there is no reassembly queue (§IV-D), so the
         segment is dropped — but a duplicate ack for rcv_nxt tells the
         peer about the hole so it can fast-retransmit instead of
         waiting out its timer. *)
      t.s_ooo <- t.s_ooo + 1;
      send_pure_ack t
    end
  end;
  if flags.Packet.Tcp.fin && tcp.Packet.Tcp.seq + plen = tcb_get t Tcb.off_rcv_nxt
  then begin
    tcb_set t Tcb.off_rcv_nxt (tcb_get t Tcb.off_rcv_nxt + 1);
    set_state t Tcb.st_close_wait;
    send_pure_ack t;
    (* Passive-close notification: the application decides when to send
       its own FIN (a churn server closes here and then tears down). *)
    match t.on_peer_fin with Some f -> f () | None -> ()
  end

let handle_closing t (tcp : Packet.Tcp.t) ~plen =
  let flags = tcp.Packet.Tcp.flags in
  let st = state t in
  process_ack t tcp ~plen;
  let our_fin_acked =
    flags.Packet.Tcp.ack && tcp.Packet.Tcp.ack = tcb_get t Tcb.off_snd_nxt
  in
  let fin_arrived =
    flags.Packet.Tcp.fin && tcp.Packet.Tcp.seq + plen = tcb_get t Tcb.off_rcv_nxt
  in
  if fin_arrived then begin
    tcb_set t Tcb.off_rcv_nxt (tcb_get t Tcb.off_rcv_nxt + 1);
    send_pure_ack t
  end;
  let finish () =
    set_state t Tcb.st_closed;
    match t.on_closed with
    | Some f ->
      t.on_closed <- None;
      f ()
    | None -> ()
  in
  if st = Tcb.st_fin_wait_1 then begin
    if our_fin_acked && fin_arrived then finish ()
    else if our_fin_acked then set_state t Tcb.st_fin_wait_2
    else if fin_arrived then set_state t Tcb.st_time_wait
  end
  else if st = Tcb.st_fin_wait_2 then begin
    if fin_arrived then finish ()
  end
  else if st = Tcb.st_time_wait then begin
    if our_fin_acked then finish ()
  end
  else if st = Tcb.st_last_ack then begin
    if our_fin_acked then finish ()
  end

let on_segment_body t ~addr ~len =
  (* In the fast-path modes, reaching the library means the handler
     voluntarily aborted (or the segment arrived before setup). *)
  (match t.cfg.mode with
   | Library -> ()
   | Fast_ash _ | Fast_upcall -> Tcp_fastpath.note_miss ());
  tcb_set t Tcb.off_lib_busy 1;
  Kernel.app_compute t.kernel Protocost.tcp_header_predict_ns;
  (match parse_segment t ~addr ~len with
   | None -> ()
   | Some (tcp, plen) ->
     t.s_rx <- t.s_rx + 1;
     let flags = tcp.Packet.Tcp.flags in
     let st = state t in
     if st = Tcb.st_established
        && (not flags.Packet.Tcp.syn)
        && (not flags.Packet.Tcp.fin)
        && not flags.Packet.Tcp.rst
     then begin
       (* Header-predicted path: in-order data or a plain ack. *)
       if tcp.Packet.Tcp.seq <> tcb_get t Tcb.off_rcv_nxt && plen > 0 then
         Kernel.app_compute t.kernel Protocost.tcp_rx_overhead_ns;
       handle_established t tcp ~addr ~plen
     end
     else begin
       Kernel.app_compute t.kernel Protocost.tcp_rx_overhead_ns;
       if st = Tcb.st_established || st = Tcb.st_close_wait then
         handle_established t tcp ~addr ~plen
       else if st = Tcb.st_syn_sent then begin
         if flags.Packet.Tcp.syn && flags.Packet.Tcp.ack
            && tcp.Packet.Tcp.ack = t.cfg.iss + 1
         then begin
           tcb_set t Tcb.off_snd_una tcp.Packet.Tcp.ack;
           t.unacked <- [];
           cancel_rt_timer t;
           tcb_set t Tcb.off_rcv_nxt (tcp.Packet.Tcp.seq + 1);
           set_state t Tcb.st_established;
           send_pure_ack t;
           match t.on_connected with
           | Some f ->
             t.on_connected <- None;
             f ()
           | None -> ()
         end
       end
       else if st = Tcb.st_listen then begin
         if flags.Packet.Tcp.syn then begin
           tcb_set t Tcb.off_rcv_nxt (tcp.Packet.Tcp.seq + 1);
           set_state t Tcb.st_syn_rcvd;
           Kernel.app_compute t.kernel Protocost.tcp_send_overhead_ns;
           let frame =
             build_segment t ~flags:Packet.Tcp.flag_synack ~seq:t.cfg.iss
               ~ack:(tcb_get t Tcb.off_rcv_nxt)
               ~payload:None
           in
           tcb_set t Tcb.off_snd_nxt (t.cfg.iss + 1);
           t.unacked <-
             { end_seq = t.cfg.iss + 1; frame; sent_at = now_ns t;
               rexmitted = false }
             :: t.unacked;
           arm_rt_timer t;
           xmit t frame
         end
       end
       else if st = Tcb.st_syn_rcvd then begin
         if flags.Packet.Tcp.ack && tcp.Packet.Tcp.ack = t.cfg.iss + 1 then begin
           tcb_set t Tcb.off_snd_una tcp.Packet.Tcp.ack;
           t.unacked <- [];
           cancel_rt_timer t;
           set_state t Tcb.st_established;
           (* The third ack may already carry data. *)
           if plen > 0 then handle_established t tcp ~addr ~plen
         end
       end
       else handle_closing t tcp ~plen
     end);
  tcb_set t Tcb.off_lib_busy 0

let on_segment t ~addr ~len =
  let module Trace = Ash_obs.Trace in
  let module Span = Ash_obs.Span in
  let corr = Trace.current_corr () in
  if Trace.enabled () then
    Span.begin_span ~corr ~off:(Kernel.span_off t.kernel) Trace.Proto;
  on_segment_body t ~addr ~len;
  if Trace.enabled () then
    Span.end_span ~corr ~off:(Kernel.span_off t.kernel) Trace.Proto

(* Library reaction to a fast-path commit: sync with the TCB on the
   next poll. *)
let on_fast_commit t =
  Tcp_fastpath.note_hit ();
  deliver_from_rcv_buf t;
  check_acks t

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create kernel cfg =
  let m = Machine.mem (Kernel.machine kernel) in
  let frame_len = cfg.mss + headers_len in
  let bind_vc =
    match cfg.medium with
    | Tcp_an2 { vc } -> vc
    | Tcp_ethernet -> -1 (* assigned below, after the handler exists *)
  in
  let t =
    {
      kernel;
      cfg;
      bind_vc;
      tcb = Memory.alloc m ~name:"tcp-tcb" Tcb.size;
      rcv_buf = Memory.alloc m ~name:"tcp-rcvbuf" (2 * cfg.window);
      ack_buf = Memory.alloc m ~name:"tcp-ackbuf" headers_len;
      snd_buf = Memory.alloc m ~name:"tcp-sndbuf" frame_len;
      staging = Memory.alloc m ~name:"tcp-staging" (max cfg.window 4096);
      pending_write = None;
      unacked = [];
      spare_frames = [];
      rt_timer = None;
      srtt = -1;
      rttvar = 0;
      rto_cur =
        (match cfg.rto with
         | Rto_fixed ns -> ns
         | Rto_adaptive { init_ns; _ } -> init_ns);
      backoff = 0;
      min_rtt = max_int;
      dup_acks = 0;
      rto_last = None;
      reader = None;
      on_connected = None;
      on_closed = None;
      on_peer_fin = None;
      delivered_off = 0;
      sent_during_delivery = false;
      ip_id = 1;
      s_tx = 0;
      s_rx = 0;
      s_rexmit = 0;
      s_rexmit_to = 0;
      s_fast_rexmit = 0;
      s_dup_acks = 0;
      s_spurious = 0;
      s_ooo = 0;
      s_bad_cksum = 0;
    }
  in
  (* Telemetry: per-endpoint retransmit rate and live RTO, named by
     kernel and local port (unique per endpoint); unregistered on
     [teardown] so churned connections do not accumulate series. *)
  (match Ash_obs.Timeseries.current () with
   | None -> ()
   | Some ts ->
     let pre =
       Printf.sprintf "tcp.%s.p%d." (Kernel.name kernel) cfg.local_port
     in
     Ash_obs.Timeseries.register_rate ts (pre ^ "retransmits") (fun () ->
         t.s_rexmit);
     Ash_obs.Timeseries.register_gauge ts (pre ^ "rto_ns") (fun () ->
         float_of_int (current_rto t)));
  (* Initialize the TCB. *)
  tcb_set t Tcb.off_state Tcb.st_closed;
  tcb_set t Tcb.off_snd_nxt cfg.iss;
  tcb_set t Tcb.off_snd_una cfg.iss;
  tcb_set t Tcb.off_rcv_nxt 0;
  tcb_set t Tcb.off_rcv_wnd cfg.window;
  tcb_set t Tcb.off_rcv_buf_addr t.rcv_buf.Memory.base;
  tcb_set t Tcb.off_rcv_buf_size t.rcv_buf.Memory.len;
  tcb_set t Tcb.off_rcv_off 0;
  tcb_set t Tcb.off_local_port cfg.local_port;
  tcb_set t Tcb.off_remote_port cfg.remote_port;
  tcb_set t Tcb.off_ack_buf_addr t.ack_buf.Memory.base;
  (* Pre-build the ack template the fast path patches (§V-B): constant
     IP header, constant ports/window; seq/ack filled per message. *)
  let template = Bytes.create headers_len in
  Packet.Ip.write template ~off:0
    {
      Packet.Ip.src = cfg.local_ip;
      dst = cfg.remote_ip;
      proto = Packet.Ip.proto_tcp;
      total_len = headers_len;
      ttl = 64;
      id = 0;
    };
  Packet.Tcp.write template ~off:Packet.ip_header_len
    {
      Packet.Tcp.src_port = cfg.local_port;
      dst_port = cfg.remote_port;
      seq = 0;
      ack = 0;
      flags = Packet.Tcp.flag_ack;
      window = cfg.window;
      checksum = 0;
    };
  Memory.blit_from_bytes m ~src:template ~src_off:0 ~dst:t.ack_buf.Memory.base
    ~len:headers_len;
  (* Demux binding + delivery mode. *)
  let delivery =
    match cfg.mode with
    | Library -> Kernel.Deliver_user
    | Fast_ash _ | Fast_upcall -> begin
        (* The fast path always moves data with a DILP transfer; with
           checksumming enabled the pipe list also folds the Internet
           checksum into the same traversal (§V-B). *)
        let pl = Pipe.Pipelist.create () in
        let acc =
          if cfg.checksum then snd (Pipelib.cksum32 pl)
          else begin
            ignore (Pipelib.identity pl);
            0
          end
        in
        let compiled = Dilp.compile pl Dilp.Write in
        let dilp_id = Kernel.register_dilp kernel compiled in
        let prog =
          Tcp_fastpath.program
            {
              Tcp_fastpath.tcb_addr = t.tcb.Memory.base;
              checksum = cfg.checksum;
              dilp_id;
              cksum_acc_reg = acc;
            }
        in
        let sandbox =
          match cfg.mode with
          | Fast_ash { sandbox } -> sandbox
          | Fast_upcall | Library -> false
        in
        match Kernel.download_ash kernel ~sandbox prog with
        | Error e ->
          failwith
            (Format.asprintf "Tcp: fast path rejected: %a" Ash_vm.Verify.pp_error
               e)
        | Ok id -> begin
            match cfg.mode with
            | Fast_upcall -> Kernel.Deliver_upcall id
            | Fast_ash _ | Library -> Kernel.Deliver_ash id
          end
      end
  in
  (match cfg.medium with
   | Tcp_an2 { vc } ->
     Kernel.bind_vc kernel ~vc delivery;
     for i = 1 to cfg.rx_buffers do
       let r = Memory.alloc m ~name:(Printf.sprintf "tcp-rx-%d" i) frame_len in
       Kernel.post_receive_buffer kernel ~vc ~addr:r.Memory.base
         ~len:r.Memory.len
     done
   | Tcp_ethernet ->
     (* Demux by protocol and ports through a compiled DPF filter, the
        Ethernet equivalent of the AN2's VC demux. *)
     let filter =
       [
         Dpf.atom ~offset:Packet.Ip.off_proto ~width:1 Packet.Ip.proto_tcp;
         Dpf.atom ~offset:(Packet.ip_header_len + Packet.Tcp.off_src_port)
           ~width:2 cfg.remote_port;
         Dpf.atom ~offset:(Packet.ip_header_len + Packet.Tcp.off_dst_port)
           ~width:2 cfg.local_port;
       ]
     in
     t.bind_vc <- Kernel.bind_eth_filter kernel filter delivery);
  Kernel.set_auto_repost kernel ~vc:t.bind_vc true;
  Kernel.set_user_handler kernel ~vc:t.bind_vc (fun ~addr ~len ->
      on_segment t ~addr ~len);
  (match cfg.mode with
   | Library -> ()
   | Fast_ash _ | Fast_upcall ->
     Kernel.set_commit_hook kernel ~vc:t.bind_vc (fun () -> on_fast_commit t));
  t

(* ------------------------------------------------------------------ *)
(* Public operations                                                   *)
(* ------------------------------------------------------------------ *)

let connect t ~on_connected =
  if state t <> Tcb.st_closed then invalid_arg "Tcp.connect: not closed";
  t.on_connected <- Some on_connected;
  set_state t Tcb.st_syn_sent;
  Kernel.app_compute t.kernel Protocost.tcp_send_overhead_ns;
  let frame =
    build_segment t ~flags:Packet.Tcp.flag_syn ~seq:t.cfg.iss ~ack:0
      ~payload:None
  in
  tcb_set t Tcb.off_snd_nxt (t.cfg.iss + 1);
  t.unacked <-
    { end_seq = t.cfg.iss + 1; frame; sent_at = now_ns t; rexmitted = false }
    :: t.unacked;
  arm_rt_timer t;
  xmit t frame

let listen t =
  if state t <> Tcb.st_closed then invalid_arg "Tcp.listen: not closed";
  set_state t Tcb.st_listen

let write t ~addr ~len ~on_complete =
  if state t <> Tcb.st_established then
    invalid_arg "Tcp.write: not established";
  if t.pending_write <> None then
    invalid_arg "Tcp.write: write already in flight";
  if len <= 0 then invalid_arg "Tcp.write: empty";
  let end_seq = tcb_get t Tcb.off_snd_nxt + len in
  t.pending_write <-
    Some { src_addr = addr; src_len = len; sent = 0; end_seq; on_complete };
  pump t

let write_string t s ~on_complete =
  let len = String.length s in
  if len > t.staging.Memory.len then invalid_arg "Tcp.write_string: too long";
  Memory.blit_from_bytes (mem t) ~src:(Bytes.of_string s) ~src_off:0
    ~dst:t.staging.Memory.base ~len;
  write t ~addr:t.staging.Memory.base ~len ~on_complete

let set_reader t f = t.reader <- Some f

let close t ~on_closed =
  let st = state t in
  if st <> Tcb.st_established && st <> Tcb.st_close_wait then
    invalid_arg "Tcp.close: bad state";
  t.on_closed <- Some on_closed;
  Kernel.app_compute t.kernel Protocost.tcp_send_overhead_ns;
  let seq = tcb_get t Tcb.off_snd_nxt in
  let frame =
    build_segment t ~flags:Packet.Tcp.flag_fin_ack ~seq
      ~ack:(tcb_get t Tcb.off_rcv_nxt)
      ~payload:None
  in
  tcb_set t Tcb.off_snd_nxt (seq + 1);
  t.unacked <-
    { end_seq = seq + 1; frame; sent_at = now_ns t; rexmitted = false }
    :: t.unacked;
  arm_rt_timer t;
  set_state t
    (if st = Tcb.st_established then Tcb.st_fin_wait_1 else Tcb.st_last_ack);
  xmit t frame

let set_on_peer_fin t f = t.on_peer_fin <- Some f

(* Release everything the endpoint pinned: the retransmission timer,
   the demux binding (so the filter leaves the merged trie / the VC
   closes on the board) and the endpoint's memory regions. The churn
   suite asserts all three return to baseline. [t] must not be used
   afterwards; any late segment for the old binding drops as a DPF
   miss, exactly like a segment for a port nobody listens on. *)
let teardown t =
  (match Ash_obs.Timeseries.current () with
   | None -> ()
   | Some ts ->
     let pre =
       Printf.sprintf "tcp.%s.p%d." (Kernel.name t.kernel) t.cfg.local_port
     in
     Ash_obs.Timeseries.unregister ts (pre ^ "retransmits");
     Ash_obs.Timeseries.unregister ts (pre ^ "rto_ns"));
  cancel_rt_timer t;
  t.pending_write <- None;
  t.unacked <- [];
  t.spare_frames <- [];
  t.reader <- None;
  t.on_connected <- None;
  t.on_closed <- None;
  t.on_peer_fin <- None;
  (match t.cfg.medium with
   | Tcp_ethernet -> Kernel.unbind_eth_filter t.kernel ~vc:t.bind_vc
   | Tcp_an2 { vc } -> Kernel.unbind_vc t.kernel ~vc);
  let m = mem t in
  List.iter (Memory.free m)
    [ t.staging; t.snd_buf; t.ack_buf; t.rcv_buf; t.tcb ]

let rcv_buffer_region t = t.rcv_buf

let stats t =
  let ks = Kernel.stats t.kernel in
  {
    segments_sent = t.s_tx;
    segments_received = t.s_rx;
    fast_path_data = tcb_get t Tcb.off_fast_data;
    fast_path_acks = tcb_get t Tcb.off_fast_acks;
    fast_path_aborts = ks.Kernel.ash_aborted_voluntary;
    retransmits = t.s_rexmit;
    timeout_retransmits = t.s_rexmit_to;
    fast_retransmits = t.s_fast_rexmit;
    dup_acks_received = t.s_dup_acks;
    spurious_timeouts = t.s_spurious;
    out_of_order = t.s_ooo;
    bad_checksums = t.s_bad_cksum;
  }

let current_rto_ns = current_rto

let srtt_ns t = if t.srtt < 0 then None else Some t.srtt

let rt_timer_armed t = t.rt_timer <> None

module Isa = Ash_vm.Isa
module Builder = Ash_vm.Builder
module Packet = Ash_proto.Packet

(* Every message and state format a generator shares with OCaml code is
   declared once below, as field offsets plus a length; the generators
   emit them as immediates. *)

let incr_magic = 0xA5A5A5A5
let incr_off_magic = 0
let incr_off_delta = 4
let incr_len = 8 (* remote-increment request: [magic | delta] *)
let pp_off_remaining = 0
let pp_off_done = 4 (* ping-pong client state: [remaining | done] *)
let rw_off_seg = 0
let rw_off_offset = 4
let rw_off_size = 8
let rw_header = 12 (* generic remote write: [seg | offset | size | data] *)
let seg_off_base = 0
let seg_off_limit = 4
let seg_entry_shift = 3 (* segment: [base | limit] *)
let rw_spec_off_ptr = 0
let rw_spec_off_size = 4
let rw_spec_header = 8 (* specific remote write: [ptr | size | data] *)

(* The UDP ports of an IP+UDP frame at the message start. *)
let udp_src_port = Packet.ip_header_len + Packet.Udp.off_src_port
let udp_dst_port = Packet.ip_header_len + Packet.Udp.off_dst_port

(* Swapping two aligned words keeps the IP checksum valid. *)
let udp_swap_back b ta tb =
  Builder.emit b (Isa.Ld32 (ta, Isa.reg_msg_addr, Packet.Ip.off_src));
  Builder.emit b (Isa.Ld32 (tb, Isa.reg_msg_addr, Packet.Ip.off_dst));
  Builder.emit b (Isa.St32 (ta, Isa.reg_msg_addr, Packet.Ip.off_dst));
  Builder.emit b (Isa.St32 (tb, Isa.reg_msg_addr, Packet.Ip.off_src));
  Builder.emit b (Isa.Ld16 (ta, Isa.reg_msg_addr, udp_src_port));
  Builder.emit b (Isa.Ld16 (tb, Isa.reg_msg_addr, udp_dst_port));
  Builder.emit b (Isa.St16 (ta, Isa.reg_msg_addr, udp_dst_port));
  Builder.emit b (Isa.St16 (tb, Isa.reg_msg_addr, udp_src_port))

let echo () =
  let b = Builder.create ~name:"echo" () in
  Builder.call b Isa.K_msg_len;
  Builder.emit b (Isa.Mov (Isa.reg_arg1, Isa.reg_arg0));
  Builder.emit b (Isa.Mov (Isa.reg_arg0, Isa.reg_msg_addr));
  Builder.call b Isa.K_send;
  Builder.commit b;
  Builder.assemble b

let remote_increment ~slot_addr =
  let b = Builder.create ~name:"remote-increment" () in
  let bad = Builder.fresh_label b in
  let v = Builder.temp b
  and want = Builder.temp b
  and delta = Builder.temp b
  and slot = Builder.temp b
  and cur = Builder.temp b in
  (* Protocol preamble: validate the message type word. *)
  Builder.emit b (Isa.Ld32 (v, Isa.reg_msg_addr, incr_off_magic));
  Builder.li b want incr_magic;
  Builder.bne b v want bad;
  (* Control initiation: the increment itself, on application state. *)
  Builder.emit b (Isa.Ld32 (delta, Isa.reg_msg_addr, incr_off_delta));
  Builder.li b slot slot_addr;
  Builder.emit b (Isa.Ld32 (cur, slot, 0));
  Builder.emit b (Isa.Add (cur, cur, delta));
  Builder.emit b (Isa.St32 (cur, slot, 0));
  (* Message initiation: reply with the new value in the first word. *)
  Builder.emit b (Isa.St32 (cur, Isa.reg_msg_addr, 0));
  Builder.emit b (Isa.Mov (Isa.reg_arg0, Isa.reg_msg_addr));
  Builder.li b Isa.reg_arg1 4;
  Builder.call b Isa.K_send;
  Builder.commit b;
  Builder.place b bad;
  Builder.abort b;
  Builder.assemble b

let pingpong_client ~state_addr =
  let b = Builder.create ~name:"pingpong-client" () in
  let done_l = Builder.fresh_label b in
  let state = Builder.temp b
  and remaining = Builder.temp b
  and one = Builder.temp b in
  Builder.li b state state_addr;
  Builder.emit b (Isa.Ld32 (remaining, state, pp_off_remaining));
  Builder.beq b remaining Isa.reg_zero done_l;
  Builder.li b one 1;
  Builder.emit b (Isa.Sub (remaining, remaining, one));
  Builder.emit b (Isa.St32 (remaining, state, pp_off_remaining));
  Builder.call b Isa.K_msg_len;
  Builder.emit b (Isa.Mov (Isa.reg_arg1, Isa.reg_arg0));
  Builder.emit b (Isa.Mov (Isa.reg_arg0, Isa.reg_msg_addr));
  Builder.call b Isa.K_send;
  Builder.commit b;
  Builder.place b done_l;
  Builder.li b one 1;
  Builder.emit b (Isa.St32 (one, state, pp_off_done));
  Builder.commit b;
  Builder.assemble b

let remote_write_generic ?(msg_off = 0) ~table_addr ~entries () =
  let b = Builder.create ~name:"remote-write-generic" () in
  let bad = Builder.fresh_label b in
  let seg = Builder.temp b
  and off = Builder.temp b
  and size = Builder.temp b
  and bound = Builder.temp b
  and entry = Builder.temp b
  and base = Builder.temp b
  and limit = Builder.temp b
  and stop = Builder.temp b in
  (* Parse and validate the request header, as the generic protocol
     must: the message has to hold the header plus the payload, the size
     has to be word-aligned and within the transfer limit. The header
     itself cannot be parsed before it is known to be present, so runts
     are rejected first — which is also the fact the download-time
     analyzer consumes to discharge the three header-load checks.
     [msg_off] shifts the whole request past any transport headers the
     raw message retains (e.g. IP+UDP when the handler is bound to an
     Ethernet DPF filter). *)
  Builder.li b bound (msg_off + rw_header);
  Builder.bltu b Isa.reg_msg_len bound bad;
  Builder.emit b (Isa.Ld32 (seg, Isa.reg_msg_addr, msg_off + rw_off_seg));
  Builder.emit b (Isa.Ld32 (off, Isa.reg_msg_addr, msg_off + rw_off_offset));
  Builder.emit b (Isa.Ld32 (size, Isa.reg_msg_addr, msg_off + rw_off_size));
  Builder.emit b (Isa.Addi (stop, size, msg_off + rw_header));
  Builder.bltu b Isa.reg_msg_len stop bad;
  Builder.emit b (Isa.Andi (stop, size, 3));
  Builder.bne b stop Isa.reg_zero bad;
  Builder.li b stop 4096;
  Builder.bltu b stop size bad;
  (* Segment-table translation with bounds checks. *)
  Builder.li b bound entries;
  Builder.bgeu b seg bound bad;
  Builder.emit b (Isa.Sll (entry, seg, seg_entry_shift));
  Builder.emit b (Isa.Addi (entry, entry, table_addr));
  Builder.emit b (Isa.Ld32 (base, entry, seg_off_base));
  Builder.emit b (Isa.Ld32 (limit, entry, seg_off_limit));
  Builder.emit b (Isa.Add (stop, off, size));
  Builder.bltu b limit stop bad;
  (* Copy the data through the trusted engine. *)
  Builder.li b Isa.reg_arg0 (msg_off + rw_header);
  Builder.emit b (Isa.Add (Isa.reg_arg1, base, off));
  Builder.emit b (Isa.Mov (Isa.reg_arg2, size));
  Builder.call b Isa.K_copy;
  Builder.commit b;
  Builder.place b bad;
  Builder.abort b;
  Builder.assemble b

let remote_write_specific () =
  let b = Builder.create ~name:"remote-write-specific" () in
  let ptr = Builder.temp b and size = Builder.temp b in
  Builder.emit b (Isa.Ld32 (ptr, Isa.reg_msg_addr, rw_spec_off_ptr));
  Builder.emit b (Isa.Ld32 (size, Isa.reg_msg_addr, rw_spec_off_size));
  Builder.li b Isa.reg_arg0 rw_spec_header;
  Builder.emit b (Isa.Mov (Isa.reg_arg1, ptr));
  Builder.emit b (Isa.Mov (Isa.reg_arg2, size));
  Builder.call b Isa.K_copy;
  Builder.commit b;
  Builder.assemble b

(* The specific remote write as a careful author would ship it: a
   two-instruction runt guard in front of the header loads. The guard
   costs two cycles but makes both header accesses provably in-bounds,
   so the download-time analyzer elides their checks — the §V-D
   "smarter sandboxer" row. *)
let remote_write_guarded () =
  let b = Builder.create ~name:"remote-write-guarded" () in
  let bad = Builder.fresh_label b in
  let ptr = Builder.temp b
  and size = Builder.temp b
  and need = Builder.temp b in
  Builder.li b need rw_spec_header;
  Builder.bltu b Isa.reg_msg_len need bad;
  Builder.emit b (Isa.Ld32 (ptr, Isa.reg_msg_addr, rw_spec_off_ptr));
  Builder.emit b (Isa.Ld32 (size, Isa.reg_msg_addr, rw_spec_off_size));
  Builder.li b Isa.reg_arg0 rw_spec_header;
  Builder.emit b (Isa.Mov (Isa.reg_arg1, ptr));
  Builder.emit b (Isa.Mov (Isa.reg_arg2, size));
  Builder.call b Isa.K_copy;
  Builder.commit b;
  Builder.place b bad;
  Builder.abort b;
  Builder.assemble b

(* ------------------------------------------------------------------ *)
(* Message-queue service handlers (Mq)                                 *)
(* ------------------------------------------------------------------ *)

(* The replicated log's hot path: produce (append + offset assignment),
   replicate-apply, and fetch/poll all run in the kernel as ASHs over
   plain memory segments. The OCaml side ({!Mq}) only does control
   plane: building request frames, retrying on timeouts, and reading
   the log for audits. Below: the frame header (after [mq_net_off]
   transport bytes), the log slot and the session-table entry. *)

let mq_magic = 0x4D514C47
let mq_off_magic = 0
let mq_off_op = 4
let mq_off_producer = 8
let mq_off_seq = 12
let mq_off_offset = 16
let mq_off_client_ip = 20
let mq_off_client_port = 24
let mq_off_len = 28
let mq_header = 32
let mq_payload_min = 4 (* one word *)
let mq_slot_off_producer = 0
let mq_slot_off_seq = 4
let mq_slot_off_len = 8
let mq_slot_header = 16 (* [producer | seq | len | reserved] *)
let mq_sess_off_seq = 0
let mq_sess_off_offset = 4
let mq_sess_shift = 3
let mq_sess_len = 1 lsl mq_sess_shift (* [last seq | last offset] *)
let mq_op_produce = 1
let mq_op_produce_ack = 2
let mq_op_fetch = 3
let mq_op_fetch_resp = 4
let mq_op_poll = 5
let mq_op_poll_resp = 6
let mq_op_replicate = 7

(* Counter-segment offsets: handlers bump these, the control plane
   reads them for telemetry and drop accounting. *)
let mq_ctr_appends = 0
let mq_ctr_dup = 4
let mq_ctr_stale = 8
let mq_ctr_gap = 12
let mq_ctr_len = 16

type mq_geometry = {
  mq_net_off : int;      (* transport header bytes before the MQ header *)
  mq_capacity : int;     (* log slots *)
  mq_producers : int;    (* session-table entries *)
  mq_slot_shift : int;   (* log2 of the slot stride *)
  mq_meta : int;         (* address of the offset counter (one word) *)
  mq_log : int;          (* address of the log ring *)
  mq_sess : int;         (* address of the session table *)
  mq_ctr : int;          (* address of the counter segment *)
}

let mq_payload_max ~slot_shift = (1 lsl slot_shift) - mq_slot_header

(* How a produce handler answers: the primary rewrites the frame into a
   replicate and chains it to the peer broker (the ack comes back from
   the far end of the chain, so an acked message is durable on both
   logs); a solo broker acks the client directly. *)
type mq_route =
  | Mq_chain of {
      self_ip : int;
      peer_ip : int;
      produce_port : int;
      repl_port : int;
    }
  | Mq_solo

(* Shared emission helpers. All field offsets are immediates, so every
   handler is specialized to its broker's segment addresses at
   download time — the paper's dynamic-code-generation idiom. *)
let mq_ld b geo r field =
  Builder.emit b (Isa.Ld32 (r, Isa.reg_msg_addr, geo.mq_net_off + field))

let mq_st b geo r field =
  Builder.emit b (Isa.St32 (r, Isa.reg_msg_addr, geo.mq_net_off + field))

let mq_bump b geo tmp addr off =
  Builder.li b tmp (geo.mq_ctr + off);
  Builder.emit b (Isa.Ld32 (addr, tmp, 0));
  Builder.emit b (Isa.Addi (addr, addr, 1));
  Builder.emit b (Isa.St32 (addr, tmp, 0))

(* Protocol preamble: runt guard (which also lets the download-time
   analyzer discharge the header-load checks), magic, expected op, and
   producer-id bounds check. Leaves the producer id in [p] and the
   producer's session-table address in [sp]. *)
let mq_preamble b geo ~op ~bad ta p sp =
  Builder.li b ta (geo.mq_net_off + mq_header + mq_payload_min);
  Builder.bltu b Isa.reg_msg_len ta bad;
  mq_ld b geo ta mq_off_magic;
  Builder.li b p mq_magic;
  Builder.bne b ta p bad;
  mq_ld b geo ta mq_off_op;
  Builder.li b p op;
  Builder.bne b ta p bad;
  mq_ld b geo p mq_off_producer;
  Builder.li b ta geo.mq_producers;
  Builder.bgeu b p ta bad;
  Builder.emit b (Isa.Sll (sp, p, mq_sess_shift));
  Builder.emit b (Isa.Addi (sp, sp, geo.mq_sess))

(* Validate the payload length field against the slot geometry and the
   actual frame, then append the message at offset [c]: slot header,
   trusted payload copy, offset counter, session update. *)
let mq_append b geo ~bad ta tb p s c len slot sp =
  mq_ld b geo len mq_off_len;
  Builder.li b ta mq_payload_min;
  Builder.bltu b len ta bad;
  Builder.li b ta (mq_payload_max ~slot_shift:geo.mq_slot_shift);
  Builder.bltu b ta len bad;
  Builder.emit b (Isa.Andi (ta, len, 3));
  Builder.bne b ta Isa.reg_zero bad;
  Builder.emit b (Isa.Addi (ta, len, geo.mq_net_off + mq_header));
  Builder.bltu b Isa.reg_msg_len ta bad;
  Builder.emit b (Isa.Sll (slot, c, geo.mq_slot_shift));
  Builder.emit b (Isa.Addi (slot, slot, geo.mq_log));
  Builder.emit b (Isa.St32 (p, slot, mq_slot_off_producer));
  Builder.emit b (Isa.St32 (s, slot, mq_slot_off_seq));
  Builder.emit b (Isa.St32 (len, slot, mq_slot_off_len));
  Builder.li b Isa.reg_arg0 (geo.mq_net_off + mq_header);
  Builder.emit b (Isa.Addi (Isa.reg_arg1, slot, mq_slot_header));
  Builder.emit b (Isa.Mov (Isa.reg_arg2, len));
  Builder.call b Isa.K_copy;
  Builder.emit b (Isa.Addi (ta, c, 1));
  Builder.li b tb geo.mq_meta;
  Builder.emit b (Isa.St32 (ta, tb, 0));
  Builder.emit b (Isa.St32 (s, sp, mq_sess_off_seq));
  Builder.emit b (Isa.St32 (c, sp, mq_sess_off_offset));
  mq_bump b geo ta tb mq_ctr_appends

(* Produce: dedup against the per-producer session, append in-sequence
   messages at the head offset, and answer per [route]. On the chained
   primary the answer is the same frame rewritten into a replicate and
   sent to the peer broker — message-initiation chaining, so the client
   ack originates from the replica and implies durability on both logs.
   A solo broker (the failover target) acks the client directly by
   swapping the frame around. Out-of-window sequences commit silently:
   the client's retry, not the broker, owns liveness. A full log aborts
   (no ack — producers stall rather than overwrite). *)
let mq_produce geo route =
  let b = Builder.create ~name:"mq-produce" () in
  let bad = Builder.fresh_label b in
  let dup = Builder.fresh_label b in
  let stale = Builder.fresh_label b in
  let respond = Builder.fresh_label b in
  let ta = Builder.temp b and tb = Builder.temp b in
  let p = Builder.temp b and sp = Builder.temp b in
  let s = Builder.temp b and l = Builder.temp b in
  let c = Builder.temp b and len = Builder.temp b in
  let slot = Builder.temp b in
  mq_preamble b geo ~op:mq_op_produce ~bad ta p sp;
  Builder.emit b (Isa.Ld32 (l, sp, mq_sess_off_seq));
  mq_ld b geo s mq_off_seq;
  Builder.beq b s l dup;
  Builder.emit b (Isa.Addi (ta, l, 1));
  Builder.bne b s ta stale;
  Builder.li b tb geo.mq_meta;
  Builder.emit b (Isa.Ld32 (c, tb, 0));
  Builder.li b ta geo.mq_capacity;
  Builder.bgeu b c ta bad;
  mq_append b geo ~bad ta tb p s c len slot sp;
  Builder.jmp b respond;
  Builder.place b dup;
  Builder.emit b (Isa.Ld32 (c, sp, mq_sess_off_offset));
  mq_bump b geo ta tb mq_ctr_dup;
  Builder.jmp b respond;
  Builder.place b stale;
  mq_bump b geo ta tb mq_ctr_stale;
  Builder.commit b;
  Builder.place b respond;
  mq_st b geo c mq_off_offset;
  (match route with
   | Mq_solo ->
     Builder.li b ta mq_op_produce_ack;
     mq_st b geo ta mq_off_op;
     udp_swap_back b ta tb;
     Builder.emit b (Isa.Mov (Isa.reg_arg0, Isa.reg_msg_addr));
     Builder.li b Isa.reg_arg1 (geo.mq_net_off + mq_header);
     Builder.call b Isa.K_send
   | Mq_chain { self_ip; peer_ip; produce_port; repl_port } ->
     Builder.li b ta mq_op_replicate;
     mq_st b geo ta mq_off_op;
     Builder.li b ta self_ip;
     Builder.emit b (Isa.St32 (ta, Isa.reg_msg_addr, Packet.Ip.off_src));
     Builder.li b ta peer_ip;
     Builder.emit b (Isa.St32 (ta, Isa.reg_msg_addr, Packet.Ip.off_dst));
     Builder.li b ta produce_port;
     Builder.emit b (Isa.St16 (ta, Isa.reg_msg_addr, udp_src_port));
     Builder.li b ta repl_port;
     Builder.emit b (Isa.St16 (ta, Isa.reg_msg_addr, udp_dst_port));
     (* Forward the whole frame: the replica appends from the same
        payload bytes. (Nothing in the fabric validates the stale IP
        checksum, so the rewrite skips recomputing it.) *)
     Builder.emit b (Isa.Mov (Isa.reg_arg0, Isa.reg_msg_addr));
     Builder.emit b (Isa.Mov (Isa.reg_arg1, Isa.reg_msg_len));
     Builder.call b Isa.K_send);
  Builder.commit b;
  Builder.place b bad;
  Builder.abort b;
  Builder.assemble b

(* Replicate-apply on the replica. Acceptance is purely session-based —
   no payload comparison is needed for safety:
   - [seq = last]: duplicate of an already-applied message (retry after
     a lost ack, or a solo append the primary is now re-chaining).
     Re-ack with the stored offset; never append.
   - [seq < last]: below the dedup window; count and drop.
   - [seq > last+1]: the gapless prefix would get a hole (a lost
     replicate, or a primary running ahead); count and drop — the
     producer's retries replay the missing messages in order.
   - [seq = last+1] but [offset <> count]: primary/replica divergence
     (a partition split the chain); count and drop rather than append
     at the wrong offset. The client's retry re-heals via the solo
     path after it redirects.
   Only [seq = last+1 && offset = count] appends, and the appended
   offset equals the chained offset, so an acked (producer, seq) names
   the same slot on both logs. *)
let mq_replicate geo ~self_ip ~produce_port =
  let b = Builder.create ~name:"mq-replicate" () in
  let bad = Builder.fresh_label b in
  let dup = Builder.fresh_label b in
  let stale = Builder.fresh_label b in
  let gap = Builder.fresh_label b in
  let ack = Builder.fresh_label b in
  let ta = Builder.temp b and tb = Builder.temp b in
  let p = Builder.temp b and sp = Builder.temp b in
  let s = Builder.temp b and l = Builder.temp b in
  let c = Builder.temp b and len = Builder.temp b in
  let slot = Builder.temp b and o = Builder.temp b in
  mq_preamble b geo ~op:mq_op_replicate ~bad ta p sp;
  Builder.emit b (Isa.Ld32 (l, sp, mq_sess_off_seq));
  mq_ld b geo s mq_off_seq;
  mq_ld b geo o mq_off_offset;
  Builder.beq b s l dup;
  Builder.bltu b s l stale;
  Builder.emit b (Isa.Addi (ta, l, 1));
  Builder.bne b s ta gap;
  Builder.li b tb geo.mq_meta;
  Builder.emit b (Isa.Ld32 (c, tb, 0));
  Builder.bne b o c gap;
  Builder.li b ta geo.mq_capacity;
  Builder.bgeu b c ta bad;
  mq_append b geo ~bad ta tb p s c len slot sp;
  Builder.jmp b ack;
  Builder.place b dup;
  Builder.emit b (Isa.Ld32 (c, sp, mq_sess_off_offset));
  mq_st b geo c mq_off_offset;
  mq_bump b geo ta tb mq_ctr_dup;
  Builder.jmp b ack;
  Builder.place b stale;
  mq_bump b geo ta tb mq_ctr_stale;
  Builder.commit b;
  Builder.place b gap;
  mq_bump b geo ta tb mq_ctr_gap;
  Builder.commit b;
  Builder.place b ack;
  (* Ack straight to the client named in the frame (the chain's sender
     was the primary, so a plain swap would answer the wrong host). *)
  Builder.li b ta mq_op_produce_ack;
  mq_st b geo ta mq_off_op;
  Builder.li b ta self_ip;
  Builder.emit b (Isa.St32 (ta, Isa.reg_msg_addr, Packet.Ip.off_src));
  mq_ld b geo ta mq_off_client_ip;
  Builder.emit b (Isa.St32 (ta, Isa.reg_msg_addr, Packet.Ip.off_dst));
  Builder.li b ta produce_port;
  Builder.emit b (Isa.St16 (ta, Isa.reg_msg_addr, udp_src_port));
  mq_ld b geo ta mq_off_client_port;
  Builder.emit b (Isa.St16 (ta, Isa.reg_msg_addr, udp_dst_port));
  Builder.emit b (Isa.Mov (Isa.reg_arg0, Isa.reg_msg_addr));
  Builder.li b Isa.reg_arg1 (geo.mq_net_off + mq_header);
  Builder.call b Isa.K_send;
  Builder.commit b;
  Builder.place b bad;
  Builder.abort b;
  Builder.assemble b

(* Fetch-by-offset and poll, served straight from the log segment. A
   fetch at or past the head degrades into a poll response carrying the
   head offset, so consumers learn how far behind they are from the
   same reply. Responses reuse the request frame in place — consumers
   send fetch requests padded to a full slot so the payload copy stays
   inside the message bounds. *)
let mq_fetch geo =
  let b = Builder.create ~name:"mq-fetch" () in
  let bad = Builder.fresh_label b in
  let poll = Builder.fresh_label b in
  let head = Builder.fresh_label b in
  let send = Builder.fresh_label b in
  let copy = Builder.fresh_label b in
  let ta = Builder.temp b and tb = Builder.temp b in
  let f = Builder.temp b and o = Builder.temp b in
  let c = Builder.temp b and slot = Builder.temp b in
  let len = Builder.temp b and cnt = Builder.temp b in
  let ptr = Builder.temp b and mp = Builder.temp b in
  Builder.li b ta
    (geo.mq_net_off + mq_header + mq_payload_max ~slot_shift:geo.mq_slot_shift);
  Builder.bltu b Isa.reg_msg_len ta bad;
  mq_ld b geo ta mq_off_magic;
  Builder.li b f mq_magic;
  Builder.bne b ta f bad;
  mq_ld b geo f mq_off_op;
  Builder.li b ta mq_op_poll;
  Builder.beq b f ta poll;
  Builder.li b ta mq_op_fetch;
  Builder.bne b f ta bad;
  mq_ld b geo o mq_off_offset;
  Builder.li b tb geo.mq_meta;
  Builder.emit b (Isa.Ld32 (c, tb, 0));
  Builder.bgeu b o c head;
  Builder.emit b (Isa.Sll (slot, o, geo.mq_slot_shift));
  Builder.emit b (Isa.Addi (slot, slot, geo.mq_log));
  Builder.emit b (Isa.Ld32 (ta, slot, mq_slot_off_producer));
  mq_st b geo ta mq_off_producer;
  Builder.emit b (Isa.Ld32 (ta, slot, mq_slot_off_seq));
  mq_st b geo ta mq_off_seq;
  Builder.emit b (Isa.Ld32 (len, slot, mq_slot_off_len));
  mq_st b geo len mq_off_len;
  Builder.emit b (Isa.Srl (cnt, len, 2));
  Builder.emit b (Isa.Addi (ptr, slot, mq_slot_header));
  Builder.emit b
    (Isa.Addi (mp, Isa.reg_msg_addr, geo.mq_net_off + mq_header));
  Builder.place b copy;
  Builder.emit b (Isa.Ld32 (ta, ptr, 0));
  Builder.emit b (Isa.St32 (ta, mp, 0));
  Builder.emit b (Isa.Addi (ptr, ptr, 4));
  Builder.emit b (Isa.Addi (mp, mp, 4));
  Builder.emit b (Isa.Addi (cnt, cnt, -1));
  Builder.bne b cnt Isa.reg_zero copy;
  Builder.li b ta mq_op_fetch_resp;
  mq_st b geo ta mq_off_op;
  Builder.jmp b send;
  Builder.place b poll;
  Builder.li b tb geo.mq_meta;
  Builder.emit b (Isa.Ld32 (c, tb, 0));
  Builder.place b head;
  mq_st b geo c mq_off_offset;
  Builder.li b ta mq_op_poll_resp;
  mq_st b geo ta mq_off_op;
  Builder.place b send;
  udp_swap_back b ta tb;
  Builder.emit b (Isa.Mov (Isa.reg_arg0, Isa.reg_msg_addr));
  Builder.emit b (Isa.Mov (Isa.reg_arg1, Isa.reg_msg_len));
  Builder.call b Isa.K_send;
  Builder.commit b;
  Builder.place b bad;
  Builder.abort b;
  Builder.assemble b

let dilp_deposit ~dilp_id ~dst_addr =
  let b = Builder.create ~name:"dilp-deposit" () in
  let bad = Builder.fresh_label b in
  Builder.call b Isa.K_msg_len;
  Builder.emit b (Isa.Mov (Isa.reg_arg3, Isa.reg_arg0));
  Builder.li b Isa.reg_arg0 dilp_id;
  Builder.li b Isa.reg_arg1 0;
  Builder.li b Isa.reg_arg2 dst_addr;
  Builder.call b Isa.K_dilp;
  Builder.beq b Isa.reg_arg0 Isa.reg_zero bad;
  Builder.commit b;
  Builder.place b bad;
  Builder.abort b;
  Builder.assemble b

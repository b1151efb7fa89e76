(** The canonical handlers of the paper's experiments, written against
    the VCODE-like builder exactly as an application programmer would
    write them (§II-A: protocol/application preamble, data manipulation,
    then commit or abort code).

    Each returns an unassembled-from-source {!Ash_vm.Program.t} ready to
    be passed to {!Ash_kern.Kernel.download_ash} (which verifies and
    optionally sandboxes it).

    Each message or state layout a handler shares with OCaml code is
    declared here once: the byte offsets ([*_off_*]) of its 32-bit
    big-endian fields, and its length. *)

val incr_magic : int
val incr_off_magic : int
val incr_off_delta : int
val incr_len : int
(** The remote-increment request: [magic | delta]. *)

val pp_off_remaining : int
val pp_off_done : int
(** The ping-pong client's state: bounces left, and a done flag. *)

val rw_off_seg : int
val rw_off_offset : int
val rw_off_size : int
val rw_header : int
(** The generic remote-write request: [seg | offset | size | data]. *)

val seg_off_base : int
val seg_off_limit : int
(** A segment-table entry of the generic remote write: [base | limit]. *)

val rw_spec_off_ptr : int
val rw_spec_off_size : int
val rw_spec_header : int
(** The application-specific remote-write request: [ptr | size | data]. *)

val echo : unit -> Ash_vm.Program.t
(** Reply with the incoming message verbatim and consume it — the
    server side of the raw latency benchmarks (Table I). *)

val remote_increment : slot_addr:int -> Ash_vm.Program.t
(** The remote-increment active message of Table V. The handler
    validates the magic (protocol preamble), adds [delta] to the 32-bit
    application word at [slot_addr], overwrites the message's first word
    with the new value, replies with those 4 bytes, and commits. A bad
    magic takes the voluntary-abort path, falling back to user-level
    delivery. *)

val pingpong_client : state_addr:int -> Ash_vm.Program.t
(** In-kernel ping-pong client (Table I's "in-kernel AN2" row) over the
    state words at [state_addr]: on each reply, decrement the bounces
    left; if zero, set the done flag and stop; otherwise bounce the
    message back. *)

val remote_write_generic :
  ?msg_off:int -> table_addr:int -> entries:int -> unit -> Ash_vm.Program.t
(** The generic remote write of §V-D, after Thekkath et al.: the
    request starts [msg_off] bytes into the raw message (default 0; pass
    28 when the handler sees whole IP+UDP frames off an Ethernet DPF
    binding). The handler bounds-checks [seg] against the [entries]-entry
    segment table at [table_addr], validates [offset + size <= limit],
    and copies the data via the trusted engine. Aborts on any
    validation failure. *)

val remote_write_specific : unit -> Ash_vm.Program.t
(** The application-specific remote write of §V-D: trusted peers send a
    raw pointer, and the handler copies directly — "the handler assumes
    it is given a pointer to memory, instead of a segment descriptor and
    offset". Fewer instructions than the generic version even after
    sandboxing, the paper's headline §V-D claim. *)

val remote_write_guarded : unit -> Ash_vm.Program.t
(** {!remote_write_specific} plus a two-instruction runt guard before
    the header loads. The guard makes both loads provably in-bounds, so
    download-time analysis ({!Ash_vm.Absint}) elides their sandbox
    checks — the "smarter sandboxer" §V-D speculates about. *)

val udp_swap_back :
  Ash_vm.Builder.t -> Ash_vm.Isa.reg -> Ash_vm.Isa.reg -> unit
(** Emit code that swaps, through two temps, the IP addresses and the
    UDP ports of the IP+UDP frame at the message start: the frame then
    routes back to its sender. *)

val dilp_deposit : dilp_id:int -> dst_addr:int -> Ash_vm.Program.t
(** Message vectoring with integrated processing: run the registered
    DILP transfer [dilp_id] over the whole message, depositing it at
    [dst_addr]; abort (fall back to the library) if the transfer engine
    rejects. Exercises the [K_dilp] kernel call from handler code. *)

(** {1 Replicated message-queue handlers}

    The in-kernel data plane of {!Mq}: produce (offset assignment +
    append), replicate-apply, and fetch/poll over four memory
    segments — a log ring of [1 lsl mq_slot_shift]-byte slots, a
    one-word offset counter, a per-producer session table that doubles
    as the dedup window, and the counters. *)

val mq_magic : int
val mq_off_magic : int
val mq_off_op : int
val mq_off_producer : int
val mq_off_seq : int
val mq_off_offset : int
val mq_off_client_ip : int
val mq_off_client_port : int
val mq_off_len : int
val mq_header : int
(** The frame header after the [mq_net_off] transport bytes: [magic |
    op | producer | seq | offset | client_ip | client_port | len], then
    [len] payload bytes. *)

val mq_slot_off_producer : int
val mq_slot_off_seq : int
val mq_slot_off_len : int
val mq_slot_header : int
(** A log slot: [producer | seq | len | reserved], then the payload. *)

val mq_sess_len : int
(** A session-table entry, one per producer: [last_seq | last_offset]. *)

val mq_op_produce : int
val mq_op_produce_ack : int
val mq_op_fetch : int
val mq_op_fetch_resp : int
val mq_op_poll : int
val mq_op_poll_resp : int

val mq_ctr_appends : int
(** Counter-segment offsets bumped by the handlers: appends, dedup
    hits, below-window drops, replication-gap drops; {!mq_ctr_len}
    bytes total. *)

val mq_ctr_dup : int
val mq_ctr_stale : int
val mq_ctr_gap : int
val mq_ctr_len : int

type mq_geometry = {
  mq_net_off : int;  (** transport header bytes before the MQ header *)
  mq_capacity : int;  (** log slots *)
  mq_producers : int;  (** session-table entries *)
  mq_slot_shift : int;  (** log2 of the log-slot stride *)
  mq_meta : int;  (** address of the offset counter (one word) *)
  mq_log : int;  (** address of the log ring *)
  mq_sess : int;  (** address of the session table *)
  mq_ctr : int;  (** address of the counter segment *)
}

val mq_payload_max : slot_shift:int -> int
(** Largest payload a [1 lsl slot_shift]-byte slot can hold. *)

(** How a produce handler answers: [Mq_chain] rewrites the validated
    frame into a replicate and sends it to the peer broker — the ack
    then originates from the replica, so an acked message is durable on
    both logs. [Mq_solo] acks the client directly (the failover
    configuration). *)
type mq_route =
  | Mq_chain of {
      self_ip : int;
      peer_ip : int;
      produce_port : int;
      repl_port : int;
    }
  | Mq_solo

val mq_produce : mq_geometry -> mq_route -> Ash_vm.Program.t
(** Per-producer dedup against the session table ([seq = last] re-acks
    the stored offset without appending; out-of-window seqs are counted
    and dropped without a reply), in-sequence append at the head
    offset, then answer per {!mq_route}. Aborts on malformed frames and
    on a full log. *)

val mq_replicate :
  mq_geometry -> self_ip:int -> produce_port:int -> Ash_vm.Program.t
(** Replica-side apply: session-based acceptance ([seq = last+1] and
    [offset = count] appends and acks the client named in the frame;
    [seq = last] re-acks the stored offset; anything else is counted —
    stale or replication-gap — and dropped so the replica's log stays a
    gapless dedup-protected prefix). *)

val mq_fetch : mq_geometry -> Ash_vm.Program.t
(** Fetch-by-offset and poll. A fetch below the head copies the slot
    into the request frame and returns [mq_op_fetch_resp]; a fetch at
    or past the head, and every poll, returns [mq_op_poll_resp]
    carrying the head offset. Requests must be padded to a full slot so
    the in-place payload copy stays inside the frame. *)

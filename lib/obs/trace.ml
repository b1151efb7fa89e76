(* Closed drop-reason vocabulary: counters derived from drops cannot
   fragment on emission-site typos. Labels (below) are the historical
   strings. *)
type drop_reason =
  | Crc
  | Unbound
  | No_buffer
  | No_vc
  | No_pktbuf
  | Dpf_miss
  | Too_big
  | Queue_full
  | Dup_seq
  | Stale_seq
  | Repl_gap

let drop_reason_label = function
  | Crc -> "crc"
  | Unbound -> "unbound"
  | No_buffer -> "no-buffer"
  | No_vc -> "no-vc"
  | No_pktbuf -> "no-pktbuf"
  | Dpf_miss -> "dpf-miss"
  | Too_big -> "too-big"
  | Queue_full -> "queue-full"
  | Dup_seq -> "dup-seq"
  | Stale_seq -> "stale-seq"
  | Repl_gap -> "repl-gap"

(* Closed fault vocabulary for the deterministic injection layer
   (Ash_sim.Fault): same rationale as [drop_reason]. *)
type fault_kind =
  | F_drop
  | F_corrupt
  | F_truncate
  | F_duplicate
  | F_reorder
  | F_jitter

let fault_kind_label = function
  | F_drop -> "drop"
  | F_corrupt -> "corrupt"
  | F_truncate -> "truncate"
  | F_duplicate -> "duplicate"
  | F_reorder -> "reorder"
  | F_jitter -> "jitter"

(* The causal stages one message passes through (the paper's Table 2/6
   decomposition). Every span event names one of these. *)
type stage =
  | Wire
  | Rx_dma
  | Demux
  | Ash_run
  | Pipe
  | Proto
  | Deliver
  | Reply

let stage_label = function
  | Wire -> "wire"
  | Rx_dma -> "rx-dma"
  | Demux -> "demux"
  | Ash_run -> "ash-run"
  | Pipe -> "pipe"
  | Proto -> "proto"
  | Deliver -> "deliver"
  | Reply -> "reply"

let all_stages =
  [ Wire; Rx_dma; Demux; Ash_run; Pipe; Proto; Deliver; Reply ]

type kind =
  | Ev_scheduled of { at : int }
  | Ev_fired
  | Pkt_tx of { nic : string; bytes : int }
  | Pkt_rx of { nic : string; bytes : int }
  | Pkt_drop of { nic : string; reason : drop_reason }
  | Wire_tx of { bytes : int; busy_until : int }
  | Dpf_eval of { compiled : bool; matched : bool }
  | Dpf_match of { vc : int }
  | Dpf_miss
  | Upcall of { vc : int }
  | User_deliver of { vc : int }
  | Ash_dispatch of { id : int; vc : int }
  | Ash_commit of { id : int }
  | Ash_abort of { id : int }
  | Ash_kill of { id : int; reason : string }
  | Sandbox_violation of { reason : string }
  | Vm_run of {
      name : string;
      outcome : string;
      insns : int;
      check_insns : int;
      cycles : int;
    }
  | Dilp_compile of { name : string; insns : int }
  | Dilp_run of { name : string; len : int }
  | Tcp_fast_hit
  | Tcp_fast_miss
  | Tcp_retransmit of { how : string; seq : int }
  | Mq_redelivery of { producer : int; seq : int; attempt : int }
  | Ash_download of {
      id : int;
      cache_hit : bool;
      checks_elided : int;
      static_bound : int option;
    }
  | Fault_injected of { nic : string; fault : fault_kind }
  | Ash_quarantine of { id : int; kills : int }
  | Ash_rearm of { id : int }
  | Span_begin of { corr : int; stage : stage; off : int }
  | Span_end of { corr : int; stage : stage; off : int; cycles : int }
  | Mark of string

type event = { seq : int; ts : int; corr : int; kind : kind }

(* ---------------------------------------------------------------- *)
(* Domain-local emission contexts                                    *)
(* ---------------------------------------------------------------- *)

(* All ambient trace state — clock, sink, enabled flag, correlation
   allocator — lives in a per-domain emission context instead of
   process globals, so engine shards running on separate OCaml domains
   never race on it. The main domain's context is the "root":
   recorders install there and it behaves exactly like the historical
   global state. Shard contexts (see [shard_buf]) buffer stamped
   events locally and allocate correlation ids from a strided sequence
   (shard s of N hands out s+1, s+1+N, ...), so id assignment depends
   only on the shard layout, never on how domains interleave. *)
type ctx = {
  mutable c_clock : unit -> int;
  mutable c_sink : kind -> unit;
  mutable c_sink_at : ts:int -> corr:int -> kind -> unit;
  mutable c_on : bool;
  c_is_root : bool; (* taps run here; false for shard buffers *)
  c_corr_first : int;
  c_corr_stride : int;
  mutable c_corr_count : int; (* ids allocated from this context *)
  mutable c_ambient : int;
}

let make_ctx ~first ~stride ~root =
  {
    c_clock = (fun () -> 0);
    c_sink = ignore;
    c_sink_at = (fun ~ts:_ ~corr:_ _ -> ());
    c_on = false;
    c_is_root = root;
    c_corr_first = first;
    c_corr_stride = stride;
    c_corr_count = 0;
    c_ambient = 0;
  }

let root = make_ctx ~first:1 ~stride:1 ~root:true

(* Each domain's current context. The root context belongs to the main
   domain only: a worker domain's default context is non-root, so taps
   (a main-domain-only mutable list) are never touched from a worker.
   Shard events still reach the taps — the cluster's barrier merge
   re-emits them into the root context via [emit_at]. *)
let ctx_key : ctx Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
    if Domain.is_main_domain () then root
    else make_ctx ~first:1 ~stride:1 ~root:false)

(* Shard contexts installed right now, over all domains. While it is 0
   no shard slice runs anywhere, so the only domain running simulation
   code is the main one and its context is [root]: [cur] skips the
   domain-local lookup. *)
let shards_in = Atomic.make 0

let[@inline] cur () =
  if Atomic.get shards_in = 0 then root else Domain.DLS.get ctx_key

let set_clock f = (cur ()).c_clock <- f

let swap_clock f =
  let c = cur () in
  let prev = c.c_clock in
  c.c_clock <- f;
  prev

let now () = (cur ()).c_clock ()

(* ---------------------------------------------------------------- *)
(* Taps                                                              *)
(* ---------------------------------------------------------------- *)

(* A tap is a lightweight secondary consumer of the root event stream
   (the flight recorder). Taps live beside the recorder sink: they see
   every event the root context emits — including shard events merged
   in at epoch barriers — whether or not a recorder is installed, so a
   black-box recorder can stay armed while [record]/[stop] come and
   go. Main-domain only: only root contexts dispatch to taps. *)
type tap_id = int

let taps : (tap_id * (ts:int -> corr:int -> kind -> unit)) list ref = ref []
let tap_seq = ref 0

let add_tap f =
  Stdlib.incr tap_seq;
  taps := !taps @ [ (!tap_seq, f) ];
  !tap_seq

let remove_tap id = taps := List.filter (fun (i, _) -> i <> id) !taps
let run_taps ~ts ~corr k = List.iter (fun (_, f) -> f ~ts ~corr k) !taps

(* Emission sites use [enabled] to skip event construction entirely;
   an armed tap makes the stream live even without a recorder. *)
let[@inline] enabled () =
  let c = cur () in
  c.c_on || (c.c_is_root && !taps != [])

let emit k =
  let c = cur () in
  c.c_sink k;
  if c.c_is_root && !taps != [] then
    run_taps ~ts:(c.c_clock ()) ~corr:c.c_ambient k

let emit_at ~ts ~corr k =
  let c = cur () in
  c.c_sink_at ~ts ~corr k;
  if c.c_is_root && !taps != [] then run_taps ~ts ~corr k

let clear_sink () =
  let c = cur () in
  c.c_sink <- ignore;
  c.c_sink_at <- (fun ~ts:_ ~corr:_ _ -> ());
  c.c_on <- false

(* ---------------------------------------------------------------- *)
(* Correlation ids and span sampling                                 *)
(* ---------------------------------------------------------------- *)

(* A correlation id names one message's causal chain. It is allocated
   when an application initiates a send (or, failing that, at NIC
   transmit), travels through the engine's event queue (each scheduled
   event captures the ambient id and restores it around dispatch), and
   stamps every event emitted while handling the message. Id 0 means
   "no message in flight". *)

let new_corr () =
  let c = cur () in
  c.c_corr_count <- c.c_corr_count + 1;
  c.c_corr_first + ((c.c_corr_count - 1) * c.c_corr_stride)

let[@inline] current_corr () = (cur ()).c_ambient
let[@inline] set_corr v = (cur ()).c_ambient <- v

let ensure_corr () =
  let c = cur () in
  if c.c_ambient = 0 then c.c_ambient <- new_corr ();
  c.c_ambient

let with_corr v f =
  let c = cur () in
  let prev = c.c_ambient in
  c.c_ambient <- v;
  Fun.protect ~finally:(fun () -> c.c_ambient <- prev) f

let reset_corr () =
  let c = cur () in
  c.c_corr_count <- 0;
  c.c_ambient <- 0

(* Span sampling: record every Nth message's spans. Counters and
   non-span events stay exact; only [Span_begin]/[Span_end] emission is
   gated (all endpoints of one message share the same verdict, so pairs
   never tear). *)
let span_sample_every = ref 1

let set_span_sample n =
  if n < 1 then invalid_arg "Trace.set_span_sample: n must be >= 1";
  span_sample_every := n

let span_on corr =
  enabled () && corr > 0 && (corr - 1) mod !span_sample_every = 0

(* ---------------------------------------------------------------- *)
(* Shard buffers                                                     *)
(* ---------------------------------------------------------------- *)

(* A shard buffer is the emission context used while one engine shard
   executes (possibly on a worker domain): events are stamped with the
   shard's clock and ambient correlation id and appended to a local
   growable array. At each epoch barrier the cluster merges all shard
   buffers by (ts, shard index) and re-emits the events into the root
   context with [emit_at], so the recorded stream is a deterministic
   function of the simulation alone — independent of the domain
   count. *)
type stamped = { st_ts : int; st_corr : int; st_kind : kind }

type shard_buf = {
  sb_ctx : ctx;
  mutable sb_items : stamped array;
  mutable sb_len : int;
}

let dummy_stamped = { st_ts = 0; st_corr = 0; st_kind = Ev_fired }

let shard_buf ~shard ~shards =
  if shards < 1 || shard < 0 || shard >= shards then
    invalid_arg "Trace.shard_buf: shard out of range";
  let sb =
    {
      sb_ctx = make_ctx ~first:(shard + 1) ~stride:shards ~root:false;
      sb_items = Array.make 256 dummy_stamped;
      sb_len = 0;
    }
  in
  let push st =
    if sb.sb_len = Array.length sb.sb_items then begin
      let bigger = Array.make (2 * sb.sb_len) dummy_stamped in
      Array.blit sb.sb_items 0 bigger 0 sb.sb_len;
      sb.sb_items <- bigger
    end;
    sb.sb_items.(sb.sb_len) <- st;
    sb.sb_len <- sb.sb_len + 1
  in
  let c = sb.sb_ctx in
  c.c_sink <-
    (fun k -> push { st_ts = c.c_clock (); st_corr = c.c_ambient; st_kind = k });
  c.c_sink_at <-
    (fun ~ts ~corr k -> push { st_ts = ts; st_corr = corr; st_kind = k });
  sb

let shard_set_clock sb f = sb.sb_ctx.c_clock <- f
let shard_set_enabled sb on = sb.sb_ctx.c_on <- on

let with_shard sb f =
  let prev = Domain.DLS.get ctx_key in
  Domain.DLS.set ctx_key sb.sb_ctx;
  Atomic.incr shards_in;
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr shards_in;
      Domain.DLS.set ctx_key prev)
    f

let active_shards () = Atomic.get shards_in
let shard_len sb = sb.sb_len

let shard_get sb i =
  let st = sb.sb_items.(i) in
  (st.st_ts, st.st_corr, st.st_kind)

let shard_clear sb =
  if sb.sb_len > 0 then Array.fill sb.sb_items 0 sb.sb_len dummy_stamped;
  sb.sb_len <- 0

(* ---------------------------------------------------------------- *)
(* Labels and structured fields (shared by text and JSON dumps)      *)
(* ---------------------------------------------------------------- *)

let label = function
  | Ev_scheduled _ -> "engine.scheduled"
  | Ev_fired -> "engine.fired"
  | Pkt_tx _ -> "pkt.tx"
  | Pkt_rx _ -> "pkt.rx"
  | Pkt_drop _ -> "pkt.drop"
  | Wire_tx _ -> "wire.tx"
  | Dpf_eval _ -> "dpf.eval"
  | Dpf_match _ -> "dpf.match"
  | Dpf_miss -> "dpf.miss"
  | Upcall _ -> "kern.upcall"
  | User_deliver _ -> "kern.user_deliver"
  | Ash_dispatch _ -> "ash.dispatch"
  | Ash_commit _ -> "ash.commit"
  | Ash_abort _ -> "ash.abort"
  | Ash_kill _ -> "ash.kill"
  | Sandbox_violation _ -> "sandbox.violation"
  | Vm_run _ -> "vm.run"
  | Dilp_compile _ -> "dilp.compile"
  | Dilp_run _ -> "dilp.run"
  | Tcp_fast_hit -> "tcp.fast.hit"
  | Tcp_fast_miss -> "tcp.fast.miss"
  | Tcp_retransmit _ -> "tcp.retransmit"
  | Mq_redelivery _ -> "mq.redelivery"
  | Ash_download _ -> "ash.download"
  | Fault_injected _ -> "fault.injected"
  | Ash_quarantine _ -> "ash.quarantine"
  | Ash_rearm _ -> "ash.rearm"
  | Span_begin _ -> "span.begin"
  | Span_end _ -> "span.end"
  | Mark _ -> "mark"

let fields = function
  | Ev_scheduled { at } -> [ ("at", string_of_int at) ]
  | Ev_fired -> []
  | Pkt_tx { nic; bytes } | Pkt_rx { nic; bytes } ->
    [ ("nic", nic); ("bytes", string_of_int bytes) ]
  | Pkt_drop { nic; reason } ->
    [ ("nic", nic); ("reason", drop_reason_label reason) ]
  | Wire_tx { bytes; busy_until } ->
    [ ("bytes", string_of_int bytes); ("busy_until", string_of_int busy_until) ]
  | Dpf_eval { compiled; matched } ->
    [ ("compiled", string_of_bool compiled);
      ("matched", string_of_bool matched) ]
  | Dpf_match { vc } -> [ ("vc", string_of_int vc) ]
  | Dpf_miss -> []
  | Upcall { vc } | User_deliver { vc } -> [ ("vc", string_of_int vc) ]
  | Ash_dispatch { id; vc } ->
    [ ("id", string_of_int id); ("vc", string_of_int vc) ]
  | Ash_commit { id } | Ash_abort { id } -> [ ("id", string_of_int id) ]
  | Ash_kill { id; reason } ->
    [ ("id", string_of_int id); ("reason", reason) ]
  | Sandbox_violation { reason } -> [ ("reason", reason) ]
  | Vm_run { name; outcome; insns; check_insns; cycles } ->
    [ ("name", name); ("outcome", outcome);
      ("insns", string_of_int insns);
      ("check_insns", string_of_int check_insns);
      ("cycles", string_of_int cycles) ]
  | Dilp_compile { name; insns } ->
    [ ("name", name); ("insns", string_of_int insns) ]
  | Dilp_run { name; len } ->
    [ ("name", name); ("len", string_of_int len) ]
  | Tcp_fast_hit | Tcp_fast_miss -> []
  | Tcp_retransmit { how; seq } ->
    [ ("how", how); ("seq", string_of_int seq) ]
  | Mq_redelivery { producer; seq; attempt } ->
    [ ("producer", string_of_int producer); ("seq", string_of_int seq);
      ("attempt", string_of_int attempt) ]
  | Ash_download { id; cache_hit; checks_elided; static_bound } ->
    [ ("id", string_of_int id); ("cache_hit", string_of_bool cache_hit);
      ("checks_elided", string_of_int checks_elided);
      ("static_bound",
       match static_bound with None -> "none" | Some b -> string_of_int b) ]
  | Fault_injected { nic; fault } ->
    [ ("nic", nic); ("fault", fault_kind_label fault) ]
  | Ash_quarantine { id; kills } ->
    [ ("id", string_of_int id); ("kills", string_of_int kills) ]
  | Ash_rearm { id } -> [ ("id", string_of_int id) ]
  | Span_begin { corr; stage; off } ->
    [ ("corr", string_of_int corr); ("stage", stage_label stage);
      ("off", string_of_int off) ]
  | Span_end { corr; stage; off; cycles } ->
    [ ("corr", string_of_int corr); ("stage", stage_label stage);
      ("off", string_of_int off); ("cycles", string_of_int cycles) ]
  | Mark m -> [ ("label", m) ]

let pp_kind ppf k =
  Format.pp_print_string ppf (label k);
  List.iter (fun (f, v) -> Format.fprintf ppf " %s=%s" f v) (fields k)

let pp_event ppf e =
  Format.fprintf ppf "[%10d] #%-6d %a" e.ts e.seq pp_kind e.kind

(* ---------------------------------------------------------------- *)
(* Recorder: bounded ring + derived metrics                          *)
(* ---------------------------------------------------------------- *)

type recorder = {
  cap : int;
  ring : event array;
  mutable total : int; (* events ever recorded; ring keeps the last cap *)
  metrics : Metrics.t;
}

let default_capacity = 65_536

let dummy_event = { seq = -1; ts = 0; corr = 0; kind = Ev_fired }

(* Counter/histogram derivation keeps the emission sites trivial: they
   describe what happened; accounting policy lives here.

   [account] is staged: the outer call (once per recorder) interns a
   live cell for every known counter and histogram, so the per-event
   inner function bumps refs directly — no string hashing, no name
   allocation. Unknown names (test NICs, future outcomes) fall back to
   the by-name path. *)
let account m =
  let c = Metrics.counter_ref m in
  let h = Metrics.histo_ref m in
  let scheduled = c "engine.scheduled" in
  let fired = c "engine.fired" in
  let tx_an2 = c "pkt.tx.an2" in
  let tx_eth = c "pkt.tx.eth" in
  let rx_an2 = c "pkt.rx.an2" in
  let rx_eth = c "pkt.rx.eth" in
  let wire_tx = c "wire.tx" in
  let wire_tx_bytes = h "wire.tx.bytes" in
  let dpf_compiled = c "dpf.eval.compiled" in
  let dpf_interpreted = c "dpf.eval.interpreted" in
  let dpf_matched = c "dpf.eval.matched" in
  let dpf_rejected = c "dpf.eval.rejected" in
  let dpf_match = c "dpf.match" in
  let dpf_miss = c "dpf.miss" in
  let upcall = c "kern.upcall" in
  let user_deliver = c "kern.user_deliver" in
  let ash_dispatch = c "ash.dispatch" in
  let ash_commit = c "ash.commit" in
  let ash_abort = c "ash.abort" in
  let ash_kill = c "ash.kill" in
  let sandbox_violation = c "sandbox.violation" in
  let vm_run = c "vm.run" in
  let vm_commit = c "vm.outcome.commit" in
  let vm_abort = c "vm.outcome.abort" in
  let vm_return = c "vm.outcome.return" in
  let vm_kill = c "vm.outcome.kill" in
  let vm_cycles = h "vm.cycles" in
  let vm_insns = h "vm.insns" in
  let vm_check_insns = h "vm.check_insns" in
  let dilp_compile = c "dilp.compile" in
  let dilp_compile_insns = h "dilp.compile.insns" in
  let dilp_run = c "dilp.run" in
  let dilp_run_bytes = h "dilp.run.bytes" in
  let tcp_hit = c "tcp.fast.hit" in
  let tcp_miss = c "tcp.fast.miss" in
  let tcp_rexmit = c "tcp.retransmit" in
  let tcp_rexmit_timeout = c "tcp.retransmit.timeout" in
  let tcp_rexmit_fast = c "tcp.retransmit.fast" in
  let mq_redelivery = c "mq.redelivery" in
  let download = c "ash.download" in
  let cache_hit = c "ash.cache.hit" in
  let cache_miss = c "ash.cache.miss" in
  let absint_elided = c "ash.absint.checks_elided" in
  let absint_bounded = c "ash.absint.static_bounded" in
  let fault_injected = c "fault.injected" in
  let drops_fault = c "drops.fault.drop" in
  let fault_cell =
    let drop = c "fault.drop" in
    let corrupt = c "fault.corrupt" in
    let truncate = c "fault.truncate" in
    let duplicate = c "fault.duplicate" in
    let reorder = c "fault.reorder" in
    let jitter = c "fault.jitter" in
    function
    | F_drop -> drop
    | F_corrupt -> corrupt
    | F_truncate -> truncate
    | F_duplicate -> duplicate
    | F_reorder -> reorder
    | F_jitter -> jitter
  in
  let quarantine = c "ash.quarantine" in
  let rearm = c "ash.rearm" in
  let mark = c "mark" in
  let span_cell =
    let wire = c "span.wire" in
    let rx_dma = c "span.rx-dma" in
    let demux = c "span.demux" in
    let ash_run = c "span.ash-run" in
    let pipe = c "span.pipe" in
    let proto = c "span.proto" in
    let deliver = c "span.deliver" in
    let reply = c "span.reply" in
    function
    | Wire -> wire
    | Rx_dma -> rx_dma
    | Demux -> demux
    | Ash_run -> ash_run
    | Pipe -> pipe
    | Proto -> proto
    | Deliver -> deliver
    | Reply -> reply
  in
  let bump r = Stdlib.incr r in
  fun kind ->
    match kind with
    | Ev_scheduled _ -> bump scheduled
    | Ev_fired -> bump fired
    | Pkt_tx { nic = "an2"; _ } -> bump tx_an2
    | Pkt_tx { nic = "eth"; _ } -> bump tx_eth
    | Pkt_tx { nic; _ } -> Metrics.incr m ("pkt.tx." ^ nic)
    | Pkt_rx { nic = "an2"; _ } -> bump rx_an2
    | Pkt_rx { nic = "eth"; _ } -> bump rx_eth
    | Pkt_rx { nic; _ } -> Metrics.incr m ("pkt.rx." ^ nic)
    | Pkt_drop { nic; reason } ->
      (* The unified drop namespace: drops.<layer>.<reason>, where the
         layer is the dropping NIC/device name ("an2", "eth", "switch")
         and the reason is the closed [drop_reason] vocabulary. Fault
         losses land under drops.fault.drop below. *)
      Metrics.incr m ("drops." ^ nic ^ "." ^ drop_reason_label reason)
    | Wire_tx { bytes; _ } ->
      bump wire_tx;
      Metrics.observe_ref wire_tx_bytes (float_of_int bytes)
    | Dpf_eval { compiled; matched } ->
      bump (if compiled then dpf_compiled else dpf_interpreted);
      bump (if matched then dpf_matched else dpf_rejected)
    | Dpf_match _ -> bump dpf_match
    | Dpf_miss -> bump dpf_miss
    | Upcall _ -> bump upcall
    | User_deliver _ -> bump user_deliver
    | Ash_dispatch _ -> bump ash_dispatch
    | Ash_commit _ -> bump ash_commit
    | Ash_abort _ -> bump ash_abort
    | Ash_kill _ -> bump ash_kill
    | Sandbox_violation _ -> bump sandbox_violation
    | Vm_run { outcome; insns; check_insns; cycles; _ } ->
      bump vm_run;
      (match outcome with
       | "commit" -> bump vm_commit
       | "abort" -> bump vm_abort
       | "return" -> bump vm_return
       | "kill" -> bump vm_kill
       | o -> Metrics.incr m ("vm.outcome." ^ o));
      Metrics.observe_ref vm_cycles (float_of_int cycles);
      Metrics.observe_ref vm_insns (float_of_int insns);
      if check_insns > 0 then
        Metrics.observe_ref vm_check_insns (float_of_int check_insns)
    | Dilp_compile { insns; _ } ->
      bump dilp_compile;
      Metrics.observe_ref dilp_compile_insns (float_of_int insns)
    | Dilp_run { len; _ } ->
      bump dilp_run;
      Metrics.observe_ref dilp_run_bytes (float_of_int len)
    | Tcp_fast_hit -> bump tcp_hit
    | Tcp_fast_miss -> bump tcp_miss
    | Tcp_retransmit { how; _ } ->
      bump tcp_rexmit;
      (match how with
       | "timeout" -> bump tcp_rexmit_timeout
       | "fast" -> bump tcp_rexmit_fast
       | h -> Metrics.incr m ("tcp.retransmit." ^ h))
    | Mq_redelivery _ -> bump mq_redelivery
    | Ash_download { cache_hit = hit; checks_elided; static_bound; _ } ->
      bump download;
      bump (if hit then cache_hit else cache_miss);
      absint_elided := !absint_elided + checks_elided;
      if static_bound <> None then bump absint_bounded
    | Fault_injected { fault; _ } ->
      bump fault_injected;
      bump (fault_cell fault);
      if fault = F_drop then bump drops_fault
    | Ash_quarantine _ -> bump quarantine
    | Ash_rearm _ -> bump rearm
    | Span_begin _ -> ()
    | Span_end { stage; _ } -> bump (span_cell stage)
    | Mark _ -> bump mark

let record ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Trace.record: capacity must be positive";
  (* Restart correlation numbering with the recorder so same-seed runs
     produce identical streams (test_determinism compares kinds, which
     now embed correlation ids). *)
  reset_corr ();
  let r =
    {
      cap = capacity;
      ring = Array.make capacity dummy_event;
      total = 0;
      metrics = Metrics.create ();
    }
  in
  let acct = account r.metrics in
  let log ~ts ~corr kind =
    let e = { seq = r.total; ts; corr; kind } in
    r.ring.(r.total mod r.cap) <- e;
    r.total <- r.total + 1;
    acct kind
  in
  let c = cur () in
  c.c_sink <- (fun kind -> log ~ts:(c.c_clock ()) ~corr:c.c_ambient kind);
  c.c_sink_at <- log;
  c.c_on <- true;
  r

let stop _r = clear_sink ()

let total r = r.total
let dropped r = max 0 (r.total - r.cap)

let events r =
  let n = min r.total r.cap in
  let first = r.total - n in
  List.init n (fun i -> r.ring.((first + i) mod r.cap))

let metrics r = r.metrics

let clear r =
  r.total <- 0;
  Metrics.clear r.metrics

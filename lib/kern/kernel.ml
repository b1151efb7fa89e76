module Engine = Ash_sim.Engine
module Machine = Ash_sim.Machine
module Memory = Ash_sim.Memory
module Costs = Ash_sim.Costs
module Isa = Ash_vm.Isa
module Program = Ash_vm.Program
module Verify = Ash_vm.Verify
module Sandbox = Ash_vm.Sandbox
module Interp = Ash_vm.Interp
module Exec = Ash_vm.Exec
module Dilp = Ash_pipes.Dilp
module An2 = Ash_nic.An2
module Ethernet = Ash_nic.Ethernet
module Trace = Ash_obs.Trace
module Span = Ash_obs.Span
module Hop = Ash_obs.Hop

type ash_id = int

type delivery =
  | Deliver_ash of ash_id
  | Deliver_upcall of ash_id
  | Deliver_user

type app_state = Polling | Suspended

type stats = {
  ash_committed : int;
  ash_aborted_voluntary : int;
  ash_aborted_involuntary : int;
  ash_quarantined : int;
  upcalls : int;
}

type hops = { rx : Hop.t; notify : Hop.t }

type ash = {
  exec : Exec.prepared;
  sandboxed : bool;
  hardwired : bool;
  allowed : Isa.kcall list;
  sb_stats : Sandbox.stats option;
  mutable last : Interp.result option;
  mutable kills : int;        (* involuntary terminations so far *)
  mutable quarantined : bool; (* demoted to the plain user path *)
}

(* Download-time handler cache entry: the verified + sandboxed program
   and its (shared) prepared execution artifact. Keyed by the digest of
   the program as submitted plus everything that changes the artifact:
   the sandbox flag and the allowed-calls policy (which gates
   verification). *)
type cached_handler = {
  c_sb_stats : Sandbox.stats option;
  c_exec : Exec.prepared;
}

type cache_key = string * bool * bool * bool * Isa.kcall list

type cache_stats = {
  hits : int;
  misses : int;
  entries : int;
  checks_elided : int;
  static_bounded : int;
}

type binding = {
  bvc : int;
  mutable delivery : delivery;
  mutable user_handler : (addr:int -> len:int -> unit) option;
  mutable commit_hook : (unit -> unit) option;
  mutable auto_repost : bool;
  (* Notifications posted to the application but not yet consumed. The
     kernel refuses to queue more than [notify_queue_limit] of them per
     VC: a slow or wedged application sheds load here instead of
     growing an unbounded in-kernel queue. *)
  mutable inflight_notify : int;
  (* Receive-livelock protection (§VI-4): at most [ash_budget] handler
     runs per clock tick; [None] = unlimited. *)
  mutable ash_budget : int option;
  mutable ash_tick_start : Ash_sim.Time.ns;
  mutable ash_ran_this_tick : int;
  filter : Dpf.t option; (* Ethernet bindings only; unbind needs it *)
  prio : int; (* install order; lower wins on overlapping eth filters *)
}

type tx_target = Tx_an2 of int | Tx_eth

type t = {
  engine : Engine.t;
  costs : Costs.t;
  machine : Machine.t;
  kname : string;
  absint_on : bool;
  (* Snapshot of [absint_default] taken at creation: downloads on a
     worker domain must not read the process-global knob. *)
  mutable an2 : An2.t option;
  mutable eth : Ethernet.t option;
  mutable an2_hops : hops option;
  mutable eth_hops : hops option;
  ashes : (int, ash) Hashtbl.t;
  mutable next_ash : int;
  handler_cache : (cache_key, cached_handler) Hashtbl.t;
  mutable cache_hits : int;
  mutable cache_misses : int;
  dilps : (int, Dilp.compiled) Hashtbl.t;
  mutable next_dilp : int;
  bindings : (int, binding) Hashtbl.t;
  eth_trie : binding Dpf_trie.t;
  mutable next_eth_vc : int;
  mutable next_eth_prio : int;
  mutable app_state : app_state;
  mutable sched : Sched.t option;
  mutable app_proc : Sched.proc option;
  pending_tx : (tx_target * Bytes.t) Queue.t;
  mutable horizon : Ash_sim.Time.ns;
  (* Absolute time until which this node's CPU is busy: consecutive
     meter drains within one event (or closely spaced events) serialize
     behind each other instead of overlapping. *)
  mutable eth_pktbufs : int list;
  (* Graceful-degradation knobs (create-time parameters, adjustable). *)
  mutable quarantine_threshold : int;
  mutable notify_queue_limit : int;
  (* stats *)
  mutable s_ash_committed : int;
  mutable s_ash_vol : int;
  mutable s_ash_invol : int;
  mutable s_ash_quarantined : int;
  mutable s_upcalls : int;
}

(* Download-time static analysis is on unless an experiment (ashbench
   --no-absint, the exp_ablate off-row) turns it off to measure the
   fully checked sandbox. *)
let absint_default = ref true

let set_absint_default b = absint_default := b

let create ?(quarantine_threshold = 3)
    ?(notify_queue_limit = 256) engine costs ~name =
  if quarantine_threshold < 1 then invalid_arg "Kernel.create: threshold";
  if notify_queue_limit < 1 then invalid_arg "Kernel.create: queue limit";
  let t =
    {
    engine;
    costs;
    machine = Machine.create costs;
    kname = name;
    absint_on = !absint_default;
    an2 = None;
    eth = None;
    an2_hops = None;
    eth_hops = None;
    ashes = Hashtbl.create 8;
    next_ash = 0;
    handler_cache = Hashtbl.create 8;
    cache_hits = 0;
    cache_misses = 0;
    dilps = Hashtbl.create 8;
    next_dilp = 0;
    bindings = Hashtbl.create 8;
    eth_trie = Dpf_trie.create ();
    next_eth_vc = 10_000;
    next_eth_prio = 0;
    app_state = Polling;
    sched = None;
    app_proc = None;
    pending_tx = Queue.create ();
    horizon = 0;
    eth_pktbufs = [];
    quarantine_threshold;
    notify_queue_limit;
    s_ash_committed = 0;
    s_ash_vol = 0;
    s_ash_invol = 0;
    s_ash_quarantined = 0;
    s_upcalls = 0;
    }
  in
  (* Telemetry sources, when an ambient timeseries is installed. Rates
     read cumulative counts (the sampler takes deltas); gauges read
     instantaneous backlog. Registration is last-wins per name, so a
     kernel re-created under the same name continues its series. *)
  (match Ash_obs.Timeseries.current () with
   | None -> ()
   | Some ts ->
     let pre = "kern." ^ name ^ "." in
     let sum f =
       let of_medium = function None -> 0 | Some h -> f h in
       of_medium t.an2_hops + of_medium t.eth_hops
     in
     Ash_obs.Timeseries.register_rate ts (pre ^ "dispatch") (fun () ->
         sum (fun h -> Hop.frames_out h.rx));
     Ash_obs.Timeseries.register_rate ts (pre ^ "commits") (fun () ->
         t.s_ash_committed);
     Ash_obs.Timeseries.register_rate ts (pre ^ "aborts") (fun () ->
         t.s_ash_vol);
     Ash_obs.Timeseries.register_rate ts (pre ^ "cache_hits") (fun () ->
         t.cache_hits);
     Ash_obs.Timeseries.register_rate ts (pre ^ "drops") (fun () ->
         sum (fun h -> Hop.drops h.rx + Hop.drops h.notify));
     Ash_obs.Timeseries.register_gauge ts (pre ^ "busy_ns") (fun () ->
         float_of_int (max 0 (t.horizon - Engine.now t.engine)));
     Ash_obs.Timeseries.register_gauge ts (pre ^ "notify_occupancy")
       (fun () ->
         float_of_int
           (Hashtbl.fold (fun _ b acc -> acc + b.inflight_notify) t.bindings 0)));
  t

let engine t = t.engine
let machine t = t.machine

let set_quarantine_threshold t n =
  if n < 1 then invalid_arg "Kernel.set_quarantine_threshold";
  t.quarantine_threshold <- n

let set_notify_queue_limit t n =
  if n < 1 then invalid_arg "Kernel.set_notify_queue_limit";
  t.notify_queue_limit <- n

let name t = t.kname

(* ---------------------------------------------------------------- *)
(* Meter / transmit settlement                                       *)
(* ---------------------------------------------------------------- *)

(* Span-clock offset: virtual time does not move while an event runs,
   so span endpoints sit at [now + span_off] — the work already charged
   to this CPU (horizon backlog) plus the still-undrained meter. Each
   charge is counted exactly once. *)
let span_off t =
  Int.max 0 (t.horizon - Engine.now t.engine) + Machine.pending_ns t.machine

(* Open a reply span under a fresh correlation id: called at the
   app-level send entry points, where a new message's causal chain
   starts. The id stays ambient so the queued frame's transmit (and the
   whole remote processing chain) inherits it. *)
let begin_reply t =
  if Trace.enabled () then begin
    let corr = Trace.new_corr () in
    Trace.set_corr corr;
    Span.begin_span ~corr ~off:(span_off t) Trace.Reply
  end

(* A handler replying mid-run keeps the ambient id: the reply belongs
   to the message being handled, so a request plus its in-kernel reply
   reads as one causal chain. *)
let begin_reply_inherit t =
  if Trace.enabled () then
    Span.begin_span ~corr:(Trace.current_corr ()) ~off:(span_off t)
      Trace.Reply

let do_transmit t (target, frame) =
  if Trace.enabled () then
    Span.end_span ~corr:(Trace.current_corr ()) ~off:(span_off t) Trace.Reply;
  match target with
  | Tx_an2 vc -> begin
      match t.an2 with
      | Some nic -> An2.transmit nic ~vc frame
      | None -> failwith "Kernel: no AN2 attached"
    end
  | Tx_eth -> begin
      match t.eth with
      | Some nic -> Ethernet.transmit nic frame
      | None -> failwith "Kernel: no Ethernet attached"
    end

(* Drain the work meter; schedule any queued transmissions to leave the
   node when that work completes. Work serializes behind any earlier
   still-unfinished work on this CPU (the horizon), so several sends
   issued within one event leave the node in issue order. Returns the
   delay from now until the work completes. *)
let settle t =
  let d = Machine.take_ns t.machine in
  let now = Engine.now t.engine in
  let finish = Int.max now t.horizon + d in
  t.horizon <- finish;
  let delay = finish - now in
  if not (Queue.is_empty t.pending_tx) then begin
    let frames = List.of_seq (Queue.to_seq t.pending_tx) in
    Queue.clear t.pending_tx;
    ignore
      (Engine.schedule t.engine ~delay (fun () ->
           List.iter (do_transmit t) frames))
  end;
  delay

let queue_tx t target frame = Queue.add (target, frame) t.pending_tx

(* ---------------------------------------------------------------- *)
(* ASHs and DILP                                                     *)
(* ---------------------------------------------------------------- *)

let default_allowed =
  Isa.[ K_msg_read8; K_msg_read16; K_msg_read32; K_msg_write32; K_copy;
        K_dilp; K_send; K_msg_len ]

let cache_key ~sandbox ~absint ~specialize_exit ~allowed_calls program =
  ( Program.digest program, sandbox, absint, specialize_exit,
    List.sort compare allowed_calls )

let install_ash t ~sandbox ~hardwired ~allowed_calls ch =
  let id = t.next_ash in
  t.next_ash <- id + 1;
  Hashtbl.add t.ashes id
    { exec = ch.c_exec; sandboxed = sandbox; hardwired;
      allowed = allowed_calls; sb_stats = ch.c_sb_stats; last = None;
      kills = 0; quarantined = false };
  id

let emit_download ~id ~cache_hit ch =
  if Trace.enabled () then begin
    let checks_elided, static_bound =
      match ch.c_sb_stats with
      | None -> (0, None)
      | Some st -> (Sandbox.checks_elided st, st.Sandbox.static_bound)
    in
    Trace.emit
      (Trace.Ash_download { id; cache_hit; checks_elided; static_bound })
  end

let download_ash t ?(sandbox = true) ?absint ?(specialize_exit = false)
    ?(hardwired = false) ?(allowed_calls = default_allowed) program =
  let absint = match absint with Some b -> b | None -> t.absint_on in
  let key = cache_key ~sandbox ~absint ~specialize_exit ~allowed_calls
      program in
  match Hashtbl.find_opt t.handler_cache key with
  | Some ch ->
    (* Same program, same sandbox/policy: reuse the compiled artifact.
       Verification is skipped — a hit proves an identical submission
       already passed under the same allowed-calls policy. *)
    t.cache_hits <- t.cache_hits + 1;
    let id = install_ash t ~sandbox ~hardwired ~allowed_calls ch in
    emit_download ~id ~cache_hit:true ch;
    Ok id
  | None ->
    match Verify.check ~allowed_calls program with
    | Error e -> Error e
    | Ok p ->
      let p, sb_stats =
        if sandbox then
          let sp, st = Sandbox.apply ~absint ~specialize_exit p in
          (sp, Some st)
        else (p, None)
      in
      (* Compile at download time, not on first message arrival. *)
      let exec = Exec.prepare p in
      let ch = { c_sb_stats = sb_stats; c_exec = exec } in
      Hashtbl.add t.handler_cache key ch;
      t.cache_misses <- t.cache_misses + 1;
      let id = install_ash t ~sandbox ~hardwired ~allowed_calls ch in
      emit_download ~id ~cache_hit:false ch;
      Ok id

let handler_cache_stats t =
  let checks_elided, static_bounded =
    Hashtbl.fold
      (fun _ ch (el, sb) ->
         match ch.c_sb_stats with
         | None -> (el, sb)
         | Some st ->
           ( el + Sandbox.checks_elided st,
             sb + if st.Sandbox.static_bound <> None then 1 else 0 ))
      t.handler_cache (0, 0)
  in
  { hits = t.cache_hits; misses = t.cache_misses;
    entries = Hashtbl.length t.handler_cache;
    checks_elided; static_bounded }

(* End-of-life: drop every downloaded artifact. The kernel must not be
   asked to deliver messages afterwards; bindings that still reference
   ash ids will fail. *)
let teardown t =
  Hashtbl.reset t.handler_cache;
  Hashtbl.reset t.ashes;
  Hashtbl.reset t.dilps

let find_ash t id =
  match Hashtbl.find_opt t.ashes id with
  | Some a -> a
  | None -> failwith "Kernel: unknown ASH id"

let ash_sandbox_stats t id = (find_ash t id).sb_stats
let ash_last_result t id = (find_ash t id).last
let ash_prepared t id = (find_ash t id).exec
let ash_quarantined t id = (find_ash t id).quarantined
let ash_kill_count t id = (find_ash t id).kills

(* Give a quarantined handler another chance (e.g. after the
   application re-downloads a fixed program, or decides the kills were
   environmental). *)
let rearm_ash t id =
  let ash = find_ash t id in
  ash.kills <- 0;
  if ash.quarantined then begin
    ash.quarantined <- false;
    if Trace.enabled () then Trace.emit (Trace.Ash_rearm { id })
  end

let register_dilp t compiled =
  let id = t.next_dilp in
  t.next_dilp <- id + 1;
  Hashtbl.add t.dilps id compiled;
  id

(* The K_dilp implementation: look up the compiled transfer, seed its
   persistent registers from the calling handler's register file, run,
   and write the results back (§II-B import/export). *)
let dilp_callback t ~id ~src ~dst ~len ~regs =
  match Hashtbl.find_opt t.dilps id with
  | None -> false
  | Some c ->
    if len < 0 || len land 3 <> 0 then false
    else begin
      let init = List.map (fun r -> (r, regs.(r))) c.Dilp.persistent in
      let corr = Trace.current_corr () in
      let c0 = Machine.consumed_cycles t.machine in
      if Trace.enabled () then
        Span.begin_span ~corr ~off:(span_off t) Trace.Pipe;
      let result = Dilp.execute ~init t.machine c ~src ~dst ~len in
      if Trace.enabled () then
        Span.end_span ~corr ~off:(span_off t)
          ~cycles:(Machine.consumed_cycles t.machine - c0)
          Trace.Pipe;
      match result with
      | { Interp.outcome = Interp.Returned; regs = final; _ } ->
        List.iter (fun r -> regs.(r) <- final.(r)) c.Dilp.persistent;
        true
      | _ -> false
    end

(* ---------------------------------------------------------------- *)
(* Bindings                                                          *)
(* ---------------------------------------------------------------- *)

let bind_vc t ~vc delivery =
  if Hashtbl.mem t.bindings vc then invalid_arg "Kernel.bind_vc: bound";
  (match t.an2 with
   | Some nic -> An2.bind_vc nic ~vc
   | None -> failwith "Kernel.bind_vc: no AN2 attached");
  Hashtbl.add t.bindings vc
    { bvc = vc; delivery; user_handler = None; commit_hook = None;
      auto_repost = false; inflight_notify = 0; ash_budget = None;
      ash_tick_start = 0; ash_ran_this_tick = 0; filter = None; prio = -1 }

let rebind_vc t ~vc delivery =
  match Hashtbl.find_opt t.bindings vc with
  | Some b -> b.delivery <- delivery
  | None -> invalid_arg "Kernel.rebind_vc: unbound"

let bind_eth_filter t filter delivery =
  let vc = t.next_eth_vc in
  t.next_eth_vc <- vc + 1;
  let prio = t.next_eth_prio in
  t.next_eth_prio <- prio + 1;
  let b =
    { bvc = vc; delivery; user_handler = None; commit_hook = None;
      auto_repost = false; inflight_notify = 0; ash_budget = None;
      ash_tick_start = 0; ash_ran_this_tick = 0;
      filter = Some filter; prio }
  in
  Hashtbl.add t.bindings vc b;
  Dpf_trie.insert t.eth_trie ~prio filter b;
  vc

let unbind_eth_filter t ~vc =
  match Hashtbl.find_opt t.bindings vc with
  | None -> invalid_arg "Kernel.unbind_eth_filter: unbound"
  | Some b ->
    match b.filter with
    | None -> invalid_arg "Kernel.unbind_eth_filter: not an Ethernet binding"
    | Some spec ->
      Hashtbl.remove t.bindings vc;
      Dpf_trie.remove t.eth_trie ~prio:b.prio spec

let unbind_vc t ~vc =
  match Hashtbl.find_opt t.bindings vc with
  | None -> invalid_arg "Kernel.unbind_vc: unbound"
  | Some b ->
    (match b.filter with
     | Some _ ->
       invalid_arg "Kernel.unbind_vc: Ethernet binding; use unbind_eth_filter"
     | None -> ());
    Hashtbl.remove t.bindings vc;
    (match t.an2 with
     | Some nic -> An2.unbind_vc nic ~vc
     | None -> ())

(* A simulated kernel crash: beyond [teardown]'s artifact wipe, every
   demux binding disappears and queued transmissions die with the
   machine, so frames arriving while the node is down (or before a
   restarted service re-installs itself) drop gracefully at the demux
   boundary — unbound / DPF-miss counters — instead of faulting on a
   dangling ash id. The machine's memory is NOT cleared here: segment
   contents are the service's to wipe, and some crash models (battery-
   backed RAM) deliberately keep them. *)
let reboot t =
  teardown t;
  Queue.clear t.pending_tx;
  let vcs =
    Hashtbl.fold
      (fun vc b acc -> (vc, b.filter <> None) :: acc)
      t.bindings []
    |> List.sort compare
  in
  List.iter
    (fun (vc, is_eth) ->
       if is_eth then unbind_eth_filter t ~vc else unbind_vc t ~vc)
    vcs

let binding_count t = Hashtbl.length t.bindings
let eth_filter_count t = Dpf_trie.size t.eth_trie

let set_user_handler t ~vc h =
  match Hashtbl.find_opt t.bindings vc with
  | Some b -> b.user_handler <- Some h
  | None -> invalid_arg "Kernel.set_user_handler: unbound"

let set_commit_hook t ~vc h =
  match Hashtbl.find_opt t.bindings vc with
  | Some b -> b.commit_hook <- Some h
  | None -> invalid_arg "Kernel.set_commit_hook: unbound"

let post_receive_buffer t ~vc ~addr ~len =
  match t.an2 with
  | Some nic -> An2.post_buffer nic ~vc ~addr ~len
  | None -> failwith "Kernel.post_receive_buffer: no AN2 attached"

let set_auto_repost t ~vc v =
  match Hashtbl.find_opt t.bindings vc with
  | Some b -> b.auto_repost <- v
  | None -> invalid_arg "Kernel.set_auto_repost: unbound"

let set_app_state t s = t.app_state <- s

let set_ash_rate_limit t ~vc ~per_tick =
  if per_tick <= 0 then invalid_arg "Kernel.set_ash_rate_limit";
  match Hashtbl.find_opt t.bindings vc with
  | Some b -> b.ash_budget <- Some per_tick
  | None -> invalid_arg "Kernel.set_ash_rate_limit: unbound"

(* Has this binding exhausted its per-tick handler budget? Charges the
   bookkeeping the paper requires ("track the number of ASHs recently
   executed"). *)
let ash_over_budget t b =
  match b.ash_budget with
  | None -> false
  | Some budget ->
    Machine.charge_cycles t.machine 4;
    let now = Engine.now t.engine in
    let tick = t.costs.Costs.quantum_ns in
    if now - b.ash_tick_start >= tick then begin
      b.ash_tick_start <- now - (now mod tick);
      b.ash_ran_this_tick <- 0
    end;
    if b.ash_ran_this_tick >= budget then true
    else begin
      b.ash_ran_this_tick <- b.ash_ran_this_tick + 1;
      false
    end

let setup_scheduler t ~policy ~nprocs =
  if nprocs < 1 then invalid_arg "Kernel.setup_scheduler";
  let s = Sched.create t.engine t.costs ~policy in
  let app = Sched.add_proc s ~name:"app" in
  for i = 2 to nprocs do
    ignore (Sched.add_proc s ~name:(Printf.sprintf "bg%d" i))
  done;
  t.sched <- Some s;
  t.app_proc <- Some app

(* ---------------------------------------------------------------- *)
(* Send paths                                                        *)
(* ---------------------------------------------------------------- *)

let charge_ns t ns = Machine.charge_ns t.machine ns

let kernel_send_costs t = charge_ns t t.costs.Costs.kern_send_ns

let user_send_costs t =
  charge_ns t
    (t.costs.Costs.syscall_ns + t.costs.Costs.board_write_ns
     + t.costs.Costs.kern_send_ns)

let user_send t ~vc frame =
  begin_reply t;
  user_send_costs t;
  queue_tx t (Tx_an2 vc) frame;
  ignore (settle t)

let kernel_send t ~vc frame =
  begin_reply t;
  kernel_send_costs t;
  queue_tx t (Tx_an2 vc) frame;
  ignore (settle t)

let eth_user_send t frame =
  begin_reply t;
  user_send_costs t;
  queue_tx t Tx_eth frame;
  ignore (settle t)

let eth_kernel_send t frame =
  begin_reply t;
  kernel_send_costs t;
  queue_tx t Tx_eth frame;
  ignore (settle t)

let app_compute t ns = charge_ns t ns

(* ---------------------------------------------------------------- *)
(* Delivery paths                                                    *)
(* ---------------------------------------------------------------- *)

(* How long until the application can react to a notification that has
   just been posted (Tables V/VI columns; Fig. 4 curves). *)
let wakeup_wait t =
  let c = t.costs in
  match t.sched, t.app_proc with
  | Some s, Some app ->
    if Sched.is_current s app then c.Costs.poll_detect_ns
    else begin
      match Sched.policy s with
      | Sched.Oblivious_rr ->
        Sched.wait_until_scheduled s app + c.Costs.poll_detect_ns
      | Sched.Priority_boost -> Sched.wait_until_scheduled s app
    end
  | _ -> begin
      match t.app_state with
      | Polling -> c.Costs.poll_detect_ns
      | Suspended ->
        (* The paper's interrupt simulation: a dummy process polls,
           discovers the message, and yields to the application. *)
        c.Costs.poll_detect_ns + c.Costs.yield_ns
        + c.Costs.context_switch_ns
    end

(* The notification queue of a binding's medium, which is attached
   before any frame reaches the binding. *)
let notify_hop t b =
  match if b.filter <> None then t.eth_hops else t.an2_hops with
  | Some h -> h.notify
  | None -> assert false

let user_path t b ~addr ~len ~release =
  let hop = notify_hop t b in
  Hop.frame_in hop;
  if b.inflight_notify >= t.notify_queue_limit then begin
    (* The application is not draining its notifications: shed the
       message here, recycle the buffer, and let the protocols recover
       end to end — an unbounded queue would only defer the failure. *)
    Hop.drop hop Trace.Queue_full;
    release ();
    ignore (settle t)
  end
  else begin
    Hop.frame_out hop;
    b.inflight_notify <- b.inflight_notify + 1;
    if Trace.enabled () then
      Trace.emit (Trace.User_deliver { vc = b.bvc });
    (* Capture the id: the application handler may initiate a reply,
       which re-points the ambient id at the new message. *)
    let corr = Trace.current_corr () in
    if Trace.enabled () then
      Span.begin_span ~corr ~off:(span_off t) Trace.Deliver;
    let wait = wakeup_wait t in
    let d = settle t in
    ignore
      (Engine.schedule t.engine ~delay:(d + wait) (fun () ->
           b.inflight_notify <- b.inflight_notify - 1;
           charge_ns t
             (t.costs.Costs.crossing_ns + t.costs.Costs.user_rx_overhead_ns);
           (match b.user_handler with
            | Some h -> h ~addr ~len
            | None -> ());
           release ();
           ignore (settle t);
           if Trace.enabled () then
             Span.end_span ~corr ~off:(span_off t) Trace.Deliver))
  end

(* Environment for a handler executing in the kernel (ASH). *)
let ash_env t ~vc ~addr ~len ~allowed =
  {
    Interp.machine = t.machine;
    msg_addr = addr;
    msg_len = len;
    allowed_calls = allowed;
    dilp = dilp_callback t;
    send =
      (fun frame ->
         begin_reply_inherit t;
         kernel_send_costs t;
         queue_tx t (Tx_an2 vc) frame);
    gas_cycles = Interp.default_gas;
  }

(* Environment for the same handler run at user level via upcall: sends
   pay the system-call path. *)
let upcall_env t ~vc ~addr ~len ~allowed =
  {
    (ash_env t ~vc ~addr ~len ~allowed) with
    Interp.send =
      (fun frame ->
         begin_reply_inherit t;
         user_send_costs t;
         queue_tx t (Tx_an2 vc) frame);
  }

let eth_env base t =
  {
    base with
    Interp.send =
      (fun frame ->
         begin_reply_inherit t;
         kernel_send_costs t;
         queue_tx t Tx_eth frame);
  }

let run_handler_common t b ~id ~corr ~c0 ~addr ~len ~release ~env ~upcall
    ~(ash : ash) =
  let r = Exec.run env ash.exec in
  ash.last <- Some r;
  if Trace.enabled () then
    Span.end_span ~corr ~off:(span_off t)
      ~cycles:(Machine.consumed_cycles t.machine - c0)
      Trace.Ash_run;
  match r.Interp.outcome with
  | Interp.Committed ->
    t.s_ash_committed <- t.s_ash_committed + 1;
    if Trace.enabled () then Trace.emit (Trace.Ash_commit { id });
    release ();
    (match b.commit_hook with
     | None -> ignore (settle t)
     | Some hook ->
       (* The owning application notices the handler's effects on its
          next poll of the shared state. After an upcall the
          application's address space is already active (the upcall ran
          in it), so only the poll cost applies; after an in-kernel ASH
          the application must be running or be woken. *)
       if Trace.enabled () then
         Span.begin_span ~corr ~off:(span_off t) Trace.Deliver;
       let wait =
         if upcall then
           t.costs.Costs.poll_detect_ns + t.costs.Costs.upcall_resume_ns
         else wakeup_wait t
       in
       let d = settle t in
       ignore
         (Engine.schedule t.engine ~delay:(d + wait) (fun () ->
              charge_ns t t.costs.Costs.crossing_ns;
              hook ();
              ignore (settle t);
              if Trace.enabled () then
                Span.end_span ~corr ~off:(span_off t) Trace.Deliver)))
  | Interp.Aborted | Interp.Returned ->
    t.s_ash_vol <- t.s_ash_vol + 1;
    if Trace.enabled () then Trace.emit (Trace.Ash_abort { id });
    (* Voluntary abort: the kernel handles the message normally. *)
    user_path t b ~addr ~len ~release
  | Interp.Killed v ->
    t.s_ash_invol <- t.s_ash_invol + 1;
    if Trace.enabled () then
      Trace.emit
        (Trace.Ash_kill
           { id; reason = Format.asprintf "%a" Ash_vm.Isa.pp_violation v });
    ash.kills <- ash.kills + 1;
    if (not ash.quarantined) && ash.kills >= t.quarantine_threshold
    then begin
      (* Repeat offender: demote the handler. Messages keep flowing via
         the plain user path until {!rearm_ash}. *)
      ash.quarantined <- true;
      t.s_ash_quarantined <- t.s_ash_quarantined + 1;
      if Trace.enabled () then
        Trace.emit (Trace.Ash_quarantine { id; kills = ash.kills })
    end;
    user_path t b ~addr ~len ~release

let ash_path t b ~id ~ash ~eth ~addr ~len ~release =
  if Trace.enabled () then
    Trace.emit (Trace.Ash_dispatch { id; vc = b.bvc });
  let corr = Trace.current_corr () in
  let c0 = Machine.consumed_cycles t.machine in
  if Trace.enabled () then
    Span.begin_span ~corr ~off:(span_off t) Trace.Ash_run;
  if not ash.hardwired then begin
    charge_ns t t.costs.Costs.ash_dispatch_ns;
    if ash.sandboxed then charge_ns t (2 * t.costs.Costs.ash_timer_ns)
  end;
  let env = ash_env t ~vc:b.bvc ~addr ~len ~allowed:ash.allowed in
  let env = if eth then eth_env env t else env in
  run_handler_common t b ~id ~corr ~c0 ~addr ~len ~release ~env ~upcall:false
    ~ash

let upcall_path t b ~id ~ash ~eth ~addr ~len ~release =
  t.s_upcalls <- t.s_upcalls + 1;
  if Trace.enabled () then begin
    Trace.emit (Trace.Upcall { vc = b.bvc });
    Trace.emit (Trace.Ash_dispatch { id; vc = b.bvc })
  end;
  let corr = Trace.current_corr () in
  let c0 = Machine.consumed_cycles t.machine in
  if Trace.enabled () then
    Span.begin_span ~corr ~off:(span_off t) Trace.Ash_run;
  charge_ns t t.costs.Costs.upcall_ns;
  if t.app_state = Suspended then
    charge_ns t t.costs.Costs.upcall_suspended_extra_ns;
  let env = upcall_env t ~vc:b.bvc ~addr ~len ~allowed:ash.allowed in
  let env = if eth then eth_env env t else env in
  run_handler_common t b ~id ~corr ~c0 ~addr ~len ~release ~env ~upcall:true
    ~ash;
  (* Return crossing from the upcall back into the kernel. *)
  charge_ns t t.costs.Costs.crossing_ns

(* Quarantine wins before any budget bookkeeping: a demoted handler
   must not run, and [ash_over_budget] has side effects. *)
let dispatch t b ~eth ~addr ~len ~release =
  match b.delivery with
  | Deliver_ash id ->
    let ash = find_ash t id in
    if ash.quarantined || ash_over_budget t b then
      user_path t b ~addr ~len ~release
    else ash_path t b ~id ~ash ~eth ~addr ~len ~release
  | Deliver_upcall id ->
    let ash = find_ash t id in
    if ash.quarantined then user_path t b ~addr ~len ~release
    else upcall_path t b ~id ~ash ~eth ~addr ~len ~release
  | Deliver_user -> user_path t b ~addr ~len ~release

(* ---------------------------------------------------------------- *)
(* Driver receive hooks                                              *)
(* ---------------------------------------------------------------- *)

let on_an2_rx t hops (rx : An2.rx) =
  Hop.frame_in hops.rx;
  match Hashtbl.find_opt t.bindings rx.An2.vc with
  | None -> Hop.drop hops.rx Trace.Unbound
  | Some b ->
    let corr = Trace.current_corr () in
    if Trace.enabled () then
      Span.begin_span ~corr ~off:(span_off t) Trace.Rx_dma;
    (* Software cache flush of the message location after DMA (§V). *)
    Machine.flush_range t.machine ~addr:rx.An2.addr ~len:rx.An2.len;
    charge_ns t t.costs.Costs.kern_rx_ns;
    if Trace.enabled () then
      Span.end_span ~corr ~off:(span_off t) Trace.Rx_dma;
    if not rx.An2.crc_ok then begin
      (* Link-level corruption: the driver drops the frame at the rx
         boundary — it never reaches demux or handler dispatch — and
         recycles the buffer; protocols recover end to end. *)
      Hop.drop hops.rx Trace.Crc;
      if b.auto_repost then
        post_receive_buffer t ~vc:rx.An2.vc ~addr:rx.An2.addr
          ~len:rx.An2.buf_len;
      ignore (settle t)
    end
    else begin
      let release () =
        if b.auto_repost then
          post_receive_buffer t ~vc:rx.An2.vc ~addr:rx.An2.addr
            ~len:rx.An2.buf_len
      in
      Hop.frame_out hops.rx;
      dispatch t b ~eth:false ~addr:rx.An2.addr ~len:rx.An2.len ~release
    end

let eth_pktbuf_count = 32

let take_pktbuf t =
  match t.eth_pktbufs with
  | [] -> None
  | p :: rest ->
    t.eth_pktbufs <- rest;
    Some p

let on_eth_rx t eth hops (rx : Ethernet.rx) =
  Hop.frame_in hops.rx;
  let corr = Trace.current_corr () in
  let end_rx_dma () =
    if Trace.enabled () then
      Span.end_span ~corr ~off:(span_off t) Trace.Rx_dma
  in
  if Trace.enabled () then
    Span.begin_span ~corr ~off:(span_off t) Trace.Rx_dma;
  charge_ns t t.costs.Costs.kern_rx_ns;
  if not rx.Ethernet.crc_ok then begin
    (* Corrupt frame: dropped before DPF demux ever sees it. *)
    Ethernet.release_buffer eth ~ring_addr:rx.Ethernet.ring_addr;
    end_rx_dma ();
    Hop.drop hops.rx Trace.Crc;
    ignore (settle t)
  end
  else begin
    match take_pktbuf t with
    | None ->
      Ethernet.release_buffer eth ~ring_addr:rx.Ethernet.ring_addr;
      end_rx_dma ();
      Hop.drop hops.rx Trace.No_pktbuf;
      ignore (settle t)
    | Some pktbuf ->
      (* The mandatory copy out of the device's limited buffers
         (§V-A1), de-striping as it goes (§III-C). *)
      Ethernet.destripe eth rx ~dst:pktbuf;
      Ethernet.release_buffer eth ~ring_addr:rx.Ethernet.ring_addr;
      end_rx_dma ();
      let len = rx.Ethernet.len in
      let release () = t.eth_pktbufs <- pktbuf :: t.eth_pktbufs in
      let c0 = Machine.consumed_cycles t.machine in
      if Trace.enabled () then
        Span.begin_span ~corr ~off:(span_off t) Trace.Demux;
      let matching =
        Dpf_trie.lookup t.eth_trie t.machine ~msg_addr:pktbuf ~msg_len:len
      in
      if Trace.enabled () then
        Span.end_span ~corr ~off:(span_off t)
          ~cycles:(Machine.consumed_cycles t.machine - c0)
          Trace.Demux;
      (match matching with
       | None ->
         release ();
         if Trace.enabled () then Trace.emit Trace.Dpf_miss;
         Hop.drop hops.rx Trace.Dpf_miss;
         ignore (settle t)
       | Some b ->
         if Trace.enabled () then
           Trace.emit (Trace.Dpf_match { vc = b.bvc });
         Hop.frame_out hops.rx;
         dispatch t b ~eth:true ~addr:pktbuf ~len ~release)
  end

let medium_hops nic = { rx = Hop.create nic; notify = Hop.create nic }

let attach_an2 t nic =
  if t.an2 <> None then invalid_arg "Kernel.attach_an2: already attached";
  t.an2 <- Some nic;
  let hops = medium_hops "an2" in
  t.an2_hops <- Some hops;
  An2.set_rx_handler nic (on_an2_rx t hops)

let attach_ethernet t nic =
  if t.eth <> None then invalid_arg "Kernel.attach_ethernet: already attached";
  t.eth <- Some nic;
  let hops = medium_hops "eth" in
  t.eth_hops <- Some hops;
  let mem = Machine.mem t.machine in
  t.eth_pktbufs <-
    List.init eth_pktbuf_count (fun i ->
        (Memory.alloc mem
           ~name:(Printf.sprintf "eth-pktbuf-%d" i)
           t.costs.Costs.eth_mtu)
          .Memory.base);
  Ethernet.set_rx_handler nic (on_eth_rx t nic hops)

let an2 t =
  match t.an2 with
  | Some nic -> nic
  | None -> invalid_arg "Kernel.an2: no AN2 board attached"

let ethernet t =
  match t.eth with
  | Some nic -> nic
  | None -> invalid_arg "Kernel.ethernet: no Ethernet NIC attached"

let an2_hops t =
  match t.an2_hops with
  | Some h -> h
  | None -> invalid_arg "Kernel.an2_hops: no AN2 board attached"

let eth_hops t =
  match t.eth_hops with
  | Some h -> h
  | None -> invalid_arg "Kernel.eth_hops: no Ethernet NIC attached"

let stats t =
  {
    ash_committed = t.s_ash_committed;
    ash_aborted_voluntary = t.s_ash_vol;
    ash_aborted_involuntary = t.s_ash_invol;
    ash_quarantined = t.s_ash_quarantined;
    upcalls = t.s_upcalls;
  }

(** The per-node kernel: Aegis as the ASH system needs it.

    One instance models everything running on one DECstation: the device
    drivers, the demultiplexing step, the ASH registry and dispatch path,
    fast upcalls, the default user-level delivery path, and the send
    system calls. All CPU work is charged to the node's
    {!Ash_sim.Machine.t}; the kernel drains the meter and schedules
    follow-on events (transmissions, application handler invocations) on
    the shared engine, so end-to-end latencies emerge from the executed
    paths rather than from closed-form formulas.

    Delivery modes per demux binding mirror the paper's comparison
    columns (Tables V and VI):
    - [Deliver_ash]: run the downloaded handler in the kernel directly
      from the driver ("ASHs are invoked directly from the AN2 device
      driver, just after it performs a software cache flush of the
      message location").
    - [Deliver_upcall]: dispatch a fast asynchronous upcall and run the
      same handler at user level; sends from it pay the system-call
      path.
    - [Deliver_user]: default path — enqueue a notification; the
      application sees it after polling/scheduling delay and pays the
      full user receive path.

    A handler that aborts (voluntarily or not) falls back to
    [Deliver_user], as the paper's TCP handler does when header
    prediction fails.

    Graceful degradation under faults: frames whose link CRC fails are
    dropped at the receive boundary (before demux or dispatch) as
    [Crc]; per-VC user notifications are bounded, shedding load as a
    [Queue_full] drop when the application stops draining them (both
    counted at the medium's {!hops}); and a handler killed
    [quarantine_threshold] times is quarantined — demoted to the plain
    user path — until {!rearm_ash}. *)

type t

type ash_id

type delivery =
  | Deliver_ash of ash_id
  | Deliver_upcall of ash_id
  | Deliver_user

type app_state =
  | Polling    (** Scheduled and spinning on the notification ring. *)
  | Suspended  (** Not scheduled; must be woken (the paper simulates the
                   interrupt with a polling dummy process that yields). *)

type stats = {
  ash_committed : int;
  ash_aborted_voluntary : int;
  ash_aborted_involuntary : int;
  ash_quarantined : int;      (** Quarantine demotions so far. *)
  upcalls : int;
}

(** The two hops a kernel owns for each attached medium, both traced
    under the medium's label (["an2"] or ["eth"]). *)
type hops = {
  rx : Ash_obs.Hop.t;
      (** The receive boundary: in, every driver-hook call; out, every
          frame dispatched to a binding. Dropped as [Crc] (link CRC
          failed; never demuxed) and, on the AN2, [Unbound] (no
          binding for the VC) or, on the Ethernet, [No_pktbuf] (no
          packet buffer to copy the ring slot into) and [Dpf_miss] (no
          filter matched). *)
  notify : Ash_obs.Hop.t;
      (** The user-level notification queues of the medium's bindings:
          in, every message taking the user path (an ASH's abort or
          kill included); out, every notification accepted; dropped as
          [Queue_full] at a binding's [notify_queue_limit]. *)
}

type demux =
  | Demux_linear  (** Run each installed filter's program in install
                      order — the pre-trie baseline. *)
  | Demux_trie    (** One walk of the merged filter trie
                      ({!Dpf_trie}). *)

val create :
  ?quarantine_threshold:int ->
  ?notify_queue_limit:int ->
  Ash_sim.Engine.t ->
  Ash_sim.Costs.t ->
  name:string ->
  t
(** [quarantine_threshold] (default 3, must be ≥ 1) is the number of
    involuntary kills after which a handler is quarantined.
    [notify_queue_limit] (default 256, ≥ 1) bounds outstanding
    user-level notifications per VC. Both raise [Invalid_argument] on
    non-positive values and can be adjusted later with the setters. *)

val set_quarantine_threshold : t -> int -> unit
val set_notify_queue_limit : t -> int -> unit

val engine : t -> Ash_sim.Engine.t
val machine : t -> Ash_sim.Machine.t
val name : t -> string

val set_eth_demux : t -> demux -> unit
(** Switch the Ethernet demux strategy (default [Demux_trie]; tests
    compare the two on live bindings). It is a host-side choice:
    simulated numbers are identical across modes whenever filters don't
    overlap in cost-visible ways (a lone filter charges identically
    under both). *)

val span_off : t -> int
(** Span-clock offset for tracing on this node: work already charged to
    the CPU (horizon backlog) plus the undrained meter, in ns. Pass to
    {!Ash_obs.Span.begin_span}/[end_span] so span endpoints land where
    the modelled work actually completes, not at the frozen event
    time. *)

val teardown : t -> unit
(** Drop every downloaded artifact: handler cache, ASH registry and
    DILP registry. The kernel must not deliver messages afterwards. *)

val reboot : t -> unit
(** Simulate a kernel crash/reboot: {!teardown} plus removal of every
    demux binding (Ethernet filters and AN2 VCs) and of any queued
    transmissions. Unlike after a bare [teardown], the kernel stays
    safe to receive on: arrivals drop as [No_vc] at the AN2 board or
    [Dpf_miss] at the Ethernet demux until a service re-downloads and
    re-binds.
    Machine memory is not cleared — wiping segments is the service's
    part of the crash model. *)

(* -- Devices ----------------------------------------------------------- *)

val attach_an2 : t -> Ash_nic.An2.t -> unit
(** Install the driver receive hook. The NIC must belong to this node's
    machine. *)

val attach_ethernet : t -> Ash_nic.Ethernet.t -> unit

val an2 : t -> Ash_nic.An2.t
val ethernet : t -> Ash_nic.Ethernet.t
(** The attached NIC; raise [Invalid_argument] when none is. *)

val an2_hops : t -> hops
val eth_hops : t -> hops
(** The medium's hops, created when its NIC is attached; raise
    [Invalid_argument] when none is. *)

(* -- ASHs --------------------------------------------------------------- *)

val set_absint_default : bool -> unit
(** Default for [download_ash]'s [?absint] (initially [true]).
    [ashbench --no-absint] clears it to measure the fully checked
    sandbox. Each kernel snapshots the value at {!create}, so the knob
    is setup-time configuration — flipping it never races with
    downloads running on shard domains. *)

val download_ash :
  t ->
  ?sandbox:bool ->
  ?absint:bool ->
  ?specialize_exit:bool ->
  ?hardwired:bool ->
  ?allowed_calls:Ash_vm.Isa.kcall list ->
  Ash_vm.Program.t ->
  (ash_id, Ash_vm.Verify.error) result
(** Verify and (by default) sandbox a handler, install it, and hand back
    an identifier — the download step of §II. [sandbox:false] installs
    the unsafe variant measured in Tables V/VI. [absint] (default
    {!set_absint_default}, initially on) runs the download-time abstract
    interpreter so the sandboxer can elide statically proven checks and
    replace gas probes with a static worst-case bound (§III-B);
    [specialize_exit:true] additionally drops the overly general exit
    code (§V-D). [hardwired:true] marks hand-written in-kernel code
    (Table I's "in-kernel" row): it skips the per-invocation ASH
    dispatch and timer costs.

    Downloads are cached: re-submitting a program with an equal
    {!Ash_vm.Program.digest} under the same [sandbox]/[absint]/
    [specialize_exit] flags and allowed-calls policy skips verification
    and sandboxing and shares the already-compiled execution artifact
    ([hardwired] only affects per-invocation dispatch cost, so it is
    not part of the key). The closure artifact is generated here, at
    download time. *)

type cache_stats = {
  hits : int;
  misses : int;
  entries : int;
  checks_elided : int;
      (** Sandbox checks elided by download-time analysis, summed over
          cached artifacts. *)
  static_bounded : int;
      (** Cached artifacts whose worst-case cycles were statically
          bounded (gas probes elided). *)
}

val handler_cache_stats : t -> cache_stats

val ash_prepared : t -> ash_id -> Ash_vm.Exec.prepared
(** Instrumentation: the installed handler's shared execution artifact
    (two cache-hitting downloads return physically equal values). *)

val ash_sandbox_stats : t -> ash_id -> Ash_vm.Sandbox.stats option
(** Instructions added by the sandboxer ([None] for unsandboxed). *)

val ash_last_result : t -> ash_id -> Ash_vm.Interp.result option
(** Instrumentation: the most recent invocation's interpreter result
    (dynamic instruction counts, §V-B/§V-D). *)

val ash_quarantined : t -> ash_id -> bool
val ash_kill_count : t -> ash_id -> int
(** Involuntary terminations since download (or the last re-arm). *)

val rearm_ash : t -> ash_id -> unit
(** Lift a quarantine and zero the kill count: the handler runs again
    on the next matching message. Emits an [ash.rearm] trace event if
    it was actually quarantined; a no-op re-arm is silent. *)

(* -- Dynamic ILP -------------------------------------------------------- *)

val register_dilp : t -> Ash_pipes.Dilp.compiled -> int
(** Make a compiled pipe list callable from handlers via [K_dilp]; the
    returned handle is the id to load into [reg_arg0]. *)

(* -- Demultiplexing and delivery ---------------------------------------- *)

val bind_vc : t -> vc:int -> delivery -> unit
(** Bind an AN2 virtual circuit (and open it on the attached NIC). *)

val unbind_vc : t -> vc:int -> unit
(** Tear down an AN2 binding: the VC closes on the NIC (still-posted
    receive buffers are forgotten with it). Raises [Invalid_argument]
    for an unbound vc or an Ethernet filter binding (use
    {!unbind_eth_filter} for those). *)

val binding_count : t -> int
(** Installed demux bindings, AN2 VCs and Ethernet filters together —
    the churn suite's leak check. *)

val eth_filter_count : t -> int
(** Filters currently merged into the demux trie. *)

val demux_maintenance_units : t -> int
(** Monotonic count of host-side work units spent maintaining demux
    structures (bind, unbind, ordered-list rebuilds; each unit is O(1)
    work). The churn regression budgets this: n bind/unbind pairs must
    stay within O(n) units, so a quadratic rescan cannot land
    silently. *)

val rebind_vc : t -> vc:int -> delivery -> unit
(** Change the delivery mode of an existing binding (e.g. disable ASHs
    under load, §VI-4). *)

val bind_eth_filter : t -> Dpf.t -> delivery -> int
(** Install a compiled packet filter for Ethernet demux; first installed
    match wins. The filter is merged into the demux trie incrementally.
    Returns the binding's pseudo-vc (10000, 10001, ...), usable with
    {!set_user_handler}, {!rebind_vc} and {!unbind_eth_filter}. *)

val unbind_eth_filter : t -> vc:int -> unit
(** Remove exactly the filter installed under this pseudo-vc, from both
    the binding table and the demux trie. Raises [Invalid_argument] if
    [vc] is unbound or not an Ethernet filter binding. *)

val set_user_handler : t -> vc:int -> (addr:int -> len:int -> unit) -> unit
(** Application code run on user-level delivery (and on handler
    fallback). It runs in application context: charge application work
    via {!app_compute}; send with {!user_send}. For Ethernet bindings,
    use the [vc] value returned by binding order: filter bindings get
    pseudo-vc numbers 10000, 10001, ... *)

val set_commit_hook : t -> vc:int -> (unit -> unit) -> unit
(** Application code run (in application context, after the usual
    wakeup/poll delay and boundary crossing) whenever a downloaded
    handler on this binding commits. Models the library noticing, on its
    next poll of the shared TCB/ring, that the handler consumed a
    message — how the paper's synchronous [write] learns that its ack
    was absorbed by the ASH. *)

val post_receive_buffer : t -> vc:int -> addr:int -> len:int -> unit
val set_auto_repost : t -> vc:int -> bool -> unit
(** Repost a consumed receive buffer automatically after ASH commit —
    the steady-state of a ping-pong server. Default [false]. *)

(* -- Application execution state ---------------------------------------- *)

val set_app_state : t -> app_state -> unit
(** Default [Polling]. *)

val set_ash_rate_limit : t -> vc:int -> per_tick:int -> unit
(** Receive-livelock protection (§VI-4): "the operating system must
    track the number of ASHs recently executed for each process and
    refuse to execute any more for processes receiving more than their
    share of messages." Allow at most [per_tick] handler executions per
    clock tick on this binding; excess arrivals take the default
    user-level path (ASHs are "an eager, not a lazy technique" — under
    overload the kernel falls back to lazy delivery at the receiver's
    priority). The tick is the scheduler quantum. *)

val setup_scheduler : t -> policy:Sched.policy -> nprocs:int -> unit
(** Install a process-rotation model with [nprocs] runnable processes
    (the application is one of them) — Fig. 4's competing-process
    experiment. Without this call, scheduling delay is modeled only
    through {!set_app_state}. *)

(* -- Sends --------------------------------------------------------------- *)

(** Every send hands the frame to the stack: the NIC puts the caller's
    bytes on the wire without copying them, so the caller must not
    mutate a frame once it is sent. It may send the same unchanged frame
    again. *)

val user_send : t -> vc:int -> Bytes.t -> unit
(** Transmit from application context: pays the system call, the
    user-level writes to the AN2 board, and the kernel transmit path. *)

val kernel_send : t -> vc:int -> Bytes.t -> unit
(** Transmit from kernel context (hardwired code or testbed kernels):
    pays only the kernel transmit path. *)

val eth_user_send : t -> Bytes.t -> unit
val eth_kernel_send : t -> Bytes.t -> unit

val app_compute : t -> Ash_sim.Time.ns -> unit
(** Charge application-level work (protocol library processing etc.) to
    the node's meter from inside a user handler. *)

val stats : t -> stats

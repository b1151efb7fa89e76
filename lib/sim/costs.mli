(** Cost-model parameters for the simulated testbed.

    All experiments are driven by a single parameter record calibrated to
    the paper's platform: a 40-MHz DECstation 5000/240 with 64-KB
    direct-mapped write-through caches, an AN2 ATM network (96-us hardware
    round trip, ~16.8-MB/s link) and a 10-Mb/s Ethernet (§IV). The derivation
    of each constant from the paper's base measurements is given field by
    field; EXPERIMENTS.md records the resulting paper-vs-measured table for
    every experiment.

    A second profile, {!ultrix}, models a conventional monolithic kernel
    on the same hardware (slower crossings, priority-boost scheduler); it
    is used for Fig. 4's Ultrix curve and the Ultrix UDP comparison. *)

type t = {
  name : string;
  (* -- CPU ------------------------------------------------------------ *)
  cycle_ns : float;       (** 25.0 ns: 40-MHz R3400. *)
  insn_cycles : int;      (** Base cost of one (VM) instruction: 1 cycle. *)
  (* -- Memory hierarchy ------------------------------------------------ *)
  cache_size : int;       (** 64 KB direct-mapped data cache. *)
  cache_line : int;       (** 16-byte lines. *)
  load_extra_cycles : int;
  (** Extra cycles for a load beyond the base instruction cost (hit). *)
  store_extra_cycles : int;
  (** Extra cycles for a store; write-through with a write buffer, no
      write-allocate, so hits and misses cost the same. *)
  miss_penalty_cycles : int;
  (** Line-fill penalty on a load miss (12 cycles per 16-byte line, i.e.
      3 cycles/word amortized — calibrated so a 4096-byte uncached copy
      runs at ~20 MB/s, Table III). *)
  (* -- Kernel paths (Aegis-calibrated) ---------------------------------- *)
  kern_rx_ns : int;
  (** Driver receive path incl. demux and the post-DMA cache flush of the
      message location (§V): 2.5 us. *)
  kern_send_ns : int;
  (** In-kernel transmit path (descriptor + doorbell): 3 us. Together with
      [kern_rx_ns] and a ~90-instruction handler this reproduces the
      16-us/round-trip kernel software overhead of Table I. *)
  ash_dispatch_ns : int;
  (** Installing the application's context identifier, page-table pointer
      and user stack before running an ASH (§III-A): 0.3 us. *)
  ash_timer_ns : int;
  (** Arming or clearing the execution-time-bound timer: "approximately
      one microsecond each" (§III-B3). Charged twice per sandboxed ASH. *)
  sandboxed_insn_extra_cycles : int;
  (** Average extra cycles per sandboxer-inserted check instruction beyond
      the base cost (address masks/branches): calibrated so 76 added
      instructions cost ~3 us, giving the 5-us sandboxed-vs-unsafe gap of
      Table V. *)
  crossing_ns : int;      (** One kernel/user boundary crossing: 2.5 us. *)
  syscall_ns : int;       (** Full system-call interface overhead: 14 us. *)
  poll_detect_ns : int;   (** User poll loop noticing a new message: 1.5 us. *)
  user_rx_overhead_ns : int;
  (** Buffer management and "full interface" overhead on the user receive
      path: 13 us. Calibrated so the user-level AN2 round trip lands at
      182 us (Table I). *)
  board_write_ns : int;
  (** The "several writes to the AN2 board" performed when sending from
      user space (§V-C), saved by ASHs: 6 us. *)
  yield_ns : int;         (** Yield syscall: 9 us. *)
  context_switch_ns : int;
  (** Full process context switch incl. address-space switch and cache
      effects: 55 us. With [yield_ns] this reproduces the 65-us penalty of
      the suspended user-level case (Table V: 247 vs 182). *)
  upcall_ns : int;
  (** Dispatching a fast upcall (address-space switch, user-level handler
      start): 24 us — calibrated from Table V's 191-us upcall round trip.
      The paper attributes the size of this constant to message batching
      and an unoptimized running-process special case (§V-B). *)
  upcall_suspended_extra_ns : int;
  (** Extra upcall cost when the target is not running: 2 us (Table V:
      193 vs 191). *)
  upcall_resume_ns : int;
  (** Cost for the application proper to resume (restart its blocked
      read) after an upcall handler commits: 12 us. The upcall already
      switched into the application's address space, so no context
      switch is needed — the reason upcalls track the polling case so
      closely in Table VI. *)
  interrupt_ns : int;     (** Taking a device interrupt: 8 us. *)
  quantum_ns : int;       (** Round-robin scheduler quantum: 1 ms. *)
  (* -- AN2 ATM network --------------------------------------------------- *)
  an2_hw_oneway_ns : int;
  (** Pipelined per-message hardware latency (switch traversal, DMA
      completion): 38 us. Together with [an2_pkt_occupancy_ns] this
      reproduces the 96-us hardware round trip for small messages
      (§IV-C). *)
  an2_pkt_occupancy_ns : int;
  (** Per-packet link/host-interface occupancy (descriptor processing,
      cell framing): 10 us. Serializes back-to-back packets, which is
      what caps small-packet train throughput in Fig. 3. *)
  an2_ns_per_byte : float;
  (** 59.5 ns/byte: the 16.8-MB/s maximum per-link bandwidth (§IV-C). *)
  an2_mtu : int;          (** 3072-byte maximum segment the paper uses. *)
  (* -- Ethernet ---------------------------------------------------------- *)
  eth_hw_oneway_ns : int;
  (** Fixed per-packet hardware cost for the Lance-style Ethernet: 50 us
      (calibrated from Table I's 309-us round trip: 2x(50 + 57.6-us
      minimum frame + kernel + user-level software)). *)
  eth_ns_per_byte : float;(** 800 ns/byte: 10 Mb/s. *)
  eth_min_frame : int;    (** 64-byte minimum frame (pad short sends). *)
  eth_mtu : int;          (** 1500-byte MTU. *)
  eth_rx_ring_slots : int;
  (** The Ethernet device has few receive buffers (§V-A1), forcing at
      least one copy out of them. *)
}

val decstation : t
(** The calibrated Aegis/DECstation profile described above. *)

val ultrix : t
(** Same hardware, conventional-OS software costs: crossings and syscalls
    roughly an order of magnitude more expensive (§V: "an order of
    magnitude better than a run-of-the-mill UNIX system like Ultrix"),
    priority-boost scheduling. *)

val cycles_to_ns : t -> int -> int
(** Convert a cycle count to nanoseconds under this profile. *)

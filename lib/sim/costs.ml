type t = {
  name : string;
  cycle_ns : float;
  insn_cycles : int;
  cache_size : int;
  cache_line : int;
  load_extra_cycles : int;
  store_extra_cycles : int;
  miss_penalty_cycles : int;
  kern_rx_ns : int;
  kern_send_ns : int;
  ash_dispatch_ns : int;
  ash_timer_ns : int;
  sandboxed_insn_extra_cycles : int;
  crossing_ns : int;
  syscall_ns : int;
  poll_detect_ns : int;
  user_rx_overhead_ns : int;
  board_write_ns : int;
  yield_ns : int;
  context_switch_ns : int;
  upcall_ns : int;
  upcall_suspended_extra_ns : int;
  upcall_resume_ns : int;
  interrupt_ns : int;
  quantum_ns : int;
  an2_hw_oneway_ns : int;
  an2_pkt_occupancy_ns : int;
  an2_ns_per_byte : float;
  an2_mtu : int;
  eth_hw_oneway_ns : int;
  eth_ns_per_byte : float;
  eth_min_frame : int;
  eth_mtu : int;
  eth_rx_ring_slots : int;
}

let decstation = {
  name = "aegis/decstation-5000-240";
  cycle_ns = 25.0;
  insn_cycles = 1;
  cache_size = 64 * 1024;
  cache_line = 16;
  load_extra_cycles = 1;
  store_extra_cycles = 1;
  miss_penalty_cycles = 12;
  kern_rx_ns = 2_500;
  kern_send_ns = 3_000;
  ash_dispatch_ns = 300;
  ash_timer_ns = 1_000;
  sandboxed_insn_extra_cycles = 3;
  crossing_ns = 2_500;
  syscall_ns = 14_000;
  poll_detect_ns = 1_500;
  user_rx_overhead_ns = 13_000;
  board_write_ns = 6_000;
  yield_ns = 9_000;
  context_switch_ns = 55_000;
  upcall_ns = 24_000;
  upcall_suspended_extra_ns = 2_000;
  upcall_resume_ns = 12_000;
  interrupt_ns = 8_000;
  quantum_ns = 1_000_000;
  an2_hw_oneway_ns = 38_000;
  an2_pkt_occupancy_ns = 10_000;
  an2_ns_per_byte = 59.5;
  an2_mtu = 3072;
  eth_hw_oneway_ns = 50_000;
  eth_ns_per_byte = 800.0;
  eth_min_frame = 64;
  eth_mtu = 1500;
  eth_rx_ring_slots = 8;
}

(* Ultrix on the same hardware: the paper quotes ~1500-us UDP round trips
   (vs 244 on Aegis) and crossing costs an order of magnitude above
   Aegis'. Only the software constants change. *)
let ultrix = {
  decstation with
  name = "ultrix-4.2/decstation-5000-240";
  kern_rx_ns = 40_000;
  kern_send_ns = 30_000;
  crossing_ns = 25_000;
  syscall_ns = 90_000;
  poll_detect_ns = 5_000;
  user_rx_overhead_ns = 60_000;
  yield_ns = 30_000;
  context_switch_ns = 120_000;
  upcall_ns = 95_000;
  interrupt_ns = 20_000;
  quantum_ns = 10_000_000;
}

let cycles_to_ns t c = Time.ns_of_cycles ~cycle_ns:t.cycle_ns c

(** The handler execution engine.

    Executes a {!Program.t} against a simulated {!Ash_sim.Machine.t},
    charging cycles for every instruction (memory operations through the
    cache model) and enforcing the safety policies at runtime:
    address-space confinement, divide checks, indirect-jump translation,
    and the execution-time bound (§III-B).

    Both sandboxed and unsafe programs run here; "unsafe" only skips the
    inserted check instructions (and their cost), not the simulator's own
    integrity — exactly like the paper's unsafe-ASH measurements, which
    time un-sandboxed code that is still trusted not to be malicious. *)

type outcome =
  | Committed            (** Handler consumed the message (§II-A). *)
  | Aborted              (** Voluntary abort: kernel runs the default
                             delivery path. *)
  | Returned             (** Handler finished without consuming. *)
  | Killed of Isa.violation
                         (** Involuntary abort. The owning application
                             may be left inconsistent (§III-B). *)

type result = {
  outcome : outcome;
  insns : int;        (** Dynamic instruction count. *)
  check_insns : int;  (** Dynamic count of sandbox-inserted instructions. *)
  cycles : int;       (** Cycles charged to the machine by this run. *)
  regs : int array;   (** Final register file (for persistent-register
                          import, §II-B). *)
}

type env = {
  machine : Ash_sim.Machine.t;
  msg_addr : int;      (** Address of the arrived message in the owning
                           application's address space. *)
  msg_len : int;
  allowed_calls : Isa.kcall list;
  dilp : id:int -> src:int -> dst:int -> len:int -> regs:int array -> bool;
  (** Run a previously compiled DILP transfer (§III-C); [false] if the
      handle is unknown. Charges the machine itself. [regs] is the
      calling handler's register file: the implementation seeds the
      transfer's persistent registers from it and writes results back
      (the export/import of §II-B). *)
  send : Bytes.t -> unit;
  (** Message initiation: hand a reply frame to the kernel's transmit
      path. Charges the machine itself. *)
  gas_cycles : int;    (** Execution-time bound, in cycles ("two clock
                           ticks worth of time", §III-B3). *)
}

val max_steps : int
(** Hard backstop on executed instructions independent of the cycle
    budget, so a mis-configured gas value cannot hang the host. Shared
    by {!Compile}. *)

val default_gas : int
(** 200_000 cycles = 5 ms at 40 MHz — two 2.5-ms clock ticks; "the
    instruction budget ... is rather large (tens of thousands of
    instructions)" so that 4-kbyte messages can be copied, decrypted and
    checksummed (§III-B3). *)

val run : env -> ?regs_init:(Isa.reg * int) list -> Program.t -> result
(** Execute the program from instruction 0. [regs_init] seeds registers
    (persistent-register export; also used by the kernel to pass the
    message address/length in [reg_msg_addr]/[reg_msg_len], which are
    seeded automatically from [env]). *)

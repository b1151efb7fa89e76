(** Download-time abstract interpretation over handler programs
    (§III-B: make safety a static property where possible).

    A forward dataflow analysis over the {!Cfg} computes, for every
    instruction, an abstract machine state:

    - per register, an interval that is either plain ([base = Bnone],
      value in [lo, hi]) or relative to the message ([Bmsg_addr] /
      [Bmsg_len]: value = msg_addr/msg_len + c with c in [lo, hi]);
    - a proven lower bound on the message length ([len_min]), learned
      from branches on [reg_msg_len] and from successful bounds-checked
      kernel calls;
    - per register, a "checked window" [(lo, hi)]: a byte range
      relative to the register's current value that an already-executed
      access proved resident on every path to this point.

    From those facts the analysis decides, per risky instruction,
    whether the sandbox check guarding it can be elided:

    - a load/store whose effective range provably falls inside
      [msg_addr, msg_addr + len_min) needs no [Check_addr] (the
      dispatch path guarantees the message buffer is resident);
    - a load/store covered by a dominating identical-or-wider access
      needs no [Check_addr] (the earlier access either faulted — and
      execution died there in both versions — or proved residency,
      which never changes during a run);
    - a division by a provably nonzero divisor needs no [Check_div];
    - an indirect jump through a known-constant in-range target needs
      no [Check_jump].

    Soundness contract: the entry state assumes only that [r28]/[r29]
    hold the message address/length and that the message buffer is
    resident — exactly what the kernel dispatch path establishes.
    Checks are only dropped, never widened or moved, so the optimized
    program faults at the same instruction with the same violation as
    the fully checked one (see test/test_absint.ml). *)

type base = Bnone | Bmsg_addr | Bmsg_len

type aval = { base : base; lo : int; hi : int }
(** [Bnone]: value in [lo, hi] (unsigned 32-bit). [Bmsg_addr] /
    [Bmsg_len]: value = msg_addr/msg_len + c with c in [lo, hi]. *)

type state = {
  regs : aval array;
  checked : (int * int) option array;
  (** Per register: a half-open byte window [lo, hi) relative to the
      register's current value, proven resident on all paths here. *)
  mutable len_min : int;  (** Proven: msg_len >= len_min. *)
}

type t = {
  cfg : Cfg.t;
  pre : state option array;
  (** Abstract state before each instruction; [None] = unreachable. *)
  elide : bool array;
  (** Per instruction: the sandbox check guarding it can be dropped. *)
  reason : string array;
  (** Why ([""] when not elided). *)
}

val analyze : Program.t -> t
(** Run the analysis to fixpoint. Intended for verifier-accepted
    programs; total on any non-empty program. *)

val elided_checks : t -> int
(** Number of checks the facts allow {!Sandbox.apply} to drop. *)

val defs : Isa.insn -> int list option
(** Registers an instruction may write; [None] = may write any
    register (a [K_dilp] call exports arbitrary persistent registers
    back into the handler's file). Used by {!Bound} loop analysis. *)

val pp_facts : Format.formatter -> t -> unit
(** The per-instruction fact table ([ashbench assemble] prints this):
    one line per instruction with the abstract values of its source
    registers, the proven message-length bound, and the keep/elide
    decision for checked instructions. *)

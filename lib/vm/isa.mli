(** The VCODE-like virtual instruction set.

    The paper writes ASHs and pipes in VCODE [18], "a set of C macros that
    provide a low-level extension language for dynamic code generation"
    whose "interface is that of an extended RISC machine: instructions are
    low-level register-to-register operations" (§II-B). This module is our
    equivalent ISA. It deliberately includes instructions the safety layer
    must *reject* — floating point and trapping signed arithmetic — so that
    the verifier's job is real (§III-B1).

    Networking idiom extensions ([Cksum32], [Bswap16/32], unaligned loads)
    mirror the paper's VCODE extensions for checksumming and byteswapping;
    they are charged multi-cycle costs corresponding to the instruction
    sequences they would expand to on a machine without such primitives. *)

type reg = int
(** Register number in [0, 31]. Conventions:
    - [r0] always reads zero; writes are ignored.
    - [r1]-[r15]: temporaries (caller-saved, scratch across pipes).
    - [r16]-[r27]: persistent registers (preserved across pipe
      applications; importable/exportable by the main protocol code).
    - [r28]: message base address at ASH entry.
    - [r29]: message length at ASH entry.
    - [r30]: [p_inputr], the pipe input register.
    - [r31]: link/assorted. *)

val num_regs : int
val reg_zero : reg
val reg_msg_addr : reg
val reg_msg_len : reg
val reg_pipe_input : reg
(** Kernel-call argument/result registers: [reg_arg0]-[reg_arg3] are
    r1-r4; results come back in [reg_arg0]. *)

val reg_arg0 : reg
val reg_arg1 : reg
val reg_arg2 : reg
val reg_arg3 : reg

(** Trusted kernel entry points callable from handlers (§III-B2: message
    data access "through specialized trusted function calls, implemented
    in the kernel", allowing "access checks to be aggregated"). Argument
    and result registers follow the [reg_arg*] convention. *)
type kcall =
  | K_msg_read8   (** arg0=offset into message; result0=byte. *)
  | K_msg_read16  (** arg0=offset; result0=16-bit BE word. *)
  | K_msg_read32  (** arg0=offset; result0=32-bit BE word. *)
  | K_msg_write32 (** arg0=offset, arg1=value: write into message buffer. *)
  | K_copy        (** arg0=msg offset, arg1=dst address, arg2=len: trusted
                      copy engine from message to application memory. *)
  | K_dilp        (** arg0=ilp handle, arg1=msg offset, arg2=dst address
                      (or 0 for in-place/sink), arg3=len: run a compiled
                      DILP transfer (§III-C). Result0 = 1 on success. *)
  | K_send        (** arg0=address of reply buffer, arg1=len: transmit a
                      message on the arrival interface (message
                      initiation). *)
  | K_msg_len     (** result0 = message length. *)

type violation =
  | Gas_exhausted        (** Ran past the execution-time bound (§III-B3). *)
  | Mem_fault of int     (** Wild or non-resident reference at address. *)
  | Wild_jump of int     (** Indirect jump to an untranslatable target. *)
  | Div_by_zero
  | Verifier_reject of string
  | Call_denied of kcall (** Kernel call outside the allowed set. *)

type insn =
  (* Moves and ALU (all 32-bit unsigned, wraparound). *)
  | Li of reg * int
  | Mov of reg * reg
  | Add of reg * reg * reg
  | Addi of reg * reg * int
  | Sub of reg * reg * reg
  | Mul of reg * reg * reg
  | Divu of reg * reg * reg     (** Must be guarded: traps on zero. *)
  | Remu of reg * reg * reg
  | And_ of reg * reg * reg
  | Or_ of reg * reg * reg
  | Xor_ of reg * reg * reg
  | Andi of reg * reg * int
  | Ori of reg * reg * int
  | Xori of reg * reg * int
  | Sll of reg * reg * int
  | Srl of reg * reg * int
  | Sltu of reg * reg * reg     (** rd <- (rs < rt), unsigned. *)
  (* Memory: [base register + immediate offset]; big-endian. *)
  | Ld8 of reg * reg * int
  | Ld16 of reg * reg * int
  | Ld32 of reg * reg * int
  | St8 of reg * reg * int
  | St16 of reg * reg * int
  | St32 of reg * reg * int
  (* Control: targets are instruction indices after assembly. *)
  | Beq of reg * reg * int
  | Bne of reg * reg * int
  | Bltu of reg * reg * int
  | Bgeu of reg * reg * int
  | Jmp of int
  | Jr of reg                   (** Indirect jump; checked at runtime. *)
  | Call of kcall
  (* Networking idioms (VCODE extensions, §II-B). *)
  | Cksum32 of reg * reg        (** acc <- acc + rs with end-around carry;
                                    the add-with-carry idiom of Fig. 2. *)
  | Bswap16 of reg * reg
  | Bswap32 of reg * reg
  (* Termination (§II-A three-part ASH structure). *)
  | Commit                      (** Success: the message is consumed. *)
  | Abort                       (** Voluntary abort: return the message to
                                    the kernel's default path. *)
  | Halt                        (** Plain return without consuming. *)
  (* Instructions that exist to be rejected or inserted. *)
  | Adds of reg * reg * reg     (** Signed add: can raise overflow, so the
                                    verifier rejects it (§III-B1). *)
  | Fadd of reg * reg * reg     (** Floating point: rejected at download
                                    time (§III-B1). *)
  | Check_addr of reg * int * int
                                (** Sandbox-inserted: validate [reg+off]
                                    for a [size]-byte access. *)
  | Check_div of reg            (** Sandbox-inserted: kill on zero. *)
  | Check_jump of reg           (** Sandbox-inserted before [Jr]. *)
  | Gas_probe                   (** Sandbox-inserted at backward-branch
                                    targets when software time bounding
                                    is selected. *)

val base_cycles : insn -> int
(** Cycle cost of the instruction itself, excluding cache-modelled memory
    access costs (charged separately by the interpreter) and excluding
    kernel-call internals. Multi-cycle entries model the expansion the
    idiom would need on a plain RISC: [Bswap32] = 9, [Bswap16] = 4,
    [Cksum32] = 2, [Mul] = 8, [Divu]/[Remu] = 35. *)

val is_terminator : insn -> bool
(** [Commit], [Abort], [Halt], [Jmp] and [Jr] end basic blocks; used by
    the verifier's fall-off-the-end check. *)

val branch_target : insn -> int option
(** Static target of a direct branch/jump, if any. *)

val with_branch_target : insn -> int -> insn
(** Replace the static target (identity for non-branches). *)

val is_sandbox_check : insn -> bool

val pp_violation : Format.formatter -> violation -> unit
val pp : Format.formatter -> insn -> unit
val to_string : insn -> string

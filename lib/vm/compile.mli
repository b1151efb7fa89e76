(** Closure compilation: the code behind {!Exec}.

    Translates a program once — at download time — into an array of
    OCaml closures, one per instruction, so steady-state execution pays
    no opcode dispatch, and runs each basic block without Interp's
    per-instruction pc, step and gas checks whenever none of them could
    fire inside it. The observable contract is exact equivalence
    with {!Interp.run}: same {!Interp.result} (outcome, final register
    file, dynamic insn / check-insn counts, cycles charged) and the same
    sequence of simulated-machine charges and cache accesses, for any
    program and machine state. [test_differential] enforces this on
    random programs.

    Most callers should go through {!Exec} rather than use this module
    directly. *)

type t
(** A compiled program: the closure array, its basic-block table and its
    source program. *)

val compile : Program.t -> t
(** One-time translation. Pure: touches no machine state. *)

val run : Interp.env -> ?regs_init:(Isa.reg * int) list -> t -> Interp.result
(** Execute from instruction 0, exactly like {!Interp.run} on the
    source program. *)

val register_body : Isa.insn array -> (int array -> unit) option
(** A straight-line sequence as one function over a register file
    indexed by register number: it leaves the registers {!Interp.run}
    would leave after running the sequence, and charges nothing. [r0]
    must hold 0 in the file while it runs, as it does inside {!run}.
    [None] if an instruction touches memory, branches, calls, checks,
    ends the run, can kill ([Divu], [Remu], [Fadd]) or writes [r0]. So
    running the function cannot fail, and a caller that knows how many
    times the sequence runs knows its cycles from {!Isa.base_cycles}. *)

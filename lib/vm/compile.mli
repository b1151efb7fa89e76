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

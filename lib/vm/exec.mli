(** The executor for downloaded code.

    Every layer that runs downloaded code (kernel ASH/upcall dispatch,
    DILP transfers, and the per-filter compiled DPF engine that ablation
    A1 measures) executes through this module, which runs the
    closure-compiled form ({!Compile}) of the program. {!Interp} is the
    reference semantics: [test_differential] checks that both produce
    the same {!Interp.result} and the same simulated cycle/cache
    accounting on random programs. *)

type prepared
(** A program prepared for execution. Each {!prepare} returns a fresh
    handle; the closure artifact inside is shared process-wide between
    programs with equal {!Program.digest}. *)

val prepare : Program.t -> prepared
(** Compile now — the kernel prepares at download time, so no message
    ever pays the translation. *)

val run :
  Interp.env ->
  ?regs_init:(Isa.reg * int) list ->
  prepared ->
  Interp.result
(** Execute from instruction 0. Signature mirrors {!Interp.run}. *)

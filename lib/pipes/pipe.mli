(** Pipes: tiny streaming computations for integrated layer processing.

    "A pipe is a computation written to act on streaming data, taking
    several bytes of data as input and producing several bytes of output
    while performing only a tiny computation" (§II-B, after Abbott &
    Peterson). Pipes are written against the VM's portable assembly and
    carry an input/output {e gauge} (8-, 16- or 32-bit units). The
    paper's other two attributes, P_COMMUTATIVE (may see message data
    out of order) and P_NO_MOD (passes its input through unchanged), are
    not represented: they license reordering pipes, and no pass here
    reorders them. *)

type gauge = G8 | G16 | G32

type ctx = {
  emit : Ash_vm.Isa.insn -> unit;
  (** Emit one instruction of the pipe body. *)
  data : Ash_vm.Isa.reg;
  (** The register holding this pipe's input unit; a transforming pipe
      must leave its output in the same register ([p_inputr] threading).
      The value is zero-extended to the pipe's gauge width. *)
  temp : unit -> Ash_vm.Isa.reg;
  (** A scratch register valid for this expansion only (not preserved
      across data units). *)
}

type t = private {
  name : string;
  gauge : gauge;
  body : ctx -> unit;
}

val make : name:string -> gauge:gauge -> (ctx -> unit) -> t
(** Define a pipe. Persistent state (e.g. a checksum accumulator) is held
    in persistent registers allocated from the {!Pipelist} before the
    pipe is created, exactly like [p_getreg] in the paper's Fig. 2. *)

(** Pipe lists: the unit of composition handed to the DILP compiler
    ([pipel] / [compile_pl] in the paper's Fig. 1). *)
module Pipelist : sig
  type pipe = t

  type t

  val create : unit -> t
  (** An empty list ([pipel] in the paper's Fig. 1). *)

  val getreg : t -> Ash_vm.Isa.reg
  (** Allocate a persistent register (preserved across pipe applications;
      importable/exportable by the main protocol code). Raises [Failure]
      when the persistent class is exhausted. *)

  val add : t -> pipe -> int
  (** Append a pipe; returns its pipe identifier. *)

  val pipes : t -> pipe list
  (** In composition order. *)

  val persistent_regs : t -> Ash_vm.Isa.reg list
end

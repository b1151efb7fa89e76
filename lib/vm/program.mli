(** Assembled handler programs.

    A program is the unit that is handed to the ASH system: verified,
    optionally sandboxed, downloaded into the kernel, and invoked on
    message arrival. *)

type t = {
  name : string;
  code : Isa.insn array;
  jump_map : int array option;
  (** For sandboxed programs: translation from pre-sandboxing instruction
      indices to post-sandboxing indices. The paper translates indirect
      jumps "to code named by the pre-sandboxed address" at runtime
      (§III-B2); the interpreter uses this table to do so. [None] for
      unsandboxed programs. *)
}

val make : name:string -> Isa.insn array -> t
(** An unsandboxed program. Raises [Invalid_argument] on empty code. *)

val length : t -> int

val digest : t -> string
(** Stable hex digest over name, code and jump map. It depends on their
    values only, not on physical sharing: structurally equal programs
    get equal digests however their instructions were built. Two
    programs with equal digests are behaviourally interchangeable; the
    kernel keys its download-time handler cache on this. *)

val pp : Format.formatter -> t -> unit
(** Disassembly listing with instruction indices. *)

val static_check_count : t -> int
(** Number of sandbox-inserted check instructions in the program. *)

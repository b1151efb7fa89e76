(** DPF-style dynamic packet filters (§IV-A).

    Aegis exports the Ethernet through a packet-filter engine; DPF [19]
    compiles filters to executable code when they are installed and
    merges them, eliminating interpretation overhead and per-filter
    work. The kernel's demux is the merged form, {!Dpf_trie}, which
    charges per atom what the compiled code below charges. This module
    holds the filter language and the per-filter engines that ablation
    A1 compares: {!compile} turns a declarative filter into a VM program
    (executed by the same executor that runs ASHs, so its cost is real),
    and {!run_interpreted} is the classic tree-walking engine DPF is
    measured against (charged a realistic per-atom interpretation cost).

    A filter is a conjunction of masked-compare atoms over the packet,
    the same predicate language as CSPF/BPF-style engines. *)

type atom = {
  offset : int;        (** Byte offset into the packet. *)
  width : int;         (** 1, 2 or 4 bytes (big-endian). *)
  mask : int;
  value : int;         (** Accept when [field land mask = value]. *)
}

type t = atom list
(** Conjunction; the empty filter accepts everything. *)

val atom : ?mask:int -> offset:int -> width:int -> int -> atom
(** [atom ~offset ~width v] compares the full field ([mask] defaults to
    the width's all-ones). Raises [Invalid_argument] on a bad width. *)

val compile : t -> Ash_vm.Program.t
(** Compile to a VM program that reads packet fields through the trusted
    message interface and terminates with [Commit] (accept) or [Abort]
    (reject). Filter constants are baked into the emitted code, like
    DPF's constant specialization. *)

val run_compiled :
  Ash_sim.Machine.t ->
  Ash_vm.Program.t ->
  msg_addr:int ->
  msg_len:int ->
  bool
(** Execute a compiled filter program against a packet, charging the
    machine. Packets shorter than a referenced field reject (kill =
    reject). *)

val run_interpreted :
  Ash_sim.Machine.t -> t -> msg_addr:int -> msg_len:int -> bool
(** The baseline interpreted engine: walks the atom list, paying a
    per-atom decode/dispatch overhead on top of the memory accesses. *)

val matches : Bytes.t -> t -> bool
(** Pure reference semantics (for tests): no machine, no charging. *)

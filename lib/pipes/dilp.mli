(** The dynamic ILP compiler (§II-B, §III-C).

    Fuses a {!Pipe.Pipelist.t} into one specialized data-transfer loop —
    a VM program that loads each 32-bit word of the source once, threads
    it through every pipe's inlined body (converting between gauges where
    pipes disagree), and stores the result once. The emitted loop is
    unrolled by four words, mirroring the paper's claim that generated
    copy loops are "very close in efficiency to carefully hand-optimized
    integrated loops" (Table IV).

    Entry convention of the compiled program:
    [r1] = source address, [r2] = destination address (ignored in [Sink]
    mode), [r3] = length in bytes (must be a multiple of four — the
    paper's Fig. 2 makes the same assumption). Persistent registers are
    seeded via [init] (export) and read back from the returned register
    file (import). *)

type mode =
  | Write  (** Copy through the pipes ([PIPE_WRITE]). *)
  | Sink   (** Run the pipes over the data without storing — used by
               in-place delivery, where data is consumed where it landed
               but must still be checksummed. *)

(** Source memory layout. "Different loops may be generated for
    different network interfaces; for example, our Ethernet DMA engine
    stripes an N-byte contiguous packet into a 2N-byte buffer,
    alternating 16 bytes of data and 16 bytes of padding, whereas the
    AN2 DMA engine copies the data contiguously" (§III-C). A [Striped]
    transfer reads around the padding in the same single pass, so no
    separate de-striping copy is needed. *)
type layout =
  | Contiguous
  | Striped of { data : int; pad : int }
      (** [data] bytes of payload followed by [pad] bytes of padding,
          repeating. [data] must be a positive multiple of 4. *)

val eth_striped : layout
(** The Ethernet device's 16-data/16-pad layout. *)

type compiled = private {
  program : Ash_vm.Program.t;
  exec : Ash_vm.Exec.prepared;
  (** The program prepared for execution (compiled with the loop). *)
  mode : mode;
  layout : layout;
  pipes : Pipe.t list;
  persistent : Ash_vm.Isa.reg list;
}

val compile : ?layout:layout -> Pipe.Pipelist.t -> mode -> compiled
(** Fuse the pipe list into a transfer loop for the given source
    [layout] (default [Contiguous]). Raises [Failure] if a pipe body
    runs out of scratch registers or emits control flow (pipe bodies
    must be straight-line), or [Invalid_argument] on a bad layout. *)

val execute :
  ?init:(Ash_vm.Isa.reg * int) list ->
  Ash_sim.Machine.t ->
  compiled ->
  src:int ->
  dst:int ->
  len:int ->
  Ash_vm.Interp.result
(** Run the fused loop over [len] {e payload} bytes (the striped source
    region is correspondingly longer), charging the machine. Raises
    [Invalid_argument] if [len] is negative, not a multiple of four, or
    (striped layouts) not a multiple of the stripe's data size. *)

val execute_exn :
  ?init:(Ash_vm.Isa.reg * int) list ->
  Ash_sim.Machine.t ->
  compiled ->
  src:int ->
  dst:int ->
  len:int ->
  int array
(** Like {!execute} but returns just the final register file, raising
    [Failure] if the loop did not complete cleanly. *)

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
    file (import).

    {b The word kernel.} The VM program is the specification; {!execute}
    runs one kind of contiguous transfer without it. That is TCP's
    checksumming transfer, {!Pipelib.cksum32} alone, whose one-word
    body is a lone [Cksum32 (acc, r30)] with [acc] none of [r0]-[r5]
    and [r28]-[r30]. As it emits the loop, {!compile} records each
    part's instruction count and fixed cycles: the prologue, one
    unrolled iteration, one tail iteration, the two exit tests and the
    [Halt]. {!execute} then charges the whole transfer with one
    {!Ash_sim.Machine.charge_cycles}: those fixed cycles, one
    instruction's cycles per load and store, {!Ash_sim.Cache.load_run}
    over the source and, in [Write] mode, {!Ash_sim.Cache.store_run}
    over the destination. The charge is exact because stores touch no
    cache tags and the body makes no memory access, so the loads form
    one ascending run. The kernel loads each word in ascending order
    and, in [Write] mode, stores it before it loads the next, so
    overlapping ranges read their own writes as on the VM. It adds the
    words to a plain integer ({!Baseline.unsafe_sum_be32}, the loop the
    checksum pass runs too) and folds [acc] plus that total once, with
    end-around carry at 32 bits. That fold is exact: adding one word at
    a time with end-around carry keeps [acc] congruent to the plain sum
    [S] modulo 2{^32}-1 and inside \[0, 2{^32}-1\], and leaves it 0
    only when [S] is 0, so both end at the one such value with [S]'s
    residue. [acc] enters below 2{^32} ([r28] and [r29] need not), and
    [S] cannot overflow for a transfer the gas budget admits.
    Afterwards [r30] holds the last word (unchanged when [len] is 0),
    read back from where the last store put it in [Write] mode; [r1]
    ends at [src + len] and, in [Write] mode, [r2] at [dst + len], and
    [r4] and [r5] hold the loop's end and limit, as the program leaves
    them. The result and the [Vm_run] trace event are the ones the VM
    run would have produced.

    A transfer runs the VM program, unchanged, whenever one of these
    holds: the layout is striped; the body is anything else; the source
    or, in [Write] mode, the destination is not inside one resident
    region below 2{^32}, or the loop's end registers would wrap; the
    transfer's cycles with every load line a miss would exceed
    {!Ash_vm.Interp.default_gas}; or its instruction count exceeds
    {!Ash_vm.Interp.max_steps}. Each case is decided from the
    input alone, with [r1]-[r3] read after [init] as the program reads
    them. The VM then faults, runs out of gas or completes exactly as it
    always did. *)

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

type native
(** The word kernel's accumulator, with the instruction counts and fixed
    cycles of the loop's parts. *)

type compiled = private {
  program : Ash_vm.Program.t;
  exec : Ash_vm.Exec.prepared;
  (** The program prepared for execution (compiled with the loop). *)
  mode : mode;
  persistent : Ash_vm.Isa.reg list;
  native : native option;
  (** The word kernel; [None] when every transfer runs the VM program
      (a striped layout, or any body but a lone [Cksum32 (acc, r30)]
      with [acc] none of [r0]-[r5] and [r28]-[r30]). *)
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
(** Run the fused loop over [len] {e payload} bytes, charging the
    machine: as the word kernel when it can (see above), otherwise on
    the VM. A striped source spans [data + pad] bytes per stripe; a
    [len] that is not a multiple of the stripe's data size ends in a
    short stripe, which the loop's word-tail moves. Raises
    [Invalid_argument] if [len] is negative or not a multiple of
    four. *)

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

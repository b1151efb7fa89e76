(** Hand-written data-manipulation baselines.

    These model the non-ASH strategies the paper measures against
    (Tables III and IV): nonintegrated ("separate") passes written the
    way a conventional protocol stack performs them, and the
    hand-integrated C loops. They charge the same simulated machine as
    the DILP-generated loops, so throughput comparisons are
    apples-to-apples: the only differences are the number of traversals
    and the per-word instruction sequences. *)

val copy : Ash_sim.Machine.t -> src:int -> dst:int -> len:int -> unit
(** One word-at-a-time copy pass (delegates to the trusted copy engine). *)

val cksum16_pass : Ash_sim.Machine.t -> addr:int -> len:int -> int
(** A separate Internet-checksum pass over a buffer, as a conventional
    C library writes it: 16-bit loads, add, fold — the reason the paper's
    separate strategy is slower per word than the integrated
    add-with-carry idiom. Returns the folded 16-bit sum (not
    complemented). [len] may be odd (trailing byte zero-padded).

    The machine is charged per halfword. On the host, a range that
    cannot fault is summed in 32-bit words ({!unsafe_sum_be32}), then the
    trailing halfword and odd byte, and folded once. That gives the
    per-halfword result: 2{^16} = 1 (mod 0xffff), so a word adds what
    its two halfwords do, and {!Ash_util.Checksum.fold16} maps any
    positive sum to the one value in \[1, 0xffff\] with its residue and 0
    to 0. A range that faults takes the per-halfword loop and stops at
    the halfword that first touches the hole. *)

val unsafe_be32 : Bytes.t -> int -> int
(** [unsafe_be32 b i] is the big-endian 32-bit word at [b.[i..i+3]], in
    \[0, 0xffff_ffff\], read without a bounds check. The caller must
    know the four bytes lie within [b]: the host-side word loops read
    only inside a range {!Ash_sim.Memory.locate} found wholly within a
    region's data. *)

external unsafe_sum_be32 :
  Bytes.t -> int -> int -> write:bool -> Bytes.t -> int -> int
  = "ash_sum_be32_byte" "ash_sum_be32"
[@@noalloc]
(** [unsafe_sum_be32 src soff n ~write dst doff] is the plain sum of the
    [n] big-endian words at [src.[soff..]], loaded in ascending order, as
    {!unsafe_be32} reads them. With [~write:true] each word is also
    stored at [dst.[doff..]] before the next is loaded, so overlapping
    ranges read their own writes, as on the VM. Unchecked like
    {!unsafe_be32}, for both ranges; it never raises or allocates. The
    checksum pass and {!Dilp.execute}'s word kernel run on it.

    A C loop: on x86-64 it moves and sums 16 bytes per SSE2 step, each
    step loading before it stores, which gives the word loop's bytes and
    sum whenever the destination does not start above the source inside
    the range read. That case, the 0–3-word tail and every other host
    run a scalar word loop. *)

val byteswap_pass : Ash_sim.Machine.t -> addr:int -> len:int -> unit
(** A separate in-place 32-bit byteswap pass. [len] must be a multiple
    of 4. *)

val integrated_copy_cksum :
  Ash_sim.Machine.t -> src:int -> dst:int -> len:int -> int
(** The hand-integrated C loop ("C integrated", Table IV): copy and
    checksum in one traversal using the 32-bit add-with-carry idiom.
    Returns the folded 16-bit sum. [len] must be a multiple of 4. *)

val integrated_copy_cksum_bswap :
  Ash_sim.Machine.t -> src:int -> dst:int -> len:int -> int
(** Copy + checksum + 32-bit byteswap in one traversal. The checksum is
    computed over the pre-swap data. Returns the folded 16-bit sum. *)

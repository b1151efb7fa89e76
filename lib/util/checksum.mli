(** The Internet checksum (RFC 1071).

    This is the reference implementation used by the user-level protocol
    library and by the tests that validate the checksum pipe of
    {!Ash_pipes}: the pipe, executed on the VM, must agree with these
    functions on every input. *)

val ones_sum : ?acc:int -> Bytes.t -> off:int -> len:int -> int
(** [ones_sum b ~off ~len] is the 32-bit-folded one's-complement running
    sum of the 16-bit big-endian words of [b.[off .. off+len-1]]. An odd
    trailing byte is padded with a zero low byte, per RFC 1071. [?acc]
    threads a previous partial sum for incremental computation. The result
    is in [0, 0xffff_ffff]: the carry is folded back only past 32 bits,
    so a long buffer's sum is far above 16 bits (3072 bytes of [0xff]
    give 100,661,760). {!fold16} folds it. *)

val sum32 : ?acc:int -> Bytes.t -> off:int -> len:int -> int
(** [sum32] accumulates 32-bit big-endian words with end-around carry,
    matching the [p_cksum32] VM primitive (the pipe of the paper's Fig. 2,
    which assumes the length is a multiple of four). Raises
    [Invalid_argument] if [len] is not a multiple of 4. *)

val fold16 : int -> int
(** Fold a running sum to 16 bits with end-around carry. *)

val fold32_to16 : int -> int
(** Fold a 32-bit one's-complement sum (as produced by [sum32]) to the
    16-bit Internet checksum sum: high half + low half, then [fold16]. *)

val checksum : Bytes.t -> off:int -> len:int -> int
(** The one's complement of [fold16 (ones_sum b ~off ~len)], i.e. the
    value stored in protocol header checksum fields. *)

val verify : Bytes.t -> off:int -> len:int -> bool
(** A packet whose checksum field is filled verifies iff the folded sum
    over the covered bytes is [0xffff]. *)

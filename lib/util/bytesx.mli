(** Byte-buffer helpers shared by packet codecs and the VM.

    All multi-byte accessors are big-endian ("network order") unless the
    name says otherwise. Every accessor bounds-checks and raises
    [Invalid_argument] on violation. *)

val get_u8 : Bytes.t -> int -> int
val set_u8 : Bytes.t -> int -> int -> unit

val get_u16 : Bytes.t -> int -> int
val set_u16 : Bytes.t -> int -> int -> unit

val get_u32 : Bytes.t -> int -> int
(** Result is in [0, 0xffff_ffff] (we exploit 63-bit native ints). *)

val set_u32 : Bytes.t -> int -> int -> unit

val get_u16_le : Bytes.t -> int -> int
val set_u16_le : Bytes.t -> int -> int -> unit
val get_u32_le : Bytes.t -> int -> int
val set_u32_le : Bytes.t -> int -> int -> unit

val bswap16 : int -> int
(** Swap the two low bytes; input and output in [0, 0xffff]. *)

val bswap32 : int -> int
(** Reverse the four low bytes; input and output in [0, 0xffff_ffff]. *)

val equal_slice : Bytes.t -> int -> Bytes.t -> int -> int -> bool
(** [equal_slice a aoff b boff len] compares slices without copying. *)

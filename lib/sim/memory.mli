(** Simulated application address space.

    Buffers live at integer simulated addresses so the cache simulator
    sees realistic conflict/locality behaviour and so the sandboxer has
    real addresses to range-check. Contents are backed by [Bytes.t].

    A region can be made non-[resident] to model a paged-out page: ASH
    references to such a region must terminate the handler (§III-A "a
    reference to an absent page causes the ASH to be terminated"). *)

type t

type region = private {
  base : int;            (** First simulated address of the region. *)
  len : int;
  data : Bytes.t;        (** Backing store; index [i] is address [base+i]. *)
  name : string;
  mutable resident : bool;
}

exception Fault of { addr : int; size : int; reason : string }
(** Raised on out-of-range, misaligned-span or non-resident accesses. *)

val create : unit -> t

val alloc : t -> ?name:string -> ?resident:bool -> int -> region
(** Allocate a region of the given positive length, line-aligned.
    Regions never overlap and are separated by an unmapped guard gap, so
    an off-by-one access faults instead of silently landing in a
    neighbouring buffer. *)

val set_resident : region -> bool -> unit

val free : t -> region -> unit
(** Release a region allocated with {!alloc}: subsequent accesses to
    its addresses fault (use-after-free is caught, never silently
    served). Address space is not reused. Raises [Invalid_argument] if
    the region is not currently live (e.g. double free). Connection
    churn relies on this so thousands of short-lived endpoints do not
    grow the lookup table without bound. *)

val region_count : t -> int
(** Live (allocated, not freed) regions — the scale suite's leak
    check. *)

val resident_at : t -> addr:int -> size:int -> bool
(** Whether [addr, addr+size) lies wholly inside one mapped, resident
    region: exactly the ranges the accessors below serve without
    faulting. Allocation-free, like every accessor here. *)

val locate : t -> int -> int -> region
(** [locate t addr size] is the resident region wholly containing
    [addr, addr+size). Raises {!Fault} with reason ["unmapped"] or
    ["non-resident page"] otherwise. *)

val load8 : t -> int -> int

val load16 : t -> int -> int
(** Big-endian, like the wire. *)

val load32 : t -> int -> int
val store8 : t -> int -> int -> unit
val store16 : t -> int -> int -> unit
val store32 : t -> int -> int -> unit

val blit_from_bytes : t -> src:Bytes.t -> src_off:int -> dst:int -> len:int -> unit
(** Copy host bytes into simulated memory (used for NIC DMA). *)

val blit_to_bytes : t -> src:int -> dst:Bytes.t -> dst_off:int -> len:int -> unit

val blit : t -> src:int -> dst:int -> len:int -> unit
(** Simulated-to-simulated copy (no cycle accounting; callers charge). *)

val fill : t -> addr:int -> len:int -> char -> unit

val read_string : t -> addr:int -> len:int -> string
(** Convenience for tests and examples. *)

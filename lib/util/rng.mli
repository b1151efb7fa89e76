(** Deterministic splitmix64 PRNG.

    Experiments must be reproducible run to run (the paper stresses
    run-to-run stability, §IV-B), so all randomness in workload
    generators flows through explicitly seeded instances of this
    generator rather than the global [Random] state. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Equal seeds give equal streams. *)

val next : t -> int
(** A uniformly distributed 62-bit non-negative integer. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). Raises [Invalid_argument]
    if [bound <= 0]. *)

val fill_bytes : t -> Bytes.t -> unit
(** Overwrite all of the buffer with pseudo-random bytes. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val split : t -> t
(** A generator whose stream is independent of the parent's. *)

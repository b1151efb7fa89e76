(** Direct-mapped data cache simulator.

    Models the DECstation 5000/240's 64-KB direct-mapped write-through
    data cache (§IV-A). The methodology section of the paper is largely
    about fighting this cache's conflict behaviour; the throughput
    experiments (Tables III and IV) are cache experiments at heart, so we
    simulate tags for real rather than assuming fixed hit rates.

    Policy: write-through, no write-allocate, with a write buffer — a
    load miss pays [miss_penalty_cycles] to fill the line; stores cost
    the same whether they hit or miss and only update the line on a hit. *)

type t

type access = Hit | Miss

val create : Costs.t -> t
(** Cache geometry and penalties are taken from the cost profile.
    Raises [Invalid_argument] if size or line are not powers of two. *)

val load : t -> addr:int -> size:int -> int
(** Simulate a load of [size] bytes at [addr]; returns the cost in cycles
    (beyond the base instruction cost). Accesses spanning multiple lines
    touch each line. *)

val store : t -> addr:int -> size:int -> int
(** Simulate a store; returns the extra cycle cost. *)

val load_run : t -> addr:int -> size:int -> count:int -> int
(** [load_run t ~addr ~size ~count] is what [count] calls of {!load} of
    [size] bytes at [addr], [addr + size], ... would return in total,
    and it leaves the same tags and the same hit/miss counts. It checks
    each line of the span once. Precondition: [size] is a power of two
    no larger than one cache line ([Invalid_argument] otherwise).
    [count <= 0] costs nothing. *)

val store_run : t -> addr:int -> size:int -> count:int -> int
(** The same for {!store}: [count] stores of [size] bytes at [addr],
    [addr + size], ... Stores never read or write tags, so this is
    arithmetic on the span. Same precondition as {!load_run}. *)

val load_run_worst : t -> addr:int -> size:int -> count:int -> int
(** The most {!load_run} can return for the same run: its cost with
    every line of the span a miss. Reads and writes no tags. Same
    precondition. *)

val probe : t -> addr:int -> access
(** Whether a load at [addr] would hit, without charging or refilling. *)

val flush_all : t -> unit
(** Invalidate every line ("cache flushes at every iteration", §V). *)

val flush_range : t -> addr:int -> len:int -> unit
(** Invalidate the lines covering [addr, addr+len) — the driver's
    post-DMA software flush of the message location (§V). *)

val warm_range : t -> addr:int -> len:int -> unit
(** Load every line of the range without charging cycles, to set up
    "data already in the cache" experiment preconditions. *)

val stats : t -> int * int
(** [(hits, misses)] over load accesses since creation. *)

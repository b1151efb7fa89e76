(** Table IV (integrated layer processing) and ablation A2. *)

val separate : uncached:bool -> bswap:bool -> unit -> float
(** Nonintegrated passes over 4096 bytes, MB/s. *)

val dilp : bswap:bool -> unit -> float
(** The DILP-generated fused loop, MB/s. *)

val table4 : unit -> Report.table

val dilp_scaling : unit -> Report.table
(** Ablation A2: fusion vs per-pipe traversals as the layer count grows. *)

(** Simulated time.

    All simulated durations and timestamps are integer nanoseconds. The
    paper reports microseconds; conversion helpers live here so no other
    module hand-rolls unit arithmetic. *)

type ns = int
(** Nanoseconds. Timestamps are nanoseconds since simulation start. *)

val ns_of_us : float -> ns
val us_of_ns : ns -> float
val ms_of_ns : ns -> float
val ns_of_cycles : cycle_ns:float -> int -> ns
(** [ns_of_cycles ~cycle_ns n] rounds to the nearest nanosecond. *)

val mbytes_per_sec : bytes:int -> ns -> float
(** Throughput of moving [bytes] in the given duration, in MB/s
    (decimal megabytes, as the paper reports). Returns [infinity] for a
    zero duration. *)

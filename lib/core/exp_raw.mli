(** Table I and Fig. 3: raw performance of the base system (§IV-C). *)

val table1 : unit -> Report.table
(** Raw round-trip latency: in-kernel AN2, user-level AN2, Ethernet. *)

val fig3 : unit -> Report.table
(** User-level AN2 packet-train throughput versus packet size. *)

(** Fig. 4: round-trip latency versus competing processes (§V-C). *)

val fig4 : unit -> Report.table

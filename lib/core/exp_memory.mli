(** Table III: the cost of message copies (§V-A1). *)

val table3 : unit -> Report.table

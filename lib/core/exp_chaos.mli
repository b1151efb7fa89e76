(** Chaos experiment: TCP goodput under seeded loss, fixed vs adaptive
    retransmission (`ashbench chaos`, the "chaos" bench table). *)

type run = {
  rate : float;
  goodput_mbs : float;
  retransmits : int;
  fast_retransmits : int;
}

val curves : ?seed:int -> ?total:int -> unit -> (string * run list) list
(** Per-policy goodput curves over the loss rates 0%, 1%, 5% and 20%:
    each point is one bulk transfer of [total] bytes (default 256 KB)
    in 8 KB writes over a link that drops that share of the
    data-direction frames. The raw data behind {!chaos}; `ashbench
    chaos` prints these with retransmit counts. *)

val chaos : ?seed:int -> ?total:int -> unit -> Report.table
(** The goodput-vs-loss table ([ashbench run chaos]). *)

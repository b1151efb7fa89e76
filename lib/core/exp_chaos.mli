(** Chaos experiment: TCP goodput under seeded loss, fixed vs adaptive
    retransmission (`ashbench chaos`, the "chaos" bench table). *)

val loss_rates : float list
(** The measured loss-rate grid: 0%, 1%, 5%, 20%. *)

type run = {
  rate : float;
  goodput_mbs : float;
  retransmits : int;
  fast_retransmits : int;
}

val transfer :
  ?seed:int ->
  ?total:int ->
  ?chunk:int ->
  rate:float ->
  rto:Ash_proto.Tcp.rto_policy ->
  fast_retransmit:bool ->
  unit ->
  run
(** One bulk transfer (default 256 KB in 8 KB writes) over a link
    dropping [rate] of the data-direction frames under [seed]. *)

val curves :
  ?seed:int -> ?total:int -> ?chunk:int -> unit ->
  (string * run list) list
(** Per-policy goodput curves over {!loss_rates} (the raw data behind
    {!chaos}; `ashbench chaos` prints these with retransmit counts). *)

val chaos : ?seed:int -> ?total:int -> ?chunk:int -> unit -> Report.table
(** The goodput-vs-loss table ([ashbench run chaos]). *)

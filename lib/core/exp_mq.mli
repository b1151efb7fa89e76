(** Message-queue robustness benchmark: produce goodput versus link
    loss and the failover blackout window, measured on virtual time
    over the {!Mq} service (in-kernel produce/replicate/fetch
    handlers, replica-side acks).

    Every cell drains and runs the delivery audit; the table notes
    carry a ["delivery audit PASSED"] / ["FAILED"] marker that CI
    gates on. *)

type mq_run = {
  loss : float;
  goodput_mps : float;  (** acked messages per virtual second *)
  acked : int;
  redeliveries : int;
  blackout_ns : int;  (** widest producer send-to-ack gap *)
  audit_ok : bool;  (** drained, audit clean, all messages acked *)
}

val loss_grid : float list
(** Loss rates the table sweeps: [0; 0.05; 0.2]. *)

val run_loss : ?seed:int -> float -> mq_run
(** One goodput measurement with symmetric loss + jitter on every
    link. *)

val run_failover : ?seed:int -> unit -> mq_run
(** Primary kernel crash (segments wiped) 8 ms in, heal at 60 ms;
    clients fail over to the replica and replay. *)

val mq : unit -> Report.table
(** The [exp_mq] bench table. *)

(** Message-queue robustness benchmark: produce goodput versus link
    loss and the failover blackout window, measured on virtual time
    over the {!Mq} service (in-kernel produce/replicate/fetch
    handlers, replica-side acks).

    Every cell drains and runs the delivery audit; the table notes
    carry a ["delivery audit PASSED"] / ["FAILED"] marker that CI
    gates on. *)

val mq : unit -> Report.table
(** The [exp_mq] bench table: goodput at 0%, 5% and 20% symmetric loss
    (plus jitter) on every link, and a primary kernel crash (segments
    wiped) 8 ms in, healed at 60 ms, with clients failing over to the
    replica and replaying. *)

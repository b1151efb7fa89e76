(* The message-queue robustness experiment: goodput of the replicated
   produce path versus link loss, and the recovery cost of a primary
   failover (the produce-blackout window), all on virtual time so the
   numbers are deterministic. Every cell ends with {!Mq.drain} and the
   delivery audit — the table's notes carry a machine-checkable
   PASSED/FAILED marker that CI greps. *)

module Fault = Ash_sim.Fault

let loss_grid = [ 0.0; 0.05; 0.2 ]

type mq_run = {
  loss : float;
  goodput_mps : float;  (* acked messages per virtual second *)
  acked : int;
  redeliveries : int;
  blackout_ns : int;  (* widest producer send-to-ack gap *)
  audit_ok : bool;
}

let msgs_per_producer = 60
let producers = 2

let spec = { Mq.default_spec with Mq.producers }

(* Goodput over the span from the first enqueue to the last ack: the
   producers are stop-and-wait, so this measures the full produce →
   chain → replica-ack round trip under whatever the links do.
   [scenario] sets up the faults on the fresh queue. *)
let measure scenario =
  let q = Mq.create (Fabric.create ~hosts:(2 + producers) ()) spec in
  scenario q;
  let start = 1_000_000 in
  for p = 0 to producers - 1 do
    Mq.produce q ~producer:p ~count:msgs_per_producer ~at:start
  done;
  let drained = Mq.drain q ~deadline:4_000_000_000 in
  let st = Mq.stats q in
  let a = Mq.audit q in
  let last_ack =
    let latest p =
      List.fold_left
        (fun acc (_, _, ts) -> max acc ts)
        0
        (Mq.acked_offsets q ~producer:p)
    in
    let rec go p acc = if p < 0 then acc else go (p - 1) (max acc (latest p)) in
    go (producers - 1) 0
  in
  let elapsed_ns = max 1 (last_ack - start) in
  {
    loss = 0.0;
    goodput_mps = float_of_int st.Mq.s_acked *. 1e9 /. float_of_int elapsed_ns;
    acked = st.Mq.s_acked;
    redeliveries = st.Mq.s_redeliveries;
    blackout_ns = st.Mq.s_blackout_ns;
    audit_ok = drained && a.Mq.a_ok && st.Mq.s_acked = producers * msgs_per_producer;
  }

let run_loss rate =
  let seed = 42 in
  let scenario q =
    if rate > 0.0 then
      Mq.install_chaos q
        ~config:{ Fault.none with Fault.seed; drop = rate; jitter = 0.2 }
        ~seed
  in
  { (measure scenario) with loss = rate }

(* Primary crash mid-stream with a scheduled heal: clients redirect to
   the replica and replay; the blackout is how long the slowest
   producer went unacknowledged. *)
let run_failover () =
  measure (fun q ->
      Mq.schedule_crash q ~broker:0
        (Fault.outage ~down_at:8_000_000 ~heal_at:60_000_000))

let mq () =
  let losses = List.map run_loss loss_grid in
  let fo = run_failover () in
  let all_ok = List.for_all (fun r -> r.audit_ok) losses && fo.audit_ok in
  let loss_rows =
    List.concat_map
      (fun r ->
        [
          Report.row
            ~label:(Printf.sprintf "goodput | %.0f%% loss" (r.loss *. 100.))
            ~measured:(r.goodput_mps /. 1e3) ~unit_:"kmsg/s" ();
          Report.row
            ~label:(Printf.sprintf "redeliveries | %.0f%% loss" (r.loss *. 100.))
            ~measured:(float_of_int r.redeliveries) ~unit_:"msgs" ();
        ])
      losses
  in
  let fo_rows =
    [
      Report.row ~label:"failover | goodput"
        ~measured:(fo.goodput_mps /. 1e3) ~unit_:"kmsg/s" ();
      Report.row ~label:"failover | blackout"
        ~measured:(float_of_int fo.blackout_ns /. 1e6)
        ~unit_:"ms" ();
      Report.row ~label:"failover | redeliveries"
        ~measured:(float_of_int fo.redeliveries) ~unit_:"msgs" ();
    ]
  in
  {
    Report.id = "exp_mq";
    title =
      "Replicated message queue: goodput vs. loss, failover recovery \
       (in-kernel produce/replicate/fetch handlers)";
    rows = loss_rows @ fo_rows;
    notes =
      [
        Printf.sprintf
          "delivery audit %s: every acked message exactly once, in \
           per-producer order, on the surviving log"
          (if all_ok then "PASSED" else "FAILED");
        Printf.sprintf
          "%d producers x %d messages per cell; stop-and-wait clients, \
           %d ms primary outage in the failover cell"
          producers msgs_per_producer 52;
        "acks originate at the replica via in-handler chaining, so an \
         acked message is durable on both logs";
      ];
  }

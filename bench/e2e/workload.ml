(* The four workloads: what one repeat runs, how big it is, and how its
   output is checked. Every call goes through the library's public
   interface; the benchmark observes layers from outside and never
   reaches into one. *)

module Fault = Ash_sim.Fault
module Tcp = Ash_proto.Tcp
module Metrics = Ash_obs.Metrics
module Lab = Ash_core.Lab
module Exp_scale = Ash_core.Exp_scale
module Fabric = Ash_core.Fabric
module Mq = Ash_core.Mq

(* What one repeat produced. The virtual fields are a pure function of
   the workload, its size and the seed; [counts] holds workload-level
   tallies that the per-layer report reads. *)
type outcome = {
  ops : int;  (** operations completed *)
  attempted : int;
  failed : int;
  goodput_mbs : float;  (** useful payload bytes per virtual second *)
  rtt_p50_us : float;
  rtt_p99_us : float;
  rtt_samples : int;
  counts : (string * int) list;
  errors : string list;  (** first failures, human-readable *)
}

type t = {
  name : string;
  op : string;  (** what one operation is *)
  run : seed:int -> scale:float -> outcome;
      (** One repeat at [scale] times the timed size. *)
  setup : seed:int -> unit;
      (** The minimal set-up: build the topology, download the handlers,
          connect, complete one operation. Raises on failure. *)
  witness : Metrics.t -> outcome -> int;
      (** Failed operations implied by the trace counters of a traced
          repeat: the check for outputs Lab does not return. *)
  repeat_s : float;
      (** Nominal host seconds of one timed repeat, fixed once from the
          reference host: a run of S seconds does S / [repeat_s] timed
          repeats, the same number on every commit. *)
  traced_scale : float;
      (** Size of the traced repeat: every event must fit in memory. *)
  engines : int;  (** engine shards the workload's events are spread over *)
  handler : Probe.handler;  (** the sandboxed handler the VM probe runs *)
  cluster : (shards:int -> jobs:int -> scale:float -> outcome) option;
      (** The same repeat at a chosen shard and domain count, for a
          workload that runs on an [Engine.Cluster]. *)
}

let sized base scale =
  max 1 (int_of_float (Float.round (float_of_int base *. scale)))

let outcome ?(counts = []) ~errors ~ops ~attempted ~failed ~goodput_mbs ~p50
    ~p99 ~samples () =
  {
    ops;
    attempted;
    failed;
    goodput_mbs;
    rtt_p50_us = p50;
    rtt_p99_us = p99;
    rtt_samples = samples;
    counts;
    errors;
  }

let fail_if cond msg errors = if cond then msg :: errors else errors

(* Payload bytes the DILP loops carried, from a recorder's histogram. *)
let dilp_bytes m =
  match Metrics.histogram m "dilp.run.bytes" with
  | None -> 0
  | Some s -> int_of_float (Float.round (s.Metrics.mean *. float_of_int s.Metrics.count))

(* -- rpc-an2 -------------------------------------------------------- *)

(* Lab returns only the steady-state mean. Every steady-state sample of
   the uncontended ping-pong is identical, so the mean is also the p50
   and the p99. *)
let fast_ash = Tcp.Fast_ash { sandbox = true }

let rpc =
  let run ~seed:_ ~scale =
    let n = sized 25_000 scale in
    let us = Lab.tcp_latency ~mode:fast_ash ~checksum:true ~iters:n () in
    let ok = Float.is_finite us && us > 0.0 in
    outcome ~ops:n ~attempted:n
      ~failed:(if ok then 0 else n)
      ~errors:(fail_if (not ok) (Printf.sprintf "round trip %g us" us) [])
      ~goodput_mbs:(8.0 /. us) ~p50:us ~p99:us ~samples:n ()
  in
  {
    name = "rpc-an2";
    op = "round trip";
    run;
    setup =
      (fun ~seed:_ ->
        ignore (Lab.tcp_latency ~mode:fast_ash ~checksum:true ~iters:1 ()));
    (* Each round trip commits the fast-path handler four times: the
       request and the reply on arrival, and each side's ack of them. *)
    witness = (fun m o -> max 0 (o.ops - (Metrics.counter m "ash.commit" / 4)));
    repeat_s = 0.55;
    traced_scale = 0.08;
    engines = 1;
    handler = Probe.tcp_ack;
    cluster = None;
  }

(* -- bulk-an2 ------------------------------------------------------- *)

let mib = 1 lsl 20
let chunk = 8192

let bulk =
  let transfer total =
    Lab.tcp_throughput ~mode:fast_ash ~checksum:true ~in_place:true ~mss:3072
      ~chunk ~total ()
  in
  let run ~seed:_ ~scale =
    let n = sized 8 scale in
    let mbs, st = transfer (n * mib) in
    let errors =
      []
      |> fail_if (st.Tcp.bad_checksums > 0)
           (Printf.sprintf "%d bad checksums" st.Tcp.bad_checksums)
      |> fail_if
           (not (Float.is_finite mbs && mbs > 0.0))
           (Printf.sprintf "goodput %g MB/s" mbs)
    in
    (* Lab reports only the total: a write's time is the mean. *)
    let write_us = float_of_int chunk /. mbs in
    outcome ~ops:n ~attempted:n
      ~failed:(if errors = [] then 0 else n)
      ~errors ~goodput_mbs:mbs ~p50:write_us ~p99:write_us
      ~samples:(n * mib / chunk) ()
  in
  {
    name = "bulk-an2";
    op = "MiB delivered";
    run;
    setup = (fun ~seed:_ -> ignore (transfer chunk));
    (* Every payload byte passes through the DILP copy+checksum loop
       exactly once; a shortfall is data that never arrived. *)
    witness =
      (fun m o ->
        let short = (o.ops * mib) - dilp_bytes m in
        if short <= 0 then 0 else (short + mib - 1) / mib);
    repeat_s = 0.65;
    traced_scale = 0.4;
    engines = 1;
    handler = Probe.tcp_ack;
    cluster = None;
  }

(* -- churn-sharded -------------------------------------------------- *)

let churn_spec ~scale ~shards ~jobs =
  {
    Exp_scale.default_spec with
    connections = max 8 (sized 1024 scale);
    client_hosts = 8;
    rounds = 4;
    payload = 256;
    verify = true;
    shards;
    jobs;
  }

let churn_at ~shards ~jobs ~scale =
  let spec = churn_spec ~scale ~shards ~jobs in
  let r = Exp_scale.run_churn spec in
  let leaked = r.leaked_bindings + r.leaked_filters + r.leaked_regions in
  let errors =
    []
    |> fail_if (r.completed < spec.connections)
         (Printf.sprintf "%d/%d connections completed" r.completed
            spec.connections)
    |> fail_if (r.verify_failures > 0)
         (Printf.sprintf "%d echoed bytes differ" r.verify_failures)
    |> fail_if (leaked > 0)
         (Printf.sprintf "leaked %d bindings, %d filters, %d regions"
            r.leaked_bindings r.leaked_filters r.leaked_regions)
  in
  let ops = r.echoed_bytes / spec.payload in
  outcome ~ops
    ~attempted:(spec.connections * spec.rounds)
    ~failed:(spec.connections - r.completed + r.verify_failures + leaked)
    ~errors ~goodput_mbs:r.goodput_mbs ~p50:r.rtt_p50_us ~p99:r.rtt_p99_us
    ~samples:ops ()

(* Two shards on one domain: the timed repeats run the cluster's epoch
   barrier and cross-shard posting without depending on a second core
   being free, which on a shared host is the largest source of noise.
   The traced run times the same repeat on two domains. *)
let churn_shards = 2

let churn =
  {
    name = "churn-sharded";
    op = "echo";
    run = (fun ~seed:_ ~scale -> churn_at ~shards:churn_shards ~jobs:1 ~scale);
    setup =
      (fun ~seed:_ ->
        let spec =
          { (churn_spec ~scale:0.0 ~shards:churn_shards ~jobs:1) with
            connections = 1; client_hosts = 1; rounds = 1 }
        in
        if (Exp_scale.run_churn spec).completed <> 1 then
          failwith "churn set-up: the echo did not complete");
    witness = (fun _ _ -> 0);
    repeat_s = 0.45;
    traced_scale = 0.25;
    engines = churn_shards;
    handler = Probe.tcp_ack;
    cluster = Some churn_at;
  }

(* -- mq-lossy ------------------------------------------------------- *)

let mq_start = 1_000_000
let mq_deadline = 3_600_000_000_000
let mq_consumer_interval = 100_000

let mq_queue ~seed ~counts =
  let fab = Fabric.create ~hosts:4 () in
  let spec =
    { Mq.default_spec with
      Mq.capacity = max 64 (List.fold_left ( + ) 0 counts);
      horizon_ns = mq_deadline }
  in
  let q = Mq.create fab spec in
  Mq.install_chaos q
    ~config:{ Fault.none with Fault.seed; drop = 0.05; jitter = 0.2 }
    ~seed;
  List.iteri (fun p count -> Mq.produce q ~producer:p ~count ~at:mq_start) counts;
  (fab, q, spec)

(* The consumer reads one offset per tick; once the producers drain, it
   catches up with everything acknowledged. Each step runs at least one
   tick per unread record. *)
let catch_up fab q ~acked =
  let rec go () =
    let unread = acked - (Mq.stats q).Mq.s_delivered in
    if unread > 0 && Fabric.now fab < mq_deadline then begin
      Fabric.run_until fab
        (Fabric.now fab + max 10_000_000 (unread * mq_consumer_interval));
      go ()
    end
  in
  go ()

let mq =
  let run ~seed ~scale =
    let per_producer = sized 12_500 scale in
    let fab, q, spec = mq_queue ~seed ~counts:[ per_producer; per_producer ] in
    let consumer =
      Mq.add_consumer q ~host:2 ~start_at:mq_start
        ~interval_ns:mq_consumer_interval ~until:mq_deadline
    in
    let drained = Mq.drain q ~deadline:mq_deadline in
    catch_up fab q ~acked:(Mq.stats q).Mq.s_acked;
    let st = Mq.stats q in
    let a = Mq.audit q in
    let read = Hashtbl.create (2 * st.Mq.s_acked + 1) in
    List.iter
      (fun (off, _, _, ok) -> if ok then Hashtbl.replace read off ())
      (Mq.delivered q ~consumer);
    (* A stop-and-wait producer sends message k when k-1 is acked, so
       the ack-to-ack gap is one message's latency, retries included,
       and the producers' goodputs add up. *)
    let msg_bytes = spec.Mq.payload_words * 4 in
    let gaps = ref [] and unread = ref 0 and goodput = ref 0.0 in
    for p = 0 to spec.Mq.producers - 1 do
      let prev = ref mq_start and n = ref 0 in
      List.iter
        (fun (_, off, ts) ->
          gaps := float_of_int (ts - !prev) /. 1e3 :: !gaps;
          prev := ts;
          incr n;
          if not (Hashtbl.mem read off) then incr unread)
        (Mq.acked_offsets q ~producer:p);
      goodput :=
        !goodput
        +. float_of_int (!n * msg_bytes) /. float_of_int (max 1 (!prev - mq_start)) *. 1e3
    done;
    let attempted = spec.Mq.producers * per_producer in
    let unacked = attempted - st.Mq.s_acked in
    let audit_errors =
      if a.Mq.a_ok then 0 else max 1 (List.length a.Mq.a_errors)
    in
    let errors =
      []
      |> fail_if (not drained) "producers did not drain"
      |> fail_if (unacked > 0) (Printf.sprintf "%d messages unacked" unacked)
      |> fail_if (audit_errors > 0) (String.concat "; " a.Mq.a_errors)
      |> fail_if (!unread > 0)
           (Printf.sprintf "%d acked offsets never read" !unread)
    in
    let percentile p = if !gaps = [] then 0.0 else Ash_util.Stats.percentile p !gaps in
    outcome ~ops:st.Mq.s_acked ~attempted
      ~failed:(unacked + audit_errors + !unread)
      ~errors ~goodput_mbs:!goodput
      ~p50:(percentile 50.0) ~p99:(percentile 99.0)
      ~samples:(List.length !gaps)
      ~counts:
        [
          ("mq.redeliveries", st.Mq.s_redeliveries);
          ("mq.refetches", st.Mq.s_refetches);
          ("mq.dedup_hits", fst st.Mq.s_dedup + snd st.Mq.s_dedup);
        ]
      ()
  in
  {
    name = "mq-lossy";
    op = "acked produce";
    run;
    setup =
      (fun ~seed ->
        let _, q, _ = mq_queue ~seed ~counts:[ 1 ] in
        if not (Mq.drain q ~deadline:mq_deadline && (Mq.stats q).Mq.s_acked = 1)
        then failwith "mq set-up: the produce was not acknowledged");
    witness = (fun _ _ -> 0);
    repeat_s = 0.9;
    traced_scale = 0.08;
    engines = 1;
    handler = Probe.mq_produce;
    cluster = None;
  }

let all = [ rpc; bulk; churn; mq ]
let find name = List.find_opt (fun w -> w.name = name) all

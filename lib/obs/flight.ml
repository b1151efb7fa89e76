type trigger =
  | Quarantine
  | Queue_full_burst
  | Retransmit_storm
  | Redelivery_storm
  | Switch_drop_spike
  | Stalled_epoch

let trigger_label = function
  | Quarantine -> "quarantine"
  | Queue_full_burst -> "queue-full-burst"
  | Retransmit_storm -> "retransmit-storm"
  | Redelivery_storm -> "redelivery-storm"
  | Switch_drop_spike -> "switch-drop-spike"
  | Stalled_epoch -> "stalled-epoch"

type config = {
  ring_capacity : int;
  metric_window : int;
  queue_full_burst : int;
  retransmit_storm : int;
  redelivery_storm : int;
  switch_drop_spike : int;
  burst_window_ns : int;
  stall_ns : int;
  cooldown_ns : int;
  max_dumps : int;
}

let default_config =
  {
    ring_capacity = 2048;
    metric_window = 32;
    queue_full_burst = 8;
    retransmit_storm = 12;
    redelivery_storm = 12;
    switch_drop_spike = 8;
    burst_window_ns = 1_000_000;
    stall_ns = 50_000_000;
    cooldown_ns = 5_000_000;
    max_dumps = 8;
  }

type dump = {
  d_trigger : trigger;
  d_ts : int;
  d_event : Trace.event option;
  d_events : Trace.event list;
  d_spans : Span.interval list;
  d_metrics : Timeseries.view list;
  d_interval_ns : int;
}

(* A windowed burst counter: [count] events since [start]; an event
   past the window restarts it. Cheap and deterministic — the window
   slides on event arrival, not on a timer. *)
type burst = { mutable b_start : int; mutable b_count : int }

type t = {
  cfg : config;
  timeseries : Timeseries.t option;  (* None = ambient at dump time *)
  ring : Trace.event array;
  mutable total : int;  (* events ever pushed into the ring *)
  qf : burst;
  rexmit : burst;
  redeliv : burst;
  swdrop : burst;
  mutable last_ts : int;  (* clock-reset detection *)
  mutable last_progress : int;  (* -1 until the first progress event *)
  mutable last_dump_ts : int;  (* cooldown anchor; min_int before any *)
  mutable fired : int;
  mutable dumps : dump list;  (* newest first, at most max_dumps *)
  mutable tap : Trace.tap_id option;
}

let dummy_event =
  { Trace.seq = -1; ts = 0; corr = 0; kind = Trace.Ev_fired }

let push t (e : Trace.event) =
  t.ring.(t.total mod t.cfg.ring_capacity) <- e;
  t.total <- t.total + 1

let ring_events t =
  let n = min t.total t.cfg.ring_capacity in
  let first = t.total - n in
  List.init n (fun i -> t.ring.((first + i) mod t.cfg.ring_capacity))

let reset_windows t ~ts =
  t.qf.b_start <- ts;
  t.qf.b_count <- 0;
  t.rexmit.b_start <- ts;
  t.rexmit.b_count <- 0;
  t.redeliv.b_start <- ts;
  t.redeliv.b_count <- 0;
  t.swdrop.b_start <- ts;
  t.swdrop.b_count <- 0;
  t.last_progress <- -1;
  t.last_dump_ts <- min_int / 2

(* Bump a burst window; true when the (enabled) threshold is reached.
   The count resets after a fire so a sustained burst re-arms from
   zero instead of firing on every subsequent event. *)
let bump t b ~ts ~threshold =
  if threshold <= 0 then false
  else begin
    if ts - b.b_start > t.cfg.burst_window_ns then begin
      b.b_start <- ts;
      b.b_count <- 0
    end;
    b.b_count <- b.b_count + 1;
    if b.b_count >= threshold then begin
      b.b_count <- 0;
      b.b_start <- ts;
      true
    end
    else false
  end

let metric_window t =
  let ts =
    match t.timeseries with Some x -> Some x | None -> Timeseries.current ()
  in
  match ts with
  | None -> ([], Timeseries.default_interval_ns)
  | Some x ->
    (Timeseries.window x ~last:t.cfg.metric_window, Timeseries.interval_ns x)

let fire t trigger ~ts ~event =
  if ts - t.last_dump_ts >= t.cfg.cooldown_ns then begin
    t.last_dump_ts <- ts;
    t.fired <- t.fired + 1;
    let events = ring_events t in
    let metrics, interval_ns = metric_window t in
    let d =
      {
        d_trigger = trigger;
        d_ts = ts;
        d_event = event;
        d_events = events;
        d_spans = Span.intervals events;
        d_metrics = metrics;
        d_interval_ns = interval_ns;
      }
    in
    let keep = t.cfg.max_dumps - 1 in
    t.dumps <- d :: (if keep <= 0 then [] else List.filteri (fun i _ -> i < keep) t.dumps)
  end

(* Delivery progress: the events that mean "messages are still getting
   through". Their absence while other events flow is the stall
   signature. *)
let is_progress (k : Trace.kind) =
  match k with
  | Trace.Pkt_rx _ | Trace.User_deliver _ | Trace.Upcall _
  | Trace.Ash_dispatch _ | Trace.Ash_commit _ | Trace.Dpf_match _
  | Trace.Tcp_fast_hit ->
    true
  | _ -> false

let check_stall t ~ts ~prev ~event =
  if
    t.cfg.stall_ns > 0 && t.last_progress >= 0
    && ts - t.last_progress >= t.cfg.stall_ns
  then
    if prev >= 0 && ts - prev >= t.cfg.stall_ns then
      (* The recorder itself saw nothing at all for the whole window:
         the simulation fast-forwarded over idle virtual time (a long
         RTO backoff, TIME_WAIT expiry, a quiet phase between
         scenarios). Nothing was trying to make progress, so that is
         not a stall — re-anchor and keep watching. A real stall has
         events or barrier heartbeats landing *inside* the window with
         no progress among them. *)
      t.last_progress <- ts
    else begin
      (* Re-anchor first: one stall yields one dump, and recovery gives
         the next stall a fresh budget. *)
      t.last_progress <- ts;
      fire t Stalled_epoch ~ts ~event
    end

let on_event t ~ts ~corr (k : Trace.kind) =
  (* Virtual time running backwards means a new engine started in this
     process: restart every window rather than mis-firing on deltas
     spanning two runs. *)
  if ts < t.last_ts then reset_windows t ~ts;
  let prev = t.last_ts in
  t.last_ts <- ts;
  let e = { Trace.seq = t.total; ts; corr; kind = k } in
  (* [engine.scheduled]/[engine.fired] are volume without postmortem
     signal: the ring keeps everything else. *)
  (match k with
   | Trace.Ev_scheduled _ | Trace.Ev_fired -> ()
   | _ -> push t e);
  if is_progress k then t.last_progress <- ts
  else check_stall t ~ts ~prev ~event:(Some e);
  match k with
  | Trace.Ash_quarantine _ -> fire t Quarantine ~ts ~event:(Some e)
  | Trace.Pkt_drop { nic = "switch"; _ } ->
    if bump t t.swdrop ~ts ~threshold:t.cfg.switch_drop_spike then
      fire t Switch_drop_spike ~ts ~event:(Some e)
  | Trace.Pkt_drop { reason = Trace.Queue_full; _ } ->
    if bump t t.qf ~ts ~threshold:t.cfg.queue_full_burst then
      fire t Queue_full_burst ~ts ~event:(Some e)
  | Trace.Tcp_retransmit _ ->
    if bump t t.rexmit ~ts ~threshold:t.cfg.retransmit_storm then
      fire t Retransmit_storm ~ts ~event:(Some e)
  | Trace.Mq_redelivery _ ->
    if bump t t.redeliv ~ts ~threshold:t.cfg.redelivery_storm then
      fire t Redelivery_storm ~ts ~event:(Some e)
  | _ -> ()

(* Armed recorders, main domain only: the cluster's epoch barrier
   heartbeats every one of them so stalls are caught even between
   merged events. *)
let armed : t list ref = ref []

let arm ?(config = default_config) ?timeseries () =
  if config.ring_capacity < 1 then invalid_arg "Flight.arm: ring_capacity";
  let t =
    {
      cfg = config;
      timeseries;
      ring = Array.make config.ring_capacity dummy_event;
      total = 0;
      qf = { b_start = 0; b_count = 0 };
      rexmit = { b_start = 0; b_count = 0 };
      redeliv = { b_start = 0; b_count = 0 };
      swdrop = { b_start = 0; b_count = 0 };
      last_ts = min_int;
      last_progress = -1;
      last_dump_ts = min_int / 2;
      fired = 0;
      dumps = [];
      tap = None;
    }
  in
  t.tap <- Some (Trace.add_tap (fun ~ts ~corr k -> on_event t ~ts ~corr k));
  armed := !armed @ [ t ];
  t

let disarm t =
  match t.tap with
  | None -> ()
  | Some id ->
    Trace.remove_tap id;
    t.tap <- None;
    armed := List.filter (fun x -> x != t) !armed

let heartbeat t ~now =
  if now < t.last_ts then reset_windows t ~ts:now;
  let prev = t.last_ts in
  t.last_ts <- max t.last_ts now;
  check_stall t ~ts:now ~prev ~event:None

let heartbeat_all ~now = List.iter (fun t -> heartbeat t ~now) !armed

let dumps t = List.rev t.dumps
let dump_count t = t.fired

let dump_to_json d =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"schema\": \"ashs-flight-dump/1\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"trigger\": \"%s\",\n  \"ts\": %d,\n"
       (trigger_label d.d_trigger) d.d_ts);
  Buffer.add_string b "  \"event\": ";
  (match d.d_event with
   | None -> Buffer.add_string b "null"
   | Some e -> Buffer.add_string b (Dump.event_to_json e));
  Buffer.add_string b ",\n  \"events\": [";
  List.iteri
    (fun i e ->
       if i > 0 then Buffer.add_char b ',';
       Buffer.add_string b "\n    ";
       Buffer.add_string b (Dump.event_to_json e))
    d.d_events;
  Buffer.add_string b "\n  ],\n  \"spans\": [";
  List.iteri
    (fun i (s : Span.interval) ->
       if i > 0 then Buffer.add_char b ',';
       Buffer.add_string b
         (Printf.sprintf
            "\n    {\"corr\": %d, \"stage\": \"%s\", \"t0\": %d, \"t1\": %d, \"cycles\": %d}"
            s.Span.corr
            (Trace.stage_label s.Span.stage)
            s.Span.t0 s.Span.t1 s.Span.cycles))
    d.d_spans;
  Buffer.add_string b "\n  ],\n  \"metrics\": ";
  Buffer.add_string b
    (Timeseries.views_to_json ~interval_ns:d.d_interval_ns d.d_metrics);
  Buffer.add_string b "}\n";
  Buffer.contents b

let write_dumps t ~prefix =
  List.mapi
    (fun i d ->
       let path = Printf.sprintf "%s-%d.json" prefix i in
       let oc = open_out path in
       output_string oc (dump_to_json d);
       close_out oc;
       path)
    (dumps t)

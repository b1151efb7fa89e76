module Engine = Ash_sim.Engine
module Fault = Ash_sim.Fault
module Trace = Ash_obs.Trace
module Span = Ash_obs.Span

type t = {
  engine : Engine.t;
  nic : string;
  fixed_ns : int;
  pkt_occupancy_ns : int;
  ns_per_byte : float;
  mutable free_at : Ash_sim.Time.ns;
  mutable plan : Fault.t option;
}

let create engine ~nic ?(pkt_occupancy_ns = 0) ~fixed_ns ~ns_per_byte () =
  { engine; nic; fixed_ns; pkt_occupancy_ns; ns_per_byte; free_at = 0;
    plan = None }

let set_plan t p = t.plan <- p
let plan t = t.plan
let busy_until t = t.free_at

(* Occupy the wire for [bytes] and run [deliver] when the frame has
   crossed it. [extra_delay_ns] postpones delivery only — the occupancy
   window is unchanged — so a fault plan's reordering and jitter leave
   link utilization alone. *)
let send t ?deliver_via ?(extra_delay_ns = 0) ~bytes deliver =
  let now = Engine.now t.engine in
  let start = Int.max now t.free_at in
  let wire =
    t.pkt_occupancy_ns
    + int_of_float (Float.round (float_of_int bytes *. t.ns_per_byte))
  in
  t.free_at <- start + wire;
  (* Last chance to name the message: if nothing upstream allocated a
     correlation id, the frame gets one here. The wire span covers
     queueing behind earlier frames, serialization, and propagation —
     both endpoints sit on real virtual times, so no offset. *)
  let corr = if Trace.enabled () then Trace.ensure_corr () else 0 in
  if Trace.enabled () then begin
    Trace.emit (Trace.Wire_tx { bytes; busy_until = t.free_at });
    Span.begin_span ~corr Trace.Wire
  end;
  let arrival = start + wire + t.fixed_ns + extra_delay_ns in
  let arrive () =
    if Trace.enabled () then Span.end_span ~corr Trace.Wire;
    deliver ()
  in
  match deliver_via with
  | None -> ignore (Engine.schedule_at t.engine ~at:arrival arrive)
  | Some exec ->
    (* Cross-shard delivery: the receive side runs on the destination
       shard's engine. Posts capture the ambient correlation id just
       like ordinary scheduling, so the wire span closes over there
       under the frame's own id. *)
    exec ~at:arrival arrive

let transmit t ?deliver_via ~wire_bytes ~frame deliver =
  match t.plan with
  | None ->
    send t ?deliver_via ~bytes:wire_bytes (fun () -> deliver frame)
  | Some plan ->
    (* The plan may damage the frame in place or deliver it late (after
       the sender has been acked and reused its buffer), so it works on
       a private copy; the fault-free path above shares the sender's. *)
    let copies, injected = Fault.apply plan ~frame:(Bytes.copy frame) in
    (match injected with
     | Some fault when Trace.enabled () ->
       Trace.emit (Trace.Fault_injected { nic = t.nic; fault })
     | Some _ | None -> ());
    (match copies with
     | [] ->
       (* Lost mid-flight: the frame consumed its wire time; nothing
          arrives. *)
       send t ~bytes:wire_bytes (fun () -> ())
     | copies ->
       List.iter
         (fun (bytes', extra_delay_ns) ->
            send t ?deliver_via ~extra_delay_ns ~bytes:wire_bytes
              (fun () -> deliver bytes'))
         copies)

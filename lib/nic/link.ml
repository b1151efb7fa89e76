module Engine = Ash_sim.Engine
module Trace = Ash_obs.Trace
module Span = Ash_obs.Span

type t = {
  engine : Engine.t;
  fixed_ns : int;
  pkt_occupancy_ns : int;
  ns_per_byte : float;
  mutable free_at : Ash_sim.Time.ns;
}

let create engine ?(pkt_occupancy_ns = 0) ~fixed_ns ~ns_per_byte () =
  { engine; fixed_ns; pkt_occupancy_ns; ns_per_byte; free_at = 0 }

let transmit t ?deliver_via ?(extra_delay_ns = 0) ~bytes deliver =
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

let busy_until t = t.free_at

module Fault = Ash_sim.Fault
module Trace = Ash_obs.Trace

type t = {
  link : Link.t;
  nic : string;
  mutable plan : Fault.t option;
}

let wrap link ~nic = { link; nic; plan = None }

let set_plan t p = t.plan <- p
let plan t = t.plan
let busy_until t = Link.busy_until t.link

let transmit t ?deliver_via ~wire_bytes ~frame deliver =
  match t.plan with
  | None ->
    Link.transmit t.link ?deliver_via ~bytes:wire_bytes (fun () ->
        deliver frame)
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
       Link.transmit t.link ~bytes:wire_bytes (fun () -> ())
     | copies ->
       List.iter
         (fun (bytes', extra_delay_ns) ->
            Link.transmit t.link ?deliver_via ~extra_delay_ns ~bytes:wire_bytes
              (fun () -> deliver bytes'))
         copies)

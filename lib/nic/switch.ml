module Engine = Ash_sim.Engine
module Costs = Ash_sim.Costs
module Trace = Ash_obs.Trace
module Hop = Ash_obs.Hop

type stats = { forwarded : int; flooded : int }

type port = {
  pid : int;
  mutable nic : Ethernet.t option;
  mutable rings : Ethernet.t array; (* RSS rings; [||] = single NIC *)
  mutable link : Link.t option; (* switch -> host direction *)
  queue : (Bytes.t * int32) Queue.t;   (* (frame, sender CRC) *)
  mutable pumping : bool;
  hop : Hop.t;
  mutable s_peak : int;
}

type t = {
  engine : Engine.t;
  costs : Costs.t;
  queue_limit : int;
  ports : port array;
  mac_table : (int, int) Hashtbl.t;
  mutable exec : Engine.exec option; (* this switch's shard executor *)
  mutable s_fwd : int;
  mutable s_flood : int;
}

let create engine ?(queue_limit = 16) ~costs ~ports () =
  if ports < 1 then invalid_arg "Switch.create: need at least one port";
  if queue_limit < 1 then invalid_arg "Switch.create: queue limit";
  let t =
    {
      engine;
      costs;
      queue_limit;
      ports =
        Array.init ports (fun pid ->
            { pid; nic = None; rings = [||]; link = None;
              queue = Queue.create (); pumping = false;
              hop = Hop.create "switch"; s_peak = 0 });
      mac_table = Hashtbl.create 16;
      exec = None;
      s_fwd = 0;
      s_flood = 0;
    }
  in
  (* Telemetry: aggregate egress-queue depth (the congestion signal),
     tail drops and forwards. One switch per fabric, so the names are
     unqualified. *)
  (match Ash_obs.Timeseries.current () with
   | None -> ()
   | Some ts ->
     Ash_obs.Timeseries.register_gauge ts "switch.qdepth" (fun () ->
         float_of_int
           (Array.fold_left (fun acc p -> acc + Queue.length p.queue) 0
              t.ports));
     Ash_obs.Timeseries.register_rate ts "switch.drops" (fun () ->
         Array.fold_left (fun acc p -> acc + Hop.drops p.hop) 0 t.ports);
     Ash_obs.Timeseries.register_rate ts "switch.forwarded" (fun () ->
         t.s_fwd + t.s_flood));
  t

let num_ports t = Array.length t.ports

let check_port t port =
  if port < 0 || port >= Array.length t.ports then
    invalid_arg "Switch: port out of range";
  t.ports.(port)

let wire_bytes t frame =
  Int.max (Bytes.length frame + 18) t.costs.Costs.eth_min_frame + 8

(* Drain one egress queue: transmit the head, then come back when the
   wire frees. The queue bound lives here, not in the link — the link
   is a serializing wire, the switch owns the finite buffer in front of
   it. *)
let rec pump t p =
  match Queue.take_opt p.queue with
  | None -> p.pumping <- false
  | Some (frame, crc_sent) ->
    let link = match p.link with Some l -> l | None -> assert false in
    (* RSS steering is decided here, on the queued (pre-corruption)
       frame: the flow hash picks the ring, so a frame the fault layer
       damages in flight still lands — and is CRC-dropped — on the
       ring its flow owns. *)
    let nic =
      if Array.length p.rings > 0 then
        p.rings.(Rss.ring_index ~rings:(Array.length p.rings) frame)
      else match p.nic with Some n -> n | None -> assert false
    in
    Hop.frame_out p.hop;
    Link.transmit link
      ?deliver_via:(Ethernet.rx_exec nic)
      ~wire_bytes:(wire_bytes t frame) ~frame (fun payload ->
        Ethernet.deliver_frame nic ~payload ~crc_sent);
    let at = Link.busy_until link in
    ignore (Engine.schedule_at t.engine ~at (fun () -> pump t p))

let enqueue t p ~frame ~crc_sent =
  match p.nic with
  | None -> () (* nothing attached: the frame falls off the fabric *)
  | Some _ ->
    Hop.frame_in p.hop;
    if Queue.length p.queue >= t.queue_limit then
      Hop.drop p.hop Trace.Queue_full
    else begin
      Queue.add (frame, crc_sent) p.queue;
      if Queue.length p.queue > p.s_peak then p.s_peak <- Queue.length p.queue;
      if not p.pumping then begin
        p.pumping <- true;
        pump t p
      end
    end

(* Store-and-forward relay: runs once the frame has fully crossed the
   host-to-switch wire. Learning is on the source address; an unknown
   or broadcast destination floods every other attached port (one copy
   per port); a destination learned on the ingress port itself is
   filtered. The sender's CRC rides along unrecomputed, so corruption
   injected on either hop surfaces as a receiver CRC failure. Flooded
   ports share one frame: nothing downstream writes to it (a port's
   fault plan damages a private copy in [Link]). *)
let ingress t ~in_port ~src_mac ~dst_mac ~frame ~crc_sent =
  if src_mac <> Ethernet.broadcast_mac then
    Hashtbl.replace t.mac_table src_mac in_port;
  let known =
    if dst_mac = Ethernet.broadcast_mac then None
    else Hashtbl.find_opt t.mac_table dst_mac
  in
  match known with
  | Some p when p = in_port -> ()
  | Some p ->
    t.s_fwd <- t.s_fwd + 1;
    enqueue t t.ports.(p) ~frame ~crc_sent
  | None ->
    t.s_flood <- t.s_flood + 1;
    Array.iter
      (fun p ->
         if p.pid <> in_port then
           enqueue t p ~frame ~crc_sent)
      t.ports

let set_exec t exec = t.exec <- Some exec

let make_port_link t =
  Link.create t.engine ~nic:"switch" ~fixed_ns:t.costs.Costs.eth_hw_oneway_ns
    ~ns_per_byte:t.costs.Costs.eth_ns_per_byte ()

let attach t ~port nic =
  let p = check_port t port in
  (match p.nic with
   | Some _ -> invalid_arg "Switch.attach: port already attached"
   | None -> ());
  p.nic <- Some nic;
  p.link <- Some (make_port_link t);
  Ethernet.attach_fabric ?ingress_via:t.exec nic
    ~ingress:(fun ~src_mac ~dst_mac ~frame ~crc_sent ->
      ingress t ~in_port:port ~src_mac ~dst_mac ~frame ~crc_sent)

let attach_rss t ~port rings =
  let p = check_port t port in
  (match p.nic with
   | Some _ -> invalid_arg "Switch.attach_rss: port already attached"
   | None -> ());
  if Array.length rings < 1 then
    invalid_arg "Switch.attach_rss: need at least one ring";
  p.nic <- Some rings.(0);
  p.rings <- Array.copy rings;
  p.link <- Some (make_port_link t);
  (* Every ring transmits up the same port: one shared ingress, one
     switch-to-host wire on the way back down. Per-ring TX wires model
     independent host DMA channels; the shared egress wire is where
     switch-to-host PHY serialization happens. *)
  Array.iter
    (fun ring ->
      Ethernet.attach_fabric ?ingress_via:t.exec ring
        ~ingress:(fun ~src_mac ~dst_mac ~frame ~crc_sent ->
          ingress t ~in_port:port ~src_mac ~dst_mac ~frame ~crc_sent))
    rings

let set_fault_plan t ~port plan =
  let p = check_port t port in
  match p.link with
  | Some link -> Link.set_plan link plan
  | None -> invalid_arg "Switch.set_fault_plan: port not attached"

let lookup_port t ~mac = Hashtbl.find_opt t.mac_table mac

let port_hop t ~port = (check_port t port).hop
let queue_peak t ~port = (check_port t port).s_peak
let stats t = { forwarded = t.s_fwd; flooded = t.s_flood }

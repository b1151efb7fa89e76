module Engine = Ash_sim.Engine
module Machine = Ash_sim.Machine
module Memory = Ash_sim.Memory
module Costs = Ash_sim.Costs
module Crc32 = Ash_util.Crc32
module Trace = Ash_obs.Trace

let stripe = 16

type rx = { ring_addr : int; len : int; crc_ok : bool }

type stats = {
  tx_frames : int;
  rx_frames : int;
  rx_dropped_no_buffer : int;
  rx_crc_errors : int;
}

let broadcast_mac = 0xffff_ffff_ffff

(* Frames carry no Ethernet header on this model (demux filters start
   at the IP/ARP payload), so on a switched fabric the station and
   destination addresses travel out of band alongside the frame. *)
type fabric_port = {
  f_ingress :
    src_mac:int -> dst_mac:int -> frame:Bytes.t -> crc_sent:int32 -> unit;
  f_link : Faulty_link.t; (* host -> switch direction *)
  f_via : Engine.exec option; (* runs [f_ingress] on the switch's shard *)
}

type t = {
  engine : Engine.t;
  machine : Machine.t;
  mtu : int;
  mutable free_ring : int list;        (* available slot base addresses *)
  mutable outstanding : int list;      (* slots held by the driver *)
  ring_slots : int list;               (* all slot base addresses *)
  mutable rx_handler : rx -> unit;
  mutable peer : t option;
  mutable tx_link : Faulty_link.t option;
  mutable fabric : fabric_port option;
  mutable mac : int;
  mutable route : (Bytes.t -> int option) option;
  mutable rx_exec : Engine.exec option;
  mutable corrupt_next : bool;
  mutable tx_frames : int;
  mutable rx_frames : int;
  mutable rx_dropped_no_buffer : int;
  mutable rx_crc_errors : int;
}

let create engine machine =
  let costs = Machine.costs machine in
  let mem = Machine.mem machine in
  let slots =
    List.init costs.Costs.eth_rx_ring_slots (fun i ->
        (Memory.alloc mem
           ~name:(Printf.sprintf "eth-ring-%d" i)
           (2 * costs.Costs.eth_mtu))
          .Memory.base)
  in
  {
    engine;
    machine;
    mtu = costs.Costs.eth_mtu;
    free_ring = slots;
    outstanding = [];
    ring_slots = slots;
    rx_handler = ignore;
    peer = None;
    tx_link = None;
    fabric = None;
    mac = broadcast_mac;
    route = None;
    rx_exec = None;
    corrupt_next = false;
    tx_frames = 0;
    rx_frames = 0;
    rx_dropped_no_buffer = 0;
    rx_crc_errors = 0;
  }

let connect a b =
  if a.peer <> None || b.peer <> None || a.fabric <> None || b.fabric <> None
  then invalid_arg "Ethernet.connect: already connected";
  let costs = Machine.costs a.machine in
  let mk () =
    Faulty_link.wrap ~nic:"eth"
      (Link.create a.engine ~fixed_ns:costs.Costs.eth_hw_oneway_ns
         ~ns_per_byte:costs.Costs.eth_ns_per_byte ())
  in
  a.peer <- Some b;
  b.peer <- Some a;
  a.tx_link <- Some (mk ());
  b.tx_link <- Some (mk ())

let set_mac t mac = t.mac <- mac land broadcast_mac
let mac t = t.mac
let set_route t f = t.route <- Some f
let set_rx_exec t exec = t.rx_exec <- Some exec
let rx_exec t = t.rx_exec

let attach_fabric ?ingress_via t ~ingress =
  if t.peer <> None || t.fabric <> None then
    invalid_arg "Ethernet.attach_fabric: already connected";
  let costs = Machine.costs t.machine in
  let link =
    Faulty_link.wrap ~nic:"eth"
      (Link.create t.engine ~fixed_ns:costs.Costs.eth_hw_oneway_ns
         ~ns_per_byte:costs.Costs.eth_ns_per_byte ())
  in
  t.fabric <- Some { f_ingress = ingress; f_link = link; f_via = ingress_via }

let set_rx_handler t f = t.rx_handler <- f

(* DMA a packet into a ring slot, striped: 16 bytes of data, 16 bytes of
   padding, repeating (§III-C). *)
let dma_striped t ~slot ~payload =
  let mem = Machine.mem t.machine in
  let len = Bytes.length payload in
  let off = ref 0 in
  while !off < len do
    let chunk = Int.min stripe (len - !off) in
    Memory.blit_from_bytes mem ~src:payload ~src_off:!off
      ~dst:(slot + (2 * !off)) ~len:chunk;
    off := !off + chunk
  done

let deliver t ~payload ~crc_sent =
  match t.free_ring with
  | [] ->
    t.rx_dropped_no_buffer <- t.rx_dropped_no_buffer + 1;
    if Trace.enabled () then
      Trace.emit (Trace.Pkt_drop { nic = "eth"; reason = Trace.No_buffer })
  | slot :: rest ->
    t.free_ring <- rest;
    t.outstanding <- slot :: t.outstanding;
    dma_striped t ~slot ~payload;
    let len = Bytes.length payload in
    let crc_ok = Crc32.digest payload ~off:0 ~len = crc_sent in
    if not crc_ok then t.rx_crc_errors <- t.rx_crc_errors + 1;
    t.rx_frames <- t.rx_frames + 1;
    if Trace.enabled () then
      Trace.emit (Trace.Pkt_rx { nic = "eth"; bytes = len });
    t.rx_handler { ring_addr = slot; len; crc_ok }

let deliver_frame t ~payload ~crc_sent = deliver t ~payload ~crc_sent

let transmit t payload =
  let len = Bytes.length payload in
  if len = 0 || len > t.mtu then invalid_arg "Ethernet.transmit: bad length";
  let put_on_wire ?deliver_via link handoff =
    t.tx_frames <- t.tx_frames + 1;
    if Trace.enabled () then
      Trace.emit (Trace.Pkt_tx { nic = "eth"; bytes = len });
    (* As on the AN2: the caller's bytes go on the wire unless a bit
       flip is injected (a fault plan copies in [Faulty_link]). *)
    let crc_sent = Crc32.digest payload ~off:0 ~len in
    let frame =
      if t.corrupt_next then begin
        t.corrupt_next <- false;
        let frame = Bytes.copy payload in
        Bytes.set frame (len / 2)
          (Char.chr (Char.code (Bytes.get frame (len / 2)) lxor 0x10));
        frame
      end
      else payload
    in
    let costs = Machine.costs t.machine in
    (* Wire occupancy: preamble + header/CRC framing + padding to the
       64-byte minimum frame. *)
    let wire_bytes = Int.max (len + 18) costs.Costs.eth_min_frame + 8 in
    Faulty_link.transmit ?deliver_via link ~wire_bytes ~frame (handoff crc_sent)
  in
  match t.peer, t.tx_link, t.fabric with
  | Some peer, Some link, _ ->
    put_on_wire link (fun crc_sent payload -> deliver peer ~payload ~crc_sent)
  | _, _, Some f ->
    (* Routed on the sender's view of the payload (before any injected
       corruption): an unresolvable destination goes out as broadcast. *)
    let dst_mac =
      match t.route with
      | Some r -> (match r payload with Some m -> m | None -> broadcast_mac)
      | None -> broadcast_mac
    in
    put_on_wire ?deliver_via:f.f_via f.f_link (fun crc_sent payload ->
        f.f_ingress ~src_mac:t.mac ~dst_mac ~frame:payload ~crc_sent)
  | _ -> failwith "Ethernet.transmit: not connected"

let release_buffer t ~ring_addr =
  if not (List.mem ring_addr t.ring_slots) then
    invalid_arg "Ethernet.release_buffer: not a ring slot";
  if not (List.mem ring_addr t.outstanding) then
    invalid_arg "Ethernet.release_buffer: buffer not outstanding";
  t.outstanding <- List.filter (fun a -> a <> ring_addr) t.outstanding;
  t.free_ring <- t.free_ring @ [ ring_addr ]

let destripe t rx ~dst =
  Machine.destripe t.machine ~src:rx.ring_addr ~dst ~len:rx.len ~stripe

let corrupt_next_frame t = t.corrupt_next <- true

let out_link t =
  match t.tx_link, t.fabric with
  | Some link, _ -> Some link
  | None, Some f -> Some f.f_link
  | None, None -> None

let set_fault_plan t plan =
  match out_link t with
  | Some link -> Faulty_link.set_plan link plan
  | None -> invalid_arg "Ethernet.set_fault_plan: not connected"

let stats t =
  {
    tx_frames = t.tx_frames;
    rx_frames = t.rx_frames;
    rx_dropped_no_buffer = t.rx_dropped_no_buffer;
    rx_crc_errors = t.rx_crc_errors;
  }

let outstanding_buffers t = List.length t.outstanding

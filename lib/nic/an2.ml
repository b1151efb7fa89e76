module Engine = Ash_sim.Engine
module Machine = Ash_sim.Machine
module Memory = Ash_sim.Memory
module Costs = Ash_sim.Costs
module Crc32 = Ash_util.Crc32
module Trace = Ash_obs.Trace
module Span = Ash_obs.Span
module Hop = Ash_obs.Hop

let max_frame = 4096

type rx = { vc : int; addr : int; len : int; buf_len : int; crc_ok : bool }

type vc_state = {
  mutable buffers : (int * int) list; (* (addr, len), FIFO *)
}

type t = {
  engine : Engine.t;
  machine : Machine.t;
  vcs : (int, vc_state) Hashtbl.t;
  mutable rx_handler : rx -> unit;
  mutable peer : t option;
  mutable tx_link : Link.t option; (* our transmit direction *)
  mutable corrupt_next : bool;
  rx_hop : Hop.t;
  mutable rx_crc_errors : int;
}

let create engine machine =
  {
    engine;
    machine;
    vcs = Hashtbl.create 8;
    rx_handler = ignore;
    peer = None;
    tx_link = None;
    corrupt_next = false;
    rx_hop = Hop.create "an2";
    rx_crc_errors = 0;
  }

let connect a b =
  if a.peer <> None || b.peer <> None then
    invalid_arg "An2.connect: already connected";
  let costs = Machine.costs a.machine in
  let mk () =
    Link.create a.engine ~nic:"an2"
      ~pkt_occupancy_ns:costs.Costs.an2_pkt_occupancy_ns
      ~fixed_ns:costs.Costs.an2_hw_oneway_ns
      ~ns_per_byte:costs.Costs.an2_ns_per_byte ()
  in
  a.peer <- Some b;
  b.peer <- Some a;
  a.tx_link <- Some (mk ());
  b.tx_link <- Some (mk ())

let bind_vc t ~vc =
  if Hashtbl.mem t.vcs vc then invalid_arg "An2.bind_vc: already bound";
  Hashtbl.add t.vcs vc { buffers = [] }

let unbind_vc t ~vc =
  if not (Hashtbl.mem t.vcs vc) then invalid_arg "An2.unbind_vc: not bound";
  Hashtbl.remove t.vcs vc

let post_buffer t ~vc ~addr ~len =
  match Hashtbl.find_opt t.vcs vc with
  | None -> invalid_arg "An2.post_buffer: unbound vc"
  | Some s -> s.buffers <- s.buffers @ [ (addr, len) ]

let free_buffers t ~vc =
  match Hashtbl.find_opt t.vcs vc with
  | None -> 0
  | Some s -> List.length s.buffers

let set_rx_handler t f = t.rx_handler <- f

(* Deliver a frame that has finished crossing the wire: board-side VC
   demux, DMA into the next posted buffer, CRC verdict, driver upcall. *)
let deliver t ~vc ~payload ~crc_sent =
  Hop.frame_in t.rx_hop;
  (* The board's VC table lookup is the AN2's entire demux stage: the
     sender named the channel, so the span is zero-width on the span
     clock (no CPU charged). *)
  let corr = Trace.current_corr () in
  Span.begin_span ~corr Trace.Demux;
  let binding = Hashtbl.find_opt t.vcs vc in
  Span.end_span ~corr Trace.Demux;
  match binding with
  | None -> Hop.drop t.rx_hop Trace.No_vc
  | Some s -> begin
      match s.buffers with
      | [] -> Hop.drop t.rx_hop Trace.No_buffer
      | (addr, buf_len) :: rest ->
        let len = Bytes.length payload in
        if len > buf_len then
          (* A frame bigger than the posted buffer is a binding error;
             the board drops it rather than overrunning memory. *)
          Hop.drop t.rx_hop Trace.Too_big
        else begin
          s.buffers <- rest;
          Memory.blit_from_bytes (Machine.mem t.machine) ~src:payload
            ~src_off:0 ~dst:addr ~len;
          let crc_ok = Crc32.digest payload ~off:0 ~len = crc_sent in
          if not crc_ok then t.rx_crc_errors <- t.rx_crc_errors + 1;
          Hop.frame_out t.rx_hop;
          if Trace.enabled () then
            Trace.emit (Trace.Pkt_rx { nic = "an2"; bytes = len });
          t.rx_handler { vc; addr; len; buf_len; crc_ok }
        end
    end

let transmit t ~vc payload =
  let len = Bytes.length payload in
  if len = 0 || len > max_frame then
    invalid_arg "An2.transmit: bad frame length";
  match t.peer, t.tx_link with
  | Some peer, Some link ->
    if Trace.enabled () then
      Trace.emit (Trace.Pkt_tx { nic = "an2"; bytes = len });
    (* The CRC is computed by the board over the bytes as sent. The
       stack owns [payload] from here on, so the fault-free path puts
       the caller's bytes on the wire; only an injected bit flip (and a
       fault plan, in [Link]) works on a copy. *)
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
    Link.transmit link ~wire_bytes:len ~frame (fun payload ->
        deliver peer ~vc ~payload ~crc_sent)
  | _ -> failwith "An2.transmit: not connected"

let corrupt_next_frame t = t.corrupt_next <- true

let set_fault_plan t plan =
  match t.tx_link with
  | Some link -> Link.set_plan link plan
  | None -> invalid_arg "An2.set_fault_plan: not connected"

let fault_plan t =
  match t.tx_link with
  | Some link -> Link.plan link
  | None -> None

let rx_hop t = t.rx_hop
let rx_crc_errors t = t.rx_crc_errors

module Kernel = Ash_kern.Kernel
module Dpf = Ash_kern.Dpf
module Engine = Ash_sim.Engine
module Machine = Ash_sim.Machine
module Memory = Ash_sim.Memory
module Bytesx = Ash_util.Bytesx

module Wire = struct
  let op_request = 1
  let op_reply = 2

  type pkt = {
    op : int;
    sender_mac : int;
    sender_ip : int;
    target_mac : int;
    target_ip : int;
  }

  let len = 28
  let off_htype = 0
  let htype_ethernet = 1

  let set_mac b off mac =
    Bytesx.set_u16 b off ((mac lsr 32) land 0xffff);
    Bytesx.set_u32 b (off + 2) (mac land 0xffff_ffff)

  let get_mac b off =
    (Bytesx.get_u16 b off lsl 32) lor Bytesx.get_u32 b (off + 2)

  let write p =
    let b = Bytes.create len in
    Bytesx.set_u16 b off_htype htype_ethernet;
    Bytesx.set_u16 b 2 0x0800; (* ptype: IPv4 *)
    Bytesx.set_u8 b 4 6;
    Bytesx.set_u8 b 5 4;
    Bytesx.set_u16 b 6 p.op;
    set_mac b 8 p.sender_mac;
    Bytesx.set_u32 b 14 p.sender_ip;
    set_mac b 18 p.target_mac;
    Bytesx.set_u32 b 24 p.target_ip;
    b

  let read b =
    if Bytes.length b < len then Error "arp: truncated"
    else if Bytesx.get_u16 b off_htype <> htype_ethernet
         || Bytesx.get_u16 b 2 <> 0x0800 then
      Error "arp: not ethernet/ipv4"
    else if Bytesx.get_u8 b 4 <> 6 || Bytesx.get_u8 b 5 <> 4 then
      Error "arp: bad address lengths"
    else
      Ok
        {
          op = Bytesx.get_u16 b 6;
          sender_mac = get_mac b 8;
          sender_ip = Bytesx.get_u32 b 14;
          target_mac = get_mac b 18;
          target_ip = Bytesx.get_u32 b 24;
        }
end

type stats = {
  requests_sent : int;
  replies_sent : int;
  resolved : int;
  timeouts : int;
}

type pending = {
  target : int;
  mutable tries : int;
  mutable waiters : (int option -> unit) list;
  mutable timer : Engine.event_id option;
}

type t = {
  kernel : Kernel.t;
  my_ip : int;
  my_mac : int;
  cache : (int, int) Hashtbl.t;
  pendings : (int, pending) Hashtbl.t;
  mutable s_req : int;
  mutable s_rep : int;
  mutable s_resolved : int;
  mutable s_timeouts : int;
}

let retry_ns = 100_000_000 (* 100 ms *)
let max_tries = 3
let lookup_cost_ns = 2_000

let send t pkt =
  Kernel.app_compute t.kernel 3_000;
  Kernel.eth_user_send t.kernel (Wire.write pkt)

let transmit_request t target_ip =
  t.s_req <- t.s_req + 1;
  send t
    { Wire.op = Wire.op_request; sender_mac = t.my_mac; sender_ip = t.my_ip;
      target_mac = 0; target_ip }

let finish t p result =
  (match p.timer with
   | Some id ->
     Engine.cancel (Kernel.engine t.kernel) id;
     p.timer <- None
   | None -> ());
  Hashtbl.remove t.pendings p.target;
  List.iter (fun k -> k result) (List.rev p.waiters)

let rec arm_retry t p =
  p.timer <-
    Some
      (Engine.schedule (Kernel.engine t.kernel) ~delay:retry_ns (fun () ->
           p.timer <- None;
           if p.tries >= max_tries then begin
             t.s_timeouts <- t.s_timeouts + 1;
             finish t p None
           end
           else begin
             p.tries <- p.tries + 1;
             transmit_request t p.target;
             arm_retry t p
           end))

let learn t ~ip ~mac =
  if ip <> t.my_ip then begin
    Hashtbl.replace t.cache ip mac;
    match Hashtbl.find_opt t.pendings ip with
    | Some p ->
      t.s_resolved <- t.s_resolved + 1;
      finish t p (Some mac)
    | None -> ()
  end

let on_packet t ~addr ~len =
  let view = Bytes.create (min len 64) in
  Memory.blit_to_bytes
    (Machine.mem (Kernel.machine t.kernel))
    ~src:addr ~dst:view ~dst_off:0 ~len:(Bytes.length view);
  Kernel.app_compute t.kernel lookup_cost_ns;
  match Wire.read view with
  | Error _ -> ()
  | Ok pkt ->
    (* Learn the sender mapping from any valid ARP traffic we see. *)
    learn t ~ip:pkt.Wire.sender_ip ~mac:pkt.Wire.sender_mac;
    if pkt.Wire.op = Wire.op_request && pkt.Wire.target_ip = t.my_ip then begin
      t.s_rep <- t.s_rep + 1;
      send t
        { Wire.op = Wire.op_reply; sender_mac = t.my_mac;
          sender_ip = t.my_ip; target_mac = pkt.Wire.sender_mac;
          target_ip = pkt.Wire.sender_ip }
    end

let create kernel ~my_ip ~my_mac =
  let t =
    {
      kernel;
      my_ip;
      my_mac = my_mac land 0xffff_ffff_ffff;
      cache = Hashtbl.create 8;
      pendings = Hashtbl.create 4;
      s_req = 0;
      s_rep = 0;
      s_resolved = 0;
      s_timeouts = 0;
    }
  in
  (* Demux: ARP's htype field (0x0001) cannot collide with an IPv4
     frame, whose first byte is 0x45. *)
  let vc =
    Kernel.bind_eth_filter kernel
      [ Dpf.atom ~offset:Wire.off_htype ~width:2 Wire.htype_ethernet ]
      Kernel.Deliver_user
  in
  Kernel.set_user_handler kernel ~vc (fun ~addr ~len ->
      on_packet t ~addr ~len);
  t

let lookup t ~ip = Hashtbl.find_opt t.cache ip

let resolve t ~ip k =
  Kernel.app_compute t.kernel lookup_cost_ns;
  match Hashtbl.find_opt t.cache ip with
  | Some mac ->
    t.s_resolved <- t.s_resolved + 1;
    k (Some mac)
  | None -> begin
      match Hashtbl.find_opt t.pendings ip with
      | Some p -> p.waiters <- k :: p.waiters
      | None ->
        let p = { target = ip; tries = 1; waiters = [ k ]; timer = None } in
        Hashtbl.add t.pendings ip p;
        transmit_request t ip;
        arm_retry t p
    end

let stats t =
  {
    requests_sent = t.s_req;
    replies_sent = t.s_rep;
    resolved = t.s_resolved;
    timeouts = t.s_timeouts;
  }

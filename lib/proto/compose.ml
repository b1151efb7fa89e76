module Isa = Ash_vm.Isa
module Builder = Ash_vm.Builder

type fragment = {
  frag_name : string;
  header_len : int;
  emit : Builder.t -> off:int -> reject:Builder.label -> unit;
}

let fragment ~name ~header_len emit =
  if header_len < 0 then invalid_arg "Compose.fragment";
  { frag_name = name; header_len; emit }

(* Fragments may scratch r8/r9 (below the DILP pool, above the kcall
   argument registers). *)
let r_v = 8
let r_w = 9

let ipv4 ?src_ip ~proto () =
  fragment ~name:"ipv4" ~header_len:Packet.ip_header_len
    (fun b ~off ~reject ->
       Builder.emit b (Isa.Ld8 (r_v, Isa.reg_msg_addr, off));
       Builder.li b r_w 0x45;
       Builder.bne b r_v r_w reject;
       Builder.emit b
         (Isa.Ld8 (r_v, Isa.reg_msg_addr, off + Packet.Ip.off_proto));
       Builder.li b r_w proto;
       Builder.bne b r_v r_w reject;
       match src_ip with
       | None -> ()
       | Some ip ->
         Builder.emit b
           (Isa.Ld32 (r_v, Isa.reg_msg_addr, off + Packet.Ip.off_src));
         Builder.li b r_w ip;
         Builder.bne b r_v r_w reject)

let udp ~dst_port =
  fragment ~name:"udp" ~header_len:Packet.udp_header_len
    (fun b ~off ~reject ->
       Builder.emit b
         (Isa.Ld16 (r_v, Isa.reg_msg_addr, off + Packet.Udp.off_dst_port));
       Builder.li b r_w dst_port;
       Builder.bne b r_v r_w reject)

let tcp_ports ~src_port ~dst_port =
  fragment ~name:"tcp" ~header_len:Packet.tcp_header_len
    (fun b ~off ~reject ->
       Builder.emit b
         (Isa.Ld16 (r_v, Isa.reg_msg_addr, off + Packet.Tcp.off_src_port));
       Builder.li b r_w src_port;
       Builder.bne b r_v r_w reject;
       Builder.emit b
         (Isa.Ld16 (r_v, Isa.reg_msg_addr, off + Packet.Tcp.off_dst_port));
       Builder.li b r_w dst_port;
       Builder.bne b r_v r_w reject)

let magic32 value =
  fragment ~name:"magic32" ~header_len:4 (fun b ~off ~reject ->
      Builder.emit b (Isa.Ld32 (r_v, Isa.reg_msg_addr, off));
      Builder.li b r_w value;
      Builder.bne b r_v r_w reject)

type action =
  | Deposit of { dst_addr : int }
  | Deposit_dilp of { dilp_id : int; dst_addr : int }
  | Echo
  | Consume

let total_header_len frags =
  List.fold_left (fun acc f -> acc + f.header_len) 0 frags

let compose ~name frags action =
  let b = Builder.create ~name () in
  let reject = Builder.fresh_label b in
  (* Whole-stack length check first: the message must hold every header. *)
  let headers = total_header_len frags in
  Builder.li b r_v headers;
  Builder.bltu b Isa.reg_msg_len r_v reject;
  (* Each fragment validates its layer at its cumulative offset. *)
  ignore
    (List.fold_left
       (fun off f ->
          f.emit b ~off ~reject;
          off + f.header_len)
       0 frags);
  (* Payload length into r8. *)
  Builder.emit b (Isa.Addi (r_v, Isa.reg_msg_len, -headers));
  (match action with
   | Deposit { dst_addr } ->
     Builder.li b Isa.reg_arg0 headers;
     Builder.li b Isa.reg_arg1 dst_addr;
     Builder.emit b (Isa.Mov (Isa.reg_arg2, r_v));
     Builder.call b Isa.K_copy
   | Deposit_dilp { dilp_id; dst_addr } ->
     Builder.emit b (Isa.Andi (r_w, r_v, 3));
     Builder.bne b r_w Isa.reg_zero reject;
     Builder.li b Isa.reg_arg0 dilp_id;
     Builder.li b Isa.reg_arg1 headers;
     Builder.li b Isa.reg_arg2 dst_addr;
     Builder.emit b (Isa.Mov (Isa.reg_arg3, r_v));
     Builder.call b Isa.K_dilp;
     Builder.beq b Isa.reg_arg0 Isa.reg_zero reject
   | Echo ->
     Builder.emit b (Isa.Mov (Isa.reg_arg0, Isa.reg_msg_addr));
     Builder.emit b (Isa.Mov (Isa.reg_arg1, Isa.reg_msg_len));
     Builder.call b Isa.K_send
   | Consume -> ());
  Builder.commit b;
  Builder.place b reject;
  Builder.abort b;
  Builder.assemble b

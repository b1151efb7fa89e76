module Kernel = Ash_kern.Kernel
module Memory = Ash_sim.Memory
module Machine = Ash_sim.Machine
module Isa = Ash_vm.Isa
module Builder = Ash_vm.Builder
module Bytesx = Ash_util.Bytesx

let op_write = 1
let op_read = 2
let op_lock = 3
let op_unlock = 4
let header_len = 16

(* Per-segment descriptor: base, size, lock address (three words). *)
let entry_stride = 12

(* The single DSM handler: dispatches on the opcode, translates the
   segment through the descriptor table (addresses baked in as
   immediates at download time), bounds-checks, and performs the
   operation — §II-A's three-part structure with a shared abort tail. *)
let handler ~table_addr ~segments =
  let b = Builder.create ~name:"dsm-handler" () in
  let bad = Builder.fresh_label b in
  let op = Builder.temp b
  and seg = Builder.temp b
  and entry = Builder.temp b
  and base = Builder.temp b
  and size = Builder.temp b
  and off = Builder.temp b
  and len = Builder.temp b
  and t = Builder.temp b in
  let reply_status v =
    Builder.li b t v;
    Builder.emit b (Isa.St32 (t, Isa.reg_msg_addr, 0));
    Builder.emit b (Isa.Mov (Isa.reg_arg0, Isa.reg_msg_addr));
    Builder.li b Isa.reg_arg1 4;
    Builder.call b Isa.K_send;
    Builder.commit b
  in
  (* Parse and translate. *)
  Builder.li b t header_len;
  Builder.bltu b Isa.reg_msg_len t bad;
  Builder.emit b (Isa.Ld32 (op, Isa.reg_msg_addr, 0));
  Builder.emit b (Isa.Ld32 (seg, Isa.reg_msg_addr, 4));
  Builder.li b t segments;
  Builder.bgeu b seg t bad;
  Builder.li b entry entry_stride;
  Builder.emit b (Isa.Mul (entry, seg, entry));
  Builder.emit b (Isa.Addi (entry, entry, table_addr));
  Builder.emit b (Isa.Ld32 (base, entry, 0));
  Builder.emit b (Isa.Ld32 (size, entry, 4));
  Builder.emit b (Isa.Ld32 (off, Isa.reg_msg_addr, 8));
  Builder.emit b (Isa.Ld32 (len, Isa.reg_msg_addr, 12));
  let do_read = Builder.fresh_label b in
  let do_lock = Builder.fresh_label b in
  let do_unlock = Builder.fresh_label b in
  let bounds () =
    Builder.emit b (Isa.Add (t, off, len));
    Builder.bltu b size t bad
  in
  Builder.li b t op_read;
  Builder.beq b op t do_read;
  Builder.li b t op_lock;
  Builder.beq b op t do_lock;
  Builder.li b t op_unlock;
  Builder.beq b op t do_unlock;
  Builder.li b t op_write;
  Builder.bne b op t bad;
  (* write: data follows the header. *)
  bounds ();
  Builder.li b Isa.reg_arg0 header_len;
  Builder.emit b (Isa.Add (Isa.reg_arg1, base, off));
  Builder.emit b (Isa.Mov (Isa.reg_arg2, len));
  Builder.call b Isa.K_copy;
  reply_status 1;
  (* read: reply straight out of the exported segment (no copy). *)
  Builder.place b do_read;
  bounds ();
  Builder.emit b (Isa.Add (Isa.reg_arg0, base, off));
  Builder.emit b (Isa.Mov (Isa.reg_arg1, len));
  Builder.call b Isa.K_send;
  Builder.commit b;
  (* lock: test-and-set of the lock word; the owner id rides in the
     len field. A zero owner would wedge the lock free: reject it. *)
  Builder.place b do_lock;
  Builder.beq b len Isa.reg_zero bad;
  Builder.emit b (Isa.Ld32 (base, entry, 8)); (* lock address *)
  Builder.emit b (Isa.Ld32 (t, base, 0));
  let busy = Builder.fresh_label b in
  Builder.bne b t Isa.reg_zero busy;
  Builder.emit b (Isa.St32 (len, base, 0));
  reply_status 1;
  Builder.place b busy;
  reply_status 0;
  (* unlock. *)
  Builder.place b do_unlock;
  Builder.emit b (Isa.Ld32 (base, entry, 8));
  Builder.emit b (Isa.St32 (Isa.reg_zero, base, 0));
  reply_status 1;
  Builder.place b bad;
  Builder.abort b;
  Builder.assemble b

type server = {
  node : Fabric.node;
  segs : Memory.region array;
  locks : Memory.region;
}

type pending =
  | P_status of (bool -> unit)
  | P_read of int * (Bytes.t option -> unit)

type client = {
  cnode : Fabric.node;
  cvc : int;
  queue : pending Queue.t;
}

let serve node ~vc ~segments ~segment_size =
  if segments <= 0 || segment_size <= 0 then invalid_arg "Dsm.serve";
  let kernel = node.Fabric.kernel in
  let mem = Machine.mem (Kernel.machine kernel) in
  let segs =
    Array.init segments (fun i ->
        Memory.alloc mem ~name:(Printf.sprintf "dsm-seg-%d" i) segment_size)
  in
  let locks = Memory.alloc mem ~name:"dsm-locks" (4 * segments) in
  let table = Memory.alloc mem ~name:"dsm-table" (entry_stride * segments) in
  Array.iteri
    (fun i (seg : Memory.region) ->
       let e = table.Memory.base + (i * entry_stride) in
       Memory.store32 mem e seg.Memory.base;
       Memory.store32 mem (e + 4) seg.Memory.len;
       Memory.store32 mem (e + 8) (locks.Memory.base + (4 * i)))
    segs;
  (match
     Kernel.download_ash kernel ~sandbox:true
       (handler ~table_addr:table.Memory.base ~segments)
   with
   | Ok id -> Kernel.bind_vc kernel ~vc (Kernel.Deliver_ash id)
   | Error e ->
     failwith (Format.asprintf "Dsm.serve: %a" Ash_vm.Verify.pp_error e));
  Kernel.set_auto_repost kernel ~vc true;
  Kernel.set_user_handler kernel ~vc (fun ~addr:_ ~len:_ -> ());
  Fabric.post_buffers node ~vc ~count:8 ~size:(header_len + segment_size);
  { node; segs; locks }

let segment_addr t ~seg = t.segs.(seg).Memory.base

let lock_holder t ~seg =
  Memory.load32
    (Machine.mem (Kernel.machine t.node.Fabric.kernel))
    (t.locks.Memory.base + (4 * seg))

let connect node ~vc =
  let kernel = node.Fabric.kernel in
  Kernel.bind_vc kernel ~vc Kernel.Deliver_user;
  Kernel.set_auto_repost kernel ~vc true;
  Fabric.post_buffers node ~vc ~count:8 ~size:4096;
  let t = { cnode = node; cvc = vc; queue = Queue.create () } in
  Kernel.set_user_handler kernel ~vc (fun ~addr ~len ->
      match Queue.take_opt t.queue with
      | None -> ()
      | Some (P_status k) ->
        let mem = Machine.mem (Kernel.machine kernel) in
        k (len >= 4 && Memory.load32 mem addr = 1)
      | Some (P_read (expect, k)) ->
        if len <> expect then k None
        else begin
          let data = Bytes.create len in
          Memory.blit_to_bytes
            (Machine.mem (Kernel.machine kernel))
            ~src:addr ~dst:data ~dst_off:0 ~len;
          k (Some data)
        end);
  t

let request t ~op ~seg ~off ~len_field ~data =
  let dlen = match data with None -> 0 | Some d -> Bytes.length d in
  let msg = Bytes.create (header_len + dlen) in
  Bytesx.set_u32 msg 0 op;
  Bytesx.set_u32 msg 4 seg;
  Bytesx.set_u32 msg 8 off;
  Bytesx.set_u32 msg 12 len_field;
  (match data with Some d -> Bytes.blit d 0 msg header_len dlen | None -> ());
  Kernel.user_send t.cnode.Fabric.kernel ~vc:t.cvc msg

let write t ~seg ~off ~data k =
  Queue.add (P_status k) t.queue;
  request t ~op:op_write ~seg ~off ~len_field:(Bytes.length data)
    ~data:(Some data)

let read t ~seg ~off ~len k =
  Queue.add (P_read (len, k)) t.queue;
  request t ~op:op_read ~seg ~off ~len_field:len ~data:None

let lock t ~seg ~owner k =
  if owner = 0 then invalid_arg "Dsm.lock: owner must be nonzero";
  Queue.add (P_status k) t.queue;
  request t ~op:op_lock ~seg ~off:0 ~len_field:owner ~data:None

let unlock t ~seg k =
  Queue.add (P_status k) t.queue;
  request t ~op:op_unlock ~seg ~off:0 ~len_field:0 ~data:None

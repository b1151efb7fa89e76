(* Active messages with protection (§V-C): remote increment and a remote
   spin-lock service implemented as ASHs, with the latency comparison
   against waking the application.

   Run with:  dune exec examples/active_messages.exe *)

module Fabric = Ash_core.Fabric
module Kernel = Ash_kern.Kernel
module Memory = Ash_sim.Memory
module Machine = Ash_sim.Machine
module Builder = Ash_vm.Builder
module Isa = Ash_vm.Isa
module Bytesx = Ash_util.Bytesx

let vc = 9

(* A remote test-and-set lock handler: message [owner-id(4)]; replies
   with 1 if the lock was acquired, 0 if already held. Lock word at a
   fixed application address. *)
let lock_handler ~lock_addr =
  let b = Builder.create ~name:"remote-lock" () in
  let busy = Builder.fresh_label b in
  let lock = Builder.temp b
  and v = Builder.temp b
  and owner = Builder.temp b in
  Builder.li b lock lock_addr;
  Builder.emit b (Isa.Ld32 (v, lock, 0));
  Builder.bne b v Isa.reg_zero busy;
  Builder.emit b (Isa.Ld32 (owner, Isa.reg_msg_addr, 0));
  Builder.emit b (Isa.St32 (owner, lock, 0));
  Builder.li b v 1;
  Builder.emit b (Isa.St32 (v, Isa.reg_msg_addr, 0));
  Builder.emit b (Isa.Mov (Isa.reg_arg0, Isa.reg_msg_addr));
  Builder.li b Isa.reg_arg1 4;
  Builder.call b Isa.K_send;
  Builder.commit b;
  Builder.place b busy;
  Builder.emit b (Isa.St32 (Isa.reg_zero, Isa.reg_msg_addr, 0));
  Builder.emit b (Isa.Mov (Isa.reg_arg0, Isa.reg_msg_addr));
  Builder.li b Isa.reg_arg1 4;
  Builder.call b Isa.K_send;
  Builder.commit b;
  Builder.assemble b

let () =
  let tb = Fabric.pair () in
  let server = Fabric.host tb 0 and client = Fabric.host tb 1 in
  let mem = Machine.mem (Kernel.machine server.Fabric.kernel) in

  (* Application state the handlers act on directly. *)
  let lock = Fabric.alloc server ~name:"lock-word" 4 in

  let ash =
    match
      Kernel.download_ash server.Fabric.kernel ~sandbox:true
        (lock_handler ~lock_addr:lock.Memory.base)
    with
    | Ok id -> id
    | Error e ->
      Format.eprintf "rejected: %a@." Ash_vm.Verify.pp_error e;
      exit 1
  in
  Kernel.bind_vc server.Fabric.kernel ~vc (Kernel.Deliver_ash ash);
  Kernel.set_auto_repost server.Fabric.kernel ~vc true;
  Fabric.post_buffers server ~vc ~count:8 ~size:64;
  (* The server application is suspended: the whole point is that lock
     replies do not wait for it to be scheduled. *)
  Kernel.set_app_state server.Fabric.kernel Kernel.Suspended;

  Kernel.bind_vc client.Fabric.kernel ~vc Kernel.Deliver_user;
  Kernel.set_auto_repost client.Fabric.kernel ~vc true;
  Fabric.post_buffers client ~vc ~count:8 ~size:64;

  let acquire_times = ref [] in
  let t0 = ref 0 in
  let results = ref [] in
  let attempts = [ 101; 102; 103 ] in
  let pending = ref attempts in
  let send_next () =
    match !pending with
    | [] -> ()
    | owner :: rest ->
      pending := rest;
      t0 := Fabric.now tb;
      let msg = Bytes.create 4 in
      Bytesx.set_u32 msg 0 owner;
      Kernel.user_send client.Fabric.kernel ~vc msg
  in
  Kernel.set_user_handler client.Fabric.kernel ~vc (fun ~addr ~len:_ ->
      let cmem = Machine.mem (Kernel.machine client.Fabric.kernel) in
      let got = Memory.load32 cmem addr = 1 in
      results := got :: !results;
      acquire_times :=
        (float_of_int (Fabric.now tb - !t0) /. 1000.)
        :: !acquire_times;
      send_next ());
  send_next ();
  Fabric.run tb;

  List.iteri
    (fun i (granted, us) ->
       Format.printf "lock attempt %d: %s in %.1f us@." (i + 1)
         (if granted then "ACQUIRED" else "refused") us)
    (List.combine (List.rev !results) (List.rev !acquire_times));
  Format.printf "lock word is now held by owner %d@."
    (Memory.load32 mem lock.Memory.base);
  Format.printf
    "(the server application was suspended the whole time; a user-level \
     lock service would have paid a ~65 us wakeup per attempt)@."

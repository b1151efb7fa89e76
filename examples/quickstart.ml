(* Quickstart: write a handler, make it safe, download it, and watch it
   answer a message from inside the kernel.

   Run with:  dune exec examples/quickstart.exe *)

module Fabric = Ash_core.Fabric
module Kernel = Ash_kern.Kernel
module Builder = Ash_vm.Builder
module Isa = Ash_vm.Isa

let vc = 9

let () =
  (* 1. The paper's testbed: a server (host 0) and a client (host 1)
     DECstation, AN2 boards connected back to back, one event engine. *)
  let tb = Fabric.pair () in
  let server = Fabric.host tb 0 and client = Fabric.host tb 1 in

  (* 2. Write an ASH the way the paper's Fig. 2 does: portable assembly
     through the builder. This one echoes the incoming message. *)
  let b = Builder.create ~name:"my-first-ash" () in
  Builder.call b Isa.K_msg_len;
  Builder.emit b (Isa.Mov (Isa.reg_arg1, Isa.reg_arg0));
  Builder.emit b (Isa.Mov (Isa.reg_arg0, Isa.reg_msg_addr));
  Builder.call b Isa.K_send;
  Builder.commit b;
  let program = Builder.assemble b in
  Format.printf "Handler as written:@.%a@." Ash_vm.Program.pp program;

  (* 3. Download it: the kernel verifies it and sandboxes it. *)
  let ash =
    match Kernel.download_ash server.Fabric.kernel ~sandbox:true program with
    | Ok id -> id
    | Error e ->
      Format.eprintf "verifier rejected the handler: %a@."
        Ash_vm.Verify.pp_error e;
      exit 1
  in
  (match Kernel.ash_sandbox_stats server.Fabric.kernel ash with
   | Some s ->
     Format.printf "Sandboxer added %d instructions to %d.@.@."
       s.Ash_vm.Sandbox.added s.Ash_vm.Sandbox.original
   | None -> ());

  (* 4. Bind it to a virtual circuit and give the board receive
     buffers. *)
  Kernel.bind_vc server.Fabric.kernel ~vc (Kernel.Deliver_ash ash);
  Kernel.set_auto_repost server.Fabric.kernel ~vc true;
  Fabric.post_buffers server ~vc ~count:4 ~size:64;

  (* 5. The client is an ordinary user-level process: it sends a message
     and polls for the reply. *)
  Kernel.bind_vc client.Fabric.kernel ~vc Kernel.Deliver_user;
  Kernel.set_auto_repost client.Fabric.kernel ~vc true;
  Fabric.post_buffers client ~vc ~count:4 ~size:64;
  let t0 = ref 0 in
  Kernel.set_user_handler client.Fabric.kernel ~vc (fun ~addr:_ ~len ->
      Format.printf
        "Reply of %d bytes after %.1f us round trip — the server \
         application never ran.@."
        len
        (float_of_int (Fabric.now tb - !t0) /. 1000.));
  t0 := Fabric.now tb;
  Kernel.user_send client.Fabric.kernel ~vc (Bytes.of_string "hello, kernel!");

  (* 6. Run the simulation to completion. *)
  Fabric.run tb;
  let k = server.Fabric.kernel in
  Format.printf "Server: %d message(s) handled by the ASH, %d reached the \
                 application.@."
    (Kernel.stats k).Kernel.ash_committed
    (Ash_obs.Hop.frames_out (Kernel.an2_hops k).Kernel.notify)

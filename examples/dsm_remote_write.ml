(* The distributed-shared-memory remote write of §V-D, after Thekkath et
   al.: a generic protected write (segment + offset + bounds checks
   through a translation table) versus the application-specific protocol
   a system of trusted peers can use (raw pointer). Demonstrates the
   paper's claim that application-specific handlers beat generic kernel
   code even after paying for sandboxing.

   Run with:  dune exec examples/dsm_remote_write.exe *)

module Fabric = Ash_core.Fabric
module Kernel = Ash_kern.Kernel
module Memory = Ash_sim.Memory
module Machine = Ash_sim.Machine
module Handlers = Ash_core.Handlers
module Bytesx = Ash_util.Bytesx

let vc = 9

let run_variant ~label ~specific =
  let tb = Fabric.pair () in
  let server = Fabric.host tb 0 and client = Fabric.host tb 1 in
  let mem = Machine.mem (Kernel.machine server.Fabric.kernel) in

  (* The DSM segment this node exports, plus its translation table. *)
  let segment = Fabric.alloc server ~name:"dsm-segment" 8192 in
  let table = Fabric.alloc server ~name:"dsm-table" 16 in
  Memory.store32 mem
    (table.Memory.base + Handlers.seg_off_base)
    segment.Memory.base;
  Memory.store32 mem
    (table.Memory.base + Handlers.seg_off_limit)
    segment.Memory.len;

  let program =
    if specific then Handlers.remote_write_specific ()
    else
      Handlers.remote_write_generic ~table_addr:table.Memory.base ~entries:1 ()
  in
  let ash =
    match Kernel.download_ash server.Fabric.kernel ~sandbox:true program with
    | Ok id -> id
    | Error e ->
      Format.eprintf "rejected: %a@." Ash_vm.Verify.pp_error e;
      exit 1
  in
  Kernel.bind_vc server.Fabric.kernel ~vc (Kernel.Deliver_ash ash);
  Kernel.set_auto_repost server.Fabric.kernel ~vc true;
  Fabric.post_buffers server ~vc ~count:4 ~size:256;
  Kernel.set_app_state server.Fabric.kernel Kernel.Suspended;

  (* Build the write request: 40 bytes of data at offset 256. *)
  let dst_off = 256 and len = 40 in
  let data = Bytes.init len (fun i -> Char.chr ((i * 7) land 0xff)) in
  let msg =
    if specific then begin
      let hdr = Handlers.rw_spec_header in
      let b = Bytes.create (hdr + len) in
      Bytesx.set_u32 b Handlers.rw_spec_off_ptr (segment.Memory.base + dst_off);
      Bytesx.set_u32 b Handlers.rw_spec_off_size len;
      Bytes.blit data 0 b hdr len;
      b
    end
    else begin
      let hdr = Handlers.rw_header in
      let b = Bytes.create (hdr + len) in
      Bytesx.set_u32 b Handlers.rw_off_seg 0;
      Bytesx.set_u32 b Handlers.rw_off_offset dst_off;
      Bytesx.set_u32 b Handlers.rw_off_size len;
      Bytes.blit data 0 b hdr len;
      b
    end
  in
  let t0 = Fabric.now tb in
  Kernel.kernel_send client.Fabric.kernel ~vc msg;
  Fabric.run tb;
  let landed =
    Memory.read_string mem ~addr:(segment.Memory.base + dst_off) ~len
  in
  let r = Kernel.ash_last_result server.Fabric.kernel ash in
  (match r with
   | Some r ->
     Format.printf
       "%-9s write: data %s, one-way %.1f us, %d dynamic instructions \
        (%d from the sandboxer)@."
       label
       (if landed = Bytes.to_string data then "LANDED" else "CORRUPT")
       (float_of_int (Fabric.now tb - t0) /. 1000.)
       r.Ash_vm.Interp.insns r.Ash_vm.Interp.check_insns
   | None -> Format.printf "%s: handler never ran?@." label)

let () =
  run_variant ~label:"generic" ~specific:false;
  run_variant ~label:"specific" ~specific:true;
  Format.printf
    "@.The specific handler trusts its peers (the DSM's threads) and \
     skips the translation machinery; even sandboxed it runs fewer \
     instructions than the generic one does unsafe (§V-D).@."

(* Dynamic integrated layer processing (Figs. 1 and 2): compose
   independently written pipes — checksum, encryption, byteswap — at
   runtime, fuse them into one traversal, and compare against running
   the same layers as separate passes.

   Run with:  dune exec examples/dilp_pipeline.exe *)

module Machine = Ash_sim.Machine
module Memory = Ash_sim.Memory
module Costs = Ash_sim.Costs
module Time = Ash_sim.Time
module Pipe = Ash_pipes.Pipe
module Pipelib = Ash_pipes.Pipelib
module Dilp = Ash_pipes.Dilp
module Baseline = Ash_pipes.Baseline
module Checksum = Ash_util.Checksum

let len = 4096

let () =
  let m = Machine.create Costs.decstation in
  let mem = Machine.mem m in
  let src = Memory.alloc mem ~name:"src" len in
  let dst = Memory.alloc mem ~name:"dst" len in
  let payload = Bytes.create len in
  Ash_util.Rng.fill_bytes (Ash_util.Rng.create 2026) payload;
  Memory.blit_from_bytes mem ~src:payload ~src_off:0 ~dst:src.Memory.base ~len;

  (* Fig. 1, extended: compose three pipes at runtime. *)
  let pl = Pipe.Pipelist.create () in
  let _cksum_id, cksum_acc = Pipelib.cksum32 pl in
  let _xor_id, key_reg = Pipelib.xor_cipher pl in
  let _bswap_id = Pipelib.byteswap32 pl in
  let ilp = Dilp.compile pl Dilp.Write in
  Format.printf "Fused transfer engine (%d instructions):@.%a@."
    (Ash_vm.Program.length ilp.Dilp.program)
    Ash_vm.Program.pp ilp.Dilp.program;

  (* Run it: checksum computed, payload encrypted and byteswapped, all
     in a single pass over the message. *)
  Machine.flush_cache m;
  ignore (Machine.take_ns m);
  let regs =
    Dilp.execute_exn m ilp
      ~init:[ (cksum_acc, 0); (key_reg, 0xfeedface) ]
      ~src:src.Memory.base ~dst:dst.Memory.base ~len
  in
  let fused_ns = Machine.take_ns m in
  let sum = Checksum.fold32_to16 regs.(cksum_acc) in
  let reference =
    Checksum.fold16 (Checksum.ones_sum payload ~off:0 ~len)
  in
  Format.printf "checksum from the pipe: %04x (reference %04x) — %s@." sum
    reference
    (if sum = reference then "MATCH" else "MISMATCH");

  (* The same three layers as a conventional stack would run them. *)
  let scratch = Memory.alloc mem ~name:"scratch" len in
  Machine.flush_cache m;
  ignore (Machine.take_ns m);
  Baseline.copy m ~src:src.Memory.base ~dst:scratch.Memory.base ~len;
  ignore (Baseline.cksum16_pass m ~addr:scratch.Memory.base ~len);
  (* xor pass *)
  let i = ref 0 in
  while !i < len do
    let v = Machine.load32 m (scratch.Memory.base + !i) in
    Machine.charge_cycles m 1;
    Machine.store32 m (scratch.Memory.base + !i) (v lxor 0xfeedface);
    i := !i + 4
  done;
  Baseline.byteswap_pass m ~addr:scratch.Memory.base ~len;
  let separate_ns = Machine.take_ns m in

  Format.printf "@.fused (DILP):    %6.1f us  (%.1f MB/s)@."
    (Time.us_of_ns fused_ns)
    (Time.mbytes_per_sec ~bytes:len fused_ns);
  Format.printf "separate passes: %6.1f us  (%.1f MB/s)@."
    (Time.us_of_ns separate_ns)
    (Time.mbytes_per_sec ~bytes:len separate_ns);
  Format.printf "integration wins by %.2fx on this 3-layer stack@."
    (float_of_int separate_ns /. float_of_int fused_ns);

  (* Show the output really is swap(xor(data)). *)
  let out = Memory.read_string mem ~addr:dst.Memory.base ~len:8 in
  let expect w = Ash_util.Bytesx.bswap32 (w lxor 0xfeedface) in
  let w0 = Ash_util.Bytesx.get_u32 payload 0 in
  Format.printf "first output word %08x, expected %08x — %s@."
    (Ash_util.Bytesx.get_u32 (Bytes.of_string out) 0)
    (expect w0)
    (if Ash_util.Bytesx.get_u32 (Bytes.of_string out) 0 = expect w0 then
       "MATCH"
     else "MISMATCH")

(* Tests for Ash_pipes: pipe composition, gauge conversion, DILP fusion
   correctness against reference implementations, persistent-register
   import/export, and the Table-IV throughput calibration. *)

module Pipe = Ash_pipes.Pipe
module Pipelib = Ash_pipes.Pipelib
module Dilp = Ash_pipes.Dilp
module Baseline = Ash_pipes.Baseline
module Machine = Ash_sim.Machine
module Memory = Ash_sim.Memory
module Costs = Ash_sim.Costs
module Time = Ash_sim.Time
module Checksum = Ash_util.Checksum
module Bytesx = Ash_util.Bytesx
module Rng = Ash_util.Rng
module Isa = Ash_vm.Isa

let mk_machine () = Machine.create Costs.decstation

type bufs = {
  m : Machine.t;
  src : int;
  dst : int;
  len : int;
}

let setup ?(len = 4096) ?(seed = 42) () =
  let m = mk_machine () in
  let mem = Machine.mem m in
  let src = (Memory.alloc mem ~name:"src" len).Memory.base in
  let dst = (Memory.alloc mem ~name:"dst" len).Memory.base in
  let payload = Bytes.create len in
  Rng.fill_bytes (Rng.create seed) payload;
  Memory.blit_from_bytes mem ~src:payload ~src_off:0 ~dst:src ~len;
  { m; src; dst; len }

let read b addr len = Memory.read_string (Machine.mem b.m) ~addr ~len

(* ------------------------------------------------------------------ *)
(* Single-pipe correctness                                              *)
(* ------------------------------------------------------------------ *)

let test_identity_pipe_copies () =
  let b = setup ~len:256 () in
  let pl = Pipe.Pipelist.create () in
  ignore (Pipelib.identity pl);
  let c = Dilp.compile pl Dilp.Write in
  ignore (Dilp.execute_exn b.m c ~src:b.src ~dst:b.dst ~len:b.len);
  Alcotest.(check string) "copied" (read b b.src b.len) (read b b.dst b.len)

let test_cksum32_pipe_matches_reference () =
  let b = setup ~len:1024 () in
  let pl = Pipe.Pipelist.create () in
  let _id, acc = Pipelib.cksum32 pl in
  let c = Dilp.compile pl Dilp.Write in
  let regs =
    Dilp.execute_exn b.m c ~init:[ (acc, 0) ] ~src:b.src ~dst:b.dst ~len:b.len
  in
  let expected =
    Checksum.fold16
      (Checksum.ones_sum
         (Bytes.of_string (read b b.src b.len))
         ~off:0 ~len:b.len)
  in
  Alcotest.(check int) "pipe checksum = reference" expected
    (Checksum.fold32_to16 regs.(acc));
  Alcotest.(check string) "no-mod pipe copies intact" (read b b.src b.len)
    (read b b.dst b.len)

let test_cksum16_pipe_matches_reference () =
  (* The 16-bit-gauge pipe exercises the split/aggregate conversion. *)
  let b = setup ~len:512 ~seed:7 () in
  let pl = Pipe.Pipelist.create () in
  let _id, acc = Pipelib.cksum16 pl in
  let c = Dilp.compile pl Dilp.Write in
  let regs =
    Dilp.execute_exn b.m c ~init:[ (acc, 0) ] ~src:b.src ~dst:b.dst ~len:b.len
  in
  let expected =
    Checksum.fold16
      (Checksum.ones_sum
         (Bytes.of_string (read b b.src b.len))
         ~off:0 ~len:b.len)
  in
  Alcotest.(check int) "16-bit gauge checksum" expected
    (Checksum.fold16 regs.(acc))

let test_byteswap_pipe () =
  let b = setup ~len:64 () in
  let pl = Pipe.Pipelist.create () in
  ignore (Pipelib.byteswap32 pl);
  let c = Dilp.compile pl Dilp.Write in
  ignore (Dilp.execute_exn b.m c ~src:b.src ~dst:b.dst ~len:b.len);
  let mem = Machine.mem b.m in
  for w = 0 to (b.len / 4) - 1 do
    Alcotest.(check int)
      (Printf.sprintf "word %d swapped" w)
      (Bytesx.bswap32 (Memory.load32 mem (b.src + (4 * w))))
      (Memory.load32 mem (b.dst + (4 * w)))
  done

let test_byteswap16_pipe () =
  let b = setup ~len:32 () in
  let pl = Pipe.Pipelist.create () in
  ignore (Pipelib.byteswap16 pl);
  let c = Dilp.compile pl Dilp.Write in
  ignore (Dilp.execute_exn b.m c ~src:b.src ~dst:b.dst ~len:b.len);
  let mem = Machine.mem b.m in
  for h = 0 to (b.len / 2) - 1 do
    Alcotest.(check int)
      (Printf.sprintf "half %d swapped" h)
      (Bytesx.bswap16 (Memory.load16 mem (b.src + (2 * h))))
      (Memory.load16 mem (b.dst + (2 * h)))
  done

let test_xor_cipher_roundtrip () =
  let b = setup ~len:128 () in
  let mem = Machine.mem b.m in
  let dst2 = (Memory.alloc mem ~name:"dst2" b.len).Memory.base in
  let pl = Pipe.Pipelist.create () in
  let _id, key = Pipelib.xor_cipher pl in
  let c = Dilp.compile pl Dilp.Write in
  ignore
    (Dilp.execute_exn b.m c ~init:[ (key, 0xdeadbeef) ] ~src:b.src ~dst:b.dst
       ~len:b.len);
  Alcotest.(check bool) "ciphertext differs" true
    (read b b.src b.len <> read b b.dst b.len);
  ignore
    (Dilp.execute_exn b.m c ~init:[ (key, 0xdeadbeef) ] ~src:b.dst ~dst:dst2
       ~len:b.len);
  Alcotest.(check string) "decrypts back" (read b b.src b.len)
    (read b dst2 b.len)

let test_add_const8_gauge () =
  let b = setup ~len:16 () in
  let pl = Pipe.Pipelist.create () in
  ignore (Pipelib.add_const8 pl 1);
  let c = Dilp.compile pl Dilp.Write in
  ignore (Dilp.execute_exn b.m c ~src:b.src ~dst:b.dst ~len:b.len);
  let s = read b b.src b.len and d = read b b.dst b.len in
  String.iteri
    (fun i ch ->
       Alcotest.(check int)
         (Printf.sprintf "byte %d incremented" i)
         ((Char.code ch + 1) land 0xff)
         (Char.code d.[i]))
    s

let test_word_count_pipe () =
  let b = setup ~len:400 () in
  let pl = Pipe.Pipelist.create () in
  let _id, counter = Pipelib.word_count pl in
  let c = Dilp.compile pl Dilp.Write in
  let regs =
    Dilp.execute_exn b.m c ~init:[ (counter, 0) ] ~src:b.src ~dst:b.dst
      ~len:b.len
  in
  Alcotest.(check int) "each word traversed exactly once" 100 regs.(counter)

(* ------------------------------------------------------------------ *)
(* Composition                                                          *)
(* ------------------------------------------------------------------ *)

let test_fig1_composition () =
  (* The paper's Fig. 1: checksum + byteswap composed dynamically. The
     checksum sees pre-swap data (it is first in the pipe list); the
     destination receives swapped data. *)
  let b = setup ~len:2048 () in
  let pl = Pipe.Pipelist.create () in
  let _cid, acc = Pipelib.cksum32 pl in
  ignore (Pipelib.byteswap32 pl);
  let c = Dilp.compile pl Dilp.Write in
  let regs =
    Dilp.execute_exn b.m c ~init:[ (acc, 0) ] ~src:b.src ~dst:b.dst ~len:b.len
  in
  let src_bytes = Bytes.of_string (read b b.src b.len) in
  let expected_sum =
    Checksum.fold16 (Checksum.ones_sum src_bytes ~off:0 ~len:b.len)
  in
  Alcotest.(check int) "checksum over pre-swap data" expected_sum
    (Checksum.fold32_to16 regs.(acc));
  let mem = Machine.mem b.m in
  Alcotest.(check int) "first word swapped"
    (Bytesx.bswap32 (Memory.load32 mem b.src))
    (Memory.load32 mem b.dst)

let test_three_pipe_composition () =
  (* cksum + xor + byteswap in one traversal; validate both the checksum
     and the final transformation against a reference computation. *)
  let b = setup ~len:512 ~seed:3 () in
  let pl = Pipe.Pipelist.create () in
  let _cid, acc = Pipelib.cksum32 pl in
  let _xid, key = Pipelib.xor_cipher pl in
  ignore (Pipelib.byteswap32 pl);
  let c = Dilp.compile pl Dilp.Write in
  let regs =
    Dilp.execute_exn b.m c
      ~init:[ (acc, 0); (key, 0x01020304) ]
      ~src:b.src ~dst:b.dst ~len:b.len
  in
  let mem = Machine.mem b.m in
  let expected_word w =
    Bytesx.bswap32 (Memory.load32 mem (b.src + (4 * w)) lxor 0x01020304)
  in
  for w = 0 to (b.len / 4) - 1 do
    Alcotest.(check int)
      (Printf.sprintf "word %d" w)
      (expected_word w)
      (Memory.load32 mem (b.dst + (4 * w)))
  done;
  let expected_sum =
    Checksum.fold16
      (Checksum.ones_sum (Bytes.of_string (read b b.src b.len)) ~off:0
         ~len:b.len)
  in
  Alcotest.(check int) "checksum before transforms" expected_sum
    (Checksum.fold32_to16 regs.(acc))

let test_sink_mode_leaves_dst_untouched () =
  let b = setup ~len:256 () in
  let pl = Pipe.Pipelist.create () in
  let _id, acc = Pipelib.cksum32 pl in
  let c = Dilp.compile pl Dilp.Sink in
  let regs =
    Dilp.execute_exn b.m c ~init:[ (acc, 0) ] ~src:b.src ~dst:b.dst ~len:b.len
  in
  Alcotest.(check string) "dst untouched" (String.make b.len '\000')
    (read b b.dst b.len);
  let expected =
    Checksum.fold16
      (Checksum.ones_sum (Bytes.of_string (read b b.src b.len)) ~off:0
         ~len:b.len)
  in
  Alcotest.(check int) "checksum still computed" expected
    (Checksum.fold32_to16 regs.(acc))

let test_short_lengths () =
  (* Lengths smaller than the unroll factor must still work. *)
  List.iter
    (fun len ->
       let b = setup ~len:(max len 4) () in
       let pl = Pipe.Pipelist.create () in
       ignore (Pipelib.identity pl);
       let c = Dilp.compile pl Dilp.Write in
       ignore (Dilp.execute_exn b.m c ~src:b.src ~dst:b.dst ~len);
       Alcotest.(check string)
         (Printf.sprintf "len %d" len)
         (read b b.src len) (read b b.dst len))
    [ 4; 8; 12; 16; 20 ]

let test_zero_length () =
  let b = setup ~len:16 () in
  let pl = Pipe.Pipelist.create () in
  ignore (Pipelib.identity pl);
  let c = Dilp.compile pl Dilp.Write in
  ignore (Dilp.execute_exn b.m c ~src:b.src ~dst:b.dst ~len:0);
  Alcotest.(check string) "dst untouched" (String.make 16 '\000')
    (read b b.dst 16)

let test_unaligned_length_rejected () =
  let b = setup ~len:16 () in
  let pl = Pipe.Pipelist.create () in
  ignore (Pipelib.identity pl);
  let c = Dilp.compile pl Dilp.Write in
  Alcotest.check_raises "unaligned"
    (Invalid_argument "Dilp.execute: length must be a non-negative multiple of 4")
    (fun () -> ignore (Dilp.execute b.m c ~src:b.src ~dst:b.dst ~len:10))

(* TCP's list, cksum32 alone, takes the word kernel in both modes and
   no other library pipe does: a kernel lost or gained would otherwise
   show only in host time. Striped loops keep the VM, and so do bodies
   that load, move the loop's registers or divide, and a lone cksum32
   into a register the kernel may not take: r4, the loop's end, and r28
   and r29, which enter holding the caller's unmasked source and
   length. Into r6, just past the loop's registers, it takes the
   kernel. *)
let test_run_granular_bodies () =
  let native ?layout mode add =
    let pl = Pipe.Pipelist.create () in
    add pl;
    Option.is_some (Dilp.compile ?layout pl mode).Dilp.native
  in
  List.iter
    (fun (name, kernel, add) ->
       List.iter
         (fun (m, mode) ->
            Alcotest.(check bool) (name ^ " " ^ m) kernel (native mode add))
         [ ("write", Dilp.Write); ("sink", Dilp.Sink) ])
    [ ("cksum32", true, fun pl -> ignore (Pipelib.cksum32 pl));
      ("cksum16", false, fun pl -> ignore (Pipelib.cksum16 pl));
      ("byteswap32", false, fun pl -> ignore (Pipelib.byteswap32 pl));
      ("byteswap16", false, fun pl -> ignore (Pipelib.byteswap16 pl));
      ("xor_cipher", false, fun pl -> ignore (Pipelib.xor_cipher pl));
      ("word_count", false, fun pl -> ignore (Pipelib.word_count pl));
      ("identity", false, fun pl -> ignore (Pipelib.identity pl));
      ("add_const8", false, fun pl -> ignore (Pipelib.add_const8 pl 3)) ];
  Alcotest.(check bool) "striped keeps the VM" false
    (native ~layout:Dilp.eth_striped Dilp.Write (fun pl ->
         ignore (Pipelib.cksum32 pl)));
  let hand_made name kernel body =
    let add pl =
      ignore (Pipe.Pipelist.add pl (Pipe.make ~name ~gauge:Pipe.G32 body))
    in
    Alcotest.(check bool) name kernel (native Dilp.Write add)
  in
  hand_made "a load" false (fun c ->
      c.Pipe.emit (Isa.Ld32 (c.Pipe.temp (), 1, 0)));
  hand_made "a write to r2" false (fun c -> c.Pipe.emit (Isa.Addi (2, 2, 4)));
  hand_made "a divide" false (fun c ->
      c.Pipe.emit (Isa.Divu (c.Pipe.data, c.Pipe.data, 3)));
  List.iter
    (fun (acc, kernel) ->
       hand_made
         (Printf.sprintf "a cksum32 into r%d" acc)
         kernel
         (fun c -> c.Pipe.emit (Isa.Cksum32 (acc, c.Pipe.data))))
    [ (4, false); (28, false); (29, false); (6, true) ]

let test_persistent_register_exhaustion () =
  let pl = Pipe.Pipelist.create () in
  match
    for _ = 1 to 13 do
      ignore (Pipe.Pipelist.getreg pl)
    done
  with
  | () -> Alcotest.fail "expected exhaustion"
  | exception Failure _ -> ()

(* ------------------------------------------------------------------ *)
(* Striped layout (the Ethernet DILP back end, sec III-C)               *)
(* ------------------------------------------------------------------ *)

(* Build a striped source region: [data] payload bytes then [pad] junk
   bytes, repeating, for [len] payload bytes total. *)
let make_striped m ~data ~pad ~len ~seed =
  let mem = Machine.mem m in
  let stripes = (len + data - 1) / data in
  let region = Memory.alloc mem ~name:"striped-src" (stripes * (data + pad)) in
  let payload = Bytes.create len in
  Rng.fill_bytes (Rng.create seed) payload;
  let junk = Rng.create (seed + 1) in
  for s = 0 to stripes - 1 do
    let chunk = min data (len - (s * data)) in
    Memory.blit_from_bytes mem ~src:payload ~src_off:(s * data)
      ~dst:(region.Memory.base + (s * (data + pad)))
      ~len:chunk;
    (* Fill the pad with junk so a wrong loop would visibly corrupt. *)
    for i = 0 to pad - 1 do
      Memory.store8 mem (region.Memory.base + (s * (data + pad)) + data + i)
        (Rng.int junk 256)
    done
  done;
  (region.Memory.base, payload)

let test_striped_copy_skips_padding () =
  let m = mk_machine () in
  let mem = Machine.mem m in
  let len = 200 in
  let src, payload = make_striped m ~data:16 ~pad:16 ~len ~seed:21 in
  let dst = (Memory.alloc mem ~name:"dst" len).Memory.base in
  let pl = Pipe.Pipelist.create () in
  ignore (Pipelib.identity pl);
  let c = Dilp.compile ~layout:Dilp.eth_striped pl Dilp.Write in
  ignore (Dilp.execute_exn m c ~src ~dst ~len);
  Alcotest.(check string) "payload gathered around the padding"
    (Bytes.to_string payload)
    (Memory.read_string mem ~addr:dst ~len)

let test_striped_cksum_matches_contiguous () =
  let m = mk_machine () in
  let mem = Machine.mem m in
  let len = 1024 in
  let src, payload = make_striped m ~data:16 ~pad:16 ~len ~seed:22 in
  let dst = (Memory.alloc mem ~name:"dst" len).Memory.base in
  let pl = Pipe.Pipelist.create () in
  let _, acc = Pipelib.cksum32 pl in
  let c = Dilp.compile ~layout:Dilp.eth_striped pl Dilp.Write in
  let regs = Dilp.execute_exn m c ~init:[ (acc, 0) ] ~src ~dst ~len in
  let expected =
    Checksum.fold16 (Checksum.ones_sum payload ~off:0 ~len)
  in
  Alcotest.(check int) "checksum over payload only" expected
    (Checksum.fold32_to16 regs.(acc))

let test_striped_partial_tail () =
  (* A packet whose last stripe is short (len % 16 <> 0). *)
  let m = mk_machine () in
  let mem = Machine.mem m in
  let len = 44 in
  let src, payload = make_striped m ~data:16 ~pad:16 ~len ~seed:23 in
  let dst = (Memory.alloc mem ~name:"dst" 64).Memory.base in
  let pl = Pipe.Pipelist.create () in
  ignore (Pipelib.identity pl);
  let c = Dilp.compile ~layout:Dilp.eth_striped pl Dilp.Write in
  ignore (Dilp.execute_exn m c ~src ~dst ~len);
  Alcotest.(check string) "short tail stripe handled"
    (Bytes.to_string payload)
    (Memory.read_string mem ~addr:dst ~len)

let test_striped_single_pass_beats_destripe_then_dilp () =
  (* The point of interface-specific back ends: one striped pass beats
     destripe-copy followed by a contiguous pass. *)
  let len = 1440 in
  let one_pass =
    let m = mk_machine () in
    let mem = Machine.mem m in
    let src, _ = make_striped m ~data:16 ~pad:16 ~len ~seed:24 in
    let dst = (Memory.alloc mem ~name:"dst" len).Memory.base in
    let pl = Pipe.Pipelist.create () in
    let _, acc = Pipelib.cksum32 pl in
    let c = Dilp.compile ~layout:Dilp.eth_striped pl Dilp.Write in
    Machine.flush_cache m;
    ignore (Machine.take_ns m);
    ignore (Dilp.execute_exn m c ~init:[ (acc, 0) ] ~src ~dst ~len);
    Machine.take_ns m
  in
  let two_pass =
    let m = mk_machine () in
    let mem = Machine.mem m in
    let src, _ = make_striped m ~data:16 ~pad:16 ~len ~seed:24 in
    let mid = (Memory.alloc mem ~name:"mid" len).Memory.base in
    let dst = (Memory.alloc mem ~name:"dst" len).Memory.base in
    let pl = Pipe.Pipelist.create () in
    let _, acc = Pipelib.cksum32 pl in
    let c = Dilp.compile pl Dilp.Write in
    Machine.flush_cache m;
    ignore (Machine.take_ns m);
    (* destripe with the trusted copy engine, 16 bytes at a time *)
    Machine.destripe m ~src ~dst:mid ~len ~stripe:16;
    ignore (Dilp.execute_exn m c ~init:[ (acc, 0) ] ~src:mid ~dst ~len);
    Machine.take_ns m
  in
  Alcotest.(check bool)
    (Printf.sprintf "one pass (%d ns) < two passes (%d ns)" one_pass two_pass)
    true (one_pass < two_pass)

let test_striped_bad_geometry_rejected () =
  let pl = Pipe.Pipelist.create () in
  ignore (Pipelib.identity pl);
  Alcotest.check_raises "unaligned data"
    (Invalid_argument "Dilp.compile: bad stripe geometry") (fun () ->
      ignore (Dilp.compile ~layout:(Dilp.Striped { data = 10; pad = 6 }) pl
                Dilp.Write));
  Alcotest.check_raises "non-power-of-two"
    (Invalid_argument "Dilp.compile: stripe data size must be a power of two")
    (fun () ->
       ignore (Dilp.compile ~layout:(Dilp.Striped { data = 12; pad = 4 }) pl
                 Dilp.Write))

(* ------------------------------------------------------------------ *)
(* Table IV calibration                                                 *)
(* ------------------------------------------------------------------ *)

(* Strategies over 4096 bytes, starting cold, mirroring §V-A2. Each
   returns MB/s of the whole manipulation. *)

let time_ns b f =
  Machine.flush_cache b.m;
  ignore (Machine.take_ns b.m);
  f ();
  Machine.take_ns b.m

let separate_copy_cksum b ~uncached =
  time_ns b (fun () ->
      Baseline.copy b.m ~src:b.src ~dst:b.dst ~len:b.len;
      if uncached then Machine.flush_cache b.m;
      ignore (Baseline.cksum16_pass b.m ~addr:b.src ~len:b.len))

let separate_copy_cksum_bswap b ~uncached =
  time_ns b (fun () ->
      Baseline.copy b.m ~src:b.src ~dst:b.dst ~len:b.len;
      if uncached then Machine.flush_cache b.m;
      ignore (Baseline.cksum16_pass b.m ~addr:b.src ~len:b.len);
      if uncached then Machine.flush_cache b.m;
      Baseline.byteswap_pass b.m ~addr:b.dst ~len:b.len)

let c_integrated_cksum b =
  time_ns b (fun () ->
      ignore (Baseline.integrated_copy_cksum b.m ~src:b.src ~dst:b.dst ~len:b.len))

let c_integrated_cksum_bswap b =
  time_ns b (fun () ->
      ignore
        (Baseline.integrated_copy_cksum_bswap b.m ~src:b.src ~dst:b.dst
           ~len:b.len))

let dilp_cksum =
  lazy
    (let pl = Pipe.Pipelist.create () in
     let _, acc = Pipelib.cksum32 pl in
     (Dilp.compile pl Dilp.Write, acc))

let dilp_cksum_bswap =
  lazy
    (let pl = Pipe.Pipelist.create () in
     let _, acc = Pipelib.cksum32 pl in
     ignore (Pipelib.byteswap32 pl);
     (Dilp.compile pl Dilp.Write, acc))

let dilp_run b compiled acc =
  time_ns b (fun () ->
      ignore
        (Dilp.execute_exn b.m compiled ~init:[ (acc, 0) ] ~src:b.src ~dst:b.dst
           ~len:b.len))

let mbps b ns = Time.mbytes_per_sec ~bytes:b.len ns

let test_table4_calibration () =
  let b = setup () in
  let close paper v = abs_float (v -. paper) /. paper < 0.25 in
  let check name paper v =
    Alcotest.(check bool)
      (Printf.sprintf "%s ~%.1f (got %.1f)" name paper v)
      true (close paper v)
  in
  (* copy & checksum column *)
  let sep = mbps b (separate_copy_cksum b ~uncached:false) in
  let sep_u = mbps b (separate_copy_cksum b ~uncached:true) in
  let ci = mbps b (c_integrated_cksum b) in
  let cksum, acc = Lazy.force dilp_cksum in
  let di = mbps b (dilp_run b cksum acc) in
  check "separate" 11. sep;
  check "separate/uncached" 10. sep_u;
  check "C integrated" 16. ci;
  check "DILP" 17. di;
  Alcotest.(check bool) "integration wins" true (ci > sep && di > sep);
  Alcotest.(check bool) "DILP close to hand C" true
    (abs_float (di -. ci) /. ci < 0.15);
  (* copy & checksum & byteswap column *)
  let sep3 = mbps b (separate_copy_cksum_bswap b ~uncached:false) in
  let sep3_u = mbps b (separate_copy_cksum_bswap b ~uncached:true) in
  let ci3 = mbps b (c_integrated_cksum_bswap b) in
  let cb, acc3 = Lazy.force dilp_cksum_bswap in
  let di3 = mbps b (dilp_run b cb acc3) in
  check "separate +bswap" 5.8 sep3;
  check "separate/uncached +bswap" 5.1 sep3_u;
  check "C integrated +bswap" 8.3 ci3;
  check "DILP +bswap" 8.2 di3

let test_dilp_within_gas_budget () =
  (* A 4096-byte checksum+byteswap transfer must fit the default ASH gas
     budget (§III-B3 sizes the budget for exactly this). *)
  let b = setup () in
  let c, acc = Lazy.force dilp_cksum_bswap in
  let r = Dilp.execute b.m c ~init:[ (acc, 0) ] ~src:b.src ~dst:b.dst ~len:b.len in
  (match r.Ash_vm.Interp.outcome with
   | Ash_vm.Interp.Returned -> ()
   | _ -> Alcotest.fail "killed");
  Alcotest.(check bool) "well under budget" true
    (r.Ash_vm.Interp.cycles < Ash_vm.Interp.default_gas)

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)
(* ------------------------------------------------------------------ *)

let word_aligned_payload =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "%d bytes" (String.length s))
    QCheck.Gen.(
      int_range 1 64 >>= fun words ->
      string_size ~gen:char (return (words * 4)))

let prop_dilp_cksum_equals_reference =
  QCheck.Test.make ~name:"DILP checksum equals reference on random payloads"
    ~count:60 word_aligned_payload
    (fun payload ->
       let len = String.length payload in
       let m = mk_machine () in
       let mem = Machine.mem m in
       let src = (Memory.alloc mem len).Memory.base in
       let dst = (Memory.alloc mem len).Memory.base in
       Memory.blit_from_bytes mem ~src:(Bytes.of_string payload) ~src_off:0
         ~dst:src ~len;
       let c, acc = Lazy.force dilp_cksum in
       let regs = Dilp.execute_exn m c ~init:[ (acc, 0) ] ~src ~dst ~len in
       Checksum.fold32_to16 regs.(acc)
       = Checksum.fold16
           (Checksum.ones_sum (Bytes.of_string payload) ~off:0 ~len))

let prop_pipe_order_of_nomod_commutative_irrelevant =
  (* Two no-mod commutative pipes (checksum, word count) may be composed
     in either order with identical results — the property that justifies
     the P_COMMUTATIVE attribute. *)
  QCheck.Test.make ~name:"no-mod commutative pipes compose in any order"
    ~count:40 word_aligned_payload
    (fun payload ->
       let len = String.length payload in
       let run order_cksum_first =
         let m = mk_machine () in
         let mem = Machine.mem m in
         let src = (Memory.alloc mem len).Memory.base in
         let dst = (Memory.alloc mem len).Memory.base in
         Memory.blit_from_bytes mem ~src:(Bytes.of_string payload) ~src_off:0
           ~dst:src ~len;
         let pl = Pipe.Pipelist.create () in
         if order_cksum_first then begin
           let _, acc = Pipelib.cksum32 pl in
           let _, cnt = Pipelib.word_count pl in
           let c = Dilp.compile pl Dilp.Write in
           let regs =
             Dilp.execute_exn m c ~init:[ (acc, 0); (cnt, 0) ] ~src ~dst ~len
           in
           (regs.(acc), regs.(cnt))
         end
         else begin
           let _, cnt = Pipelib.word_count pl in
           let _, acc = Pipelib.cksum32 pl in
           let c = Dilp.compile pl Dilp.Write in
           let regs =
             Dilp.execute_exn m c ~init:[ (acc, 0); (cnt, 0) ] ~src ~dst ~len
           in
           (regs.(acc), regs.(cnt))
         end
       in
       run true = run false)

let prop_xor_involution =
  QCheck.Test.make ~name:"xor pipe applied twice is identity" ~count:40
    (QCheck.pair word_aligned_payload (QCheck.int_bound 0xffffff))
    (fun (payload, key) ->
       let len = String.length payload in
       let m = mk_machine () in
       let mem = Machine.mem m in
       let src = (Memory.alloc mem len).Memory.base in
       let mid = (Memory.alloc mem len).Memory.base in
       let dst = (Memory.alloc mem len).Memory.base in
       Memory.blit_from_bytes mem ~src:(Bytes.of_string payload) ~src_off:0
         ~dst:src ~len;
       let pl = Pipe.Pipelist.create () in
       let _, kreg = Pipelib.xor_cipher pl in
       let c = Dilp.compile pl Dilp.Write in
       ignore (Dilp.execute_exn m c ~init:[ (kreg, key) ] ~src ~dst:mid ~len);
       ignore (Dilp.execute_exn m c ~init:[ (kreg, key) ] ~src:mid ~dst ~len);
       Memory.read_string mem ~addr:dst ~len = payload)

(* Differential property: a random stack of pipes, fused by the DILP
   compiler and executed on the VM, must agree with a direct OCaml
   reference model of the same stack — both the transformed output
   buffer and every persistent accumulator. *)

type ref_pipe =
  | R_cksum32
  | R_cksum16
  | R_bswap32
  | R_bswap16
  | R_xor of int
  | R_count
  | R_add8 of int

let ref_apply_word pipes ~word ~accs =
  (* accs: one cell per accumulator-bearing pipe, in stack order. *)
  let w = ref word in
  let acc_idx = ref 0 in
  List.iter
    (fun p ->
       match p with
       | R_cksum32 ->
         let i = !acc_idx in
         incr acc_idx;
         let s = accs.(i) + !w in
         accs.(i) <- (if s > 0xffff_ffff then (s land 0xffff_ffff) + 1 else s)
       | R_cksum16 ->
         let i = !acc_idx in
         incr acc_idx;
         let add16 v =
           let s = accs.(i) + v in
           accs.(i) <- (s land 0xffff) + (s lsr 16)
         in
         add16 (!w lsr 16);
         add16 (!w land 0xffff)
       | R_bswap32 -> w := Bytesx.bswap32 !w
       | R_bswap16 ->
         let hi = Bytesx.bswap16 (!w lsr 16) in
         let lo = Bytesx.bswap16 (!w land 0xffff) in
         w := (hi lsl 16) lor lo
       | R_xor k -> w := !w lxor k
       | R_count ->
         let i = !acc_idx in
         incr acc_idx;
         accs.(i) <- accs.(i) + 1
       | R_add8 k ->
         let bytes =
           [ (!w lsr 24) land 0xff; (!w lsr 16) land 0xff;
             (!w lsr 8) land 0xff; !w land 0xff ]
         in
         let bytes = List.map (fun b -> (b + k) land 0xff) bytes in
         (match bytes with
          | [ b0; b1; b2; b3 ] ->
            w := (b0 lsl 24) lor (b1 lsl 16) lor (b2 lsl 8) lor b3
          | _ -> assert false))
    pipes;
  !w

let build_stack pl pipes =
  (* Returns the accumulator registers in stack order. *)
  List.filter_map
    (fun p ->
       match p with
       | R_cksum32 -> Some (snd (Pipelib.cksum32 pl))
       | R_cksum16 -> Some (snd (Pipelib.cksum16 pl))
       | R_bswap32 ->
         ignore (Pipelib.byteswap32 pl);
         None
       | R_bswap16 ->
         ignore (Pipelib.byteswap16 pl);
         None
       | R_xor _ ->
         (* The key is seeded into the register at execution time. *)
         Some (snd (Pipelib.xor_cipher pl))
       | R_count -> Some (snd (Pipelib.word_count pl))
       | R_add8 k ->
         ignore (Pipelib.add_const8 pl k);
         None)
    pipes

let gen_ref_pipe =
  QCheck.Gen.(
    int_range 0 6 >>= fun tag ->
    int_bound 0xffffff >>= fun k ->
    return
      (match tag with
       | 0 -> R_cksum32
       | 1 -> R_cksum16
       | 2 -> R_bswap32
       | 3 -> R_bswap16
       | 4 -> R_xor k
       | 5 -> R_count
       | _ -> R_add8 (k land 0xff)))

let prop_random_stack_matches_reference =
  QCheck.Test.make
    ~name:"random pipe stacks agree with the host reference model" ~count:60
    QCheck.(
      make
        ~print:(fun (ps, s) ->
          Printf.sprintf "%d pipes over %d bytes" (List.length ps)
            (String.length s))
        Gen.(
          pair
            (list_size (int_range 1 3) gen_ref_pipe)
            (int_range 1 40 >>= fun w -> string_size (return (w * 4)))))
    (fun (pipes, payload) ->
       (* The register allocator supports at most ~3 accumulator pipes
          and the scratch pool bounds gauge conversions; the generator
          respects that by limiting the stack depth. *)
       let len = String.length payload in
       let m = mk_machine () in
       let mem = Machine.mem m in
       let src = (Memory.alloc mem len).Memory.base in
       let dst = (Memory.alloc mem len).Memory.base in
       Memory.blit_from_bytes mem ~src:(Bytes.of_string payload) ~src_off:0
         ~dst:src ~len;
       let pl = Pipe.Pipelist.create () in
       let acc_regs = build_stack pl pipes in
       let compiled = Dilp.compile pl Dilp.Write in
       (* Seed: checksum/count accumulators start 0; xor keys get their
          constant. Walk the stack in order to pair registers. *)
       let init =
         let regs = ref acc_regs in
         List.filter_map
           (fun p ->
              match p with
              | R_cksum32 | R_cksum16 | R_count -> (
                  match !regs with
                  | r :: rest ->
                    regs := rest;
                    Some (r, 0)
                  | [] -> None)
              | R_xor k -> (
                  match !regs with
                  | r :: rest ->
                    regs := rest;
                    Some (r, k)
                  | [] -> None)
              | R_bswap32 | R_bswap16 | R_add8 _ -> None)
           pipes
       in
       let final = Dilp.execute_exn m compiled ~init ~src ~dst ~len in
       (* Reference. *)
       let words = len / 4 in
       let n_accs =
         List.length
           (List.filter
              (function
                | R_cksum32 | R_cksum16 | R_count | R_xor _ -> true
                | _ -> false)
              pipes)
       in
       ignore n_accs;
       let ref_accs =
         Array.of_list
           (List.filter_map
              (function
                | R_cksum32 | R_cksum16 | R_count -> Some 0
                | R_xor _ -> None
                | _ -> None)
              pipes)
       in
       (* xor keys are constants in the reference model, not accs. *)
       let acc_pipes =
         List.filter
           (function R_cksum32 | R_cksum16 | R_count -> true | _ -> false)
           pipes
       in
       let out_ok = ref true in
       for w = 0 to words - 1 do
         let word = Ash_util.Bytesx.get_u32 (Bytes.of_string payload) (w * 4) in
         let expected = ref_apply_word pipes ~word ~accs:ref_accs in
         if Memory.load32 mem (dst + (w * 4)) <> expected then out_ok := false
       done;
       (* Compare accumulators for the accumulator-bearing pipes, in
          order (xor registers hold the unchanged key, skipped). *)
       let acc_ok = ref true in
       let regs = ref acc_regs in
       let ref_i = ref 0 in
       List.iter
         (fun p ->
            match p with
            | R_cksum32 | R_cksum16 | R_count -> (
                match !regs with
                | r :: rest ->
                  regs := rest;
                  let got = final.(r) in
                  let want = ref_accs.(!ref_i) in
                  incr ref_i;
                  (* cksum16 reference may carry one unfolded carry *)
                  let fold v = Checksum.fold16 v in
                  let same =
                    match p with
                    | R_cksum16 -> fold got = fold want
                    | _ -> got = want
                  in
                  if not same then acc_ok := false
                | [] -> acc_ok := false)
            | R_xor _ -> (
                match !regs with
                | _ :: rest -> regs := rest
                | [] -> acc_ok := false)
            | _ -> ())
         pipes;
       ignore acc_pipes;
       !out_ok && !acc_ok)

let () =
  Alcotest.run "ash_pipes"
    [
      ( "single pipes",
        [
          Alcotest.test_case "identity copies" `Quick test_identity_pipe_copies;
          Alcotest.test_case "cksum32 = reference" `Quick
            test_cksum32_pipe_matches_reference;
          Alcotest.test_case "cksum16 gauge conversion" `Quick
            test_cksum16_pipe_matches_reference;
          Alcotest.test_case "byteswap32" `Quick test_byteswap_pipe;
          Alcotest.test_case "byteswap16" `Quick test_byteswap16_pipe;
          Alcotest.test_case "xor cipher roundtrip" `Quick
            test_xor_cipher_roundtrip;
          Alcotest.test_case "add_const8 (G8 gauge)" `Quick
            test_add_const8_gauge;
          Alcotest.test_case "word count" `Quick test_word_count_pipe;
        ] );
      ( "composition",
        [
          Alcotest.test_case "Fig. 1 cksum+byteswap" `Quick
            test_fig1_composition;
          Alcotest.test_case "three pipes" `Quick test_three_pipe_composition;
          Alcotest.test_case "sink mode" `Quick
            test_sink_mode_leaves_dst_untouched;
          Alcotest.test_case "short lengths" `Quick test_short_lengths;
          Alcotest.test_case "zero length" `Quick test_zero_length;
          Alcotest.test_case "unaligned rejected" `Quick
            test_unaligned_length_rejected;
          Alcotest.test_case "persistent exhaustion" `Quick
            test_persistent_register_exhaustion;
          Alcotest.test_case "run-granular bodies" `Quick
            test_run_granular_bodies;
        ] );
      ( "striped layout",
        [
          Alcotest.test_case "copy skips padding" `Quick
            test_striped_copy_skips_padding;
          Alcotest.test_case "cksum over payload" `Quick
            test_striped_cksum_matches_contiguous;
          Alcotest.test_case "partial tail" `Quick test_striped_partial_tail;
          Alcotest.test_case "single pass wins" `Quick
            test_striped_single_pass_beats_destripe_then_dilp;
          Alcotest.test_case "bad geometry" `Quick
            test_striped_bad_geometry_rejected;
        ] );
      ( "table IV",
        [
          Alcotest.test_case "calibration" `Quick test_table4_calibration;
          Alcotest.test_case "fits gas budget" `Quick
            test_dilp_within_gas_budget;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_dilp_cksum_equals_reference;
          QCheck_alcotest.to_alcotest
            prop_pipe_order_of_nomod_commutative_irrelevant;
          QCheck_alcotest.to_alcotest prop_xor_involution;
          QCheck_alcotest.to_alcotest prop_random_stack_matches_reference;
        ] );
    ]

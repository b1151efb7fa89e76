(* Differential properties.

   1. Random verified VM programs behave identically whether run raw or
      after sandboxing: same outcome, same architectural registers, same
      memory effects. The only permitted difference is the sandbox's own
      machinery (check instructions, extra cycles, the reserved r31).

   2. Random DILP pipe stacks, compiled to one fused traversal, produce
      byte-for-byte the result of applying the same pipes one sequential
      pass at a time — including checksum accumulator outputs, checked
      against both a host-level reference and the machine-charged
      baselines in Ash_pipes.Baseline. *)

module Isa = Ash_vm.Isa
module Program = Ash_vm.Program
module Verify = Ash_vm.Verify
module Sandbox = Ash_vm.Sandbox
module Interp = Ash_vm.Interp
module Machine = Ash_sim.Machine
module Memory = Ash_sim.Memory
module Cache = Ash_sim.Cache
module Costs = Ash_sim.Costs
module Rng = Ash_util.Rng
module Checksum = Ash_util.Checksum
module Bytesx = Ash_util.Bytesx
module Pipe = Ash_pipes.Pipe
module Pipelib = Ash_pipes.Pipelib
module Dilp = Ash_pipes.Dilp
module Baseline = Ash_pipes.Baseline

(* ------------------------------------------------------------------ *)
(* Part 1: sandboxed vs unsafe VM execution                            *)
(* ------------------------------------------------------------------ *)

let msg_len = 64
let scratch_len = 256

(* Memory allocation is deterministic, so two fixtures built the same
   way give handlers identical addresses: runs are comparable and any
   divergence is the sandbox's fault, not layout noise. *)
let fixture seed =
  let machine = Machine.create Costs.decstation in
  let mem = Machine.mem machine in
  let msg = Memory.alloc mem ~name:"msg" msg_len in
  let scratch = Memory.alloc mem ~name:"scratch" scratch_len in
  let payload = Bytes.create msg_len in
  Rng.fill_bytes (Rng.create seed) payload;
  Memory.blit_from_bytes mem ~src:payload ~src_off:0 ~dst:msg.Memory.base
    ~len:msg_len;
  (machine, msg, scratch)

(* Random program over a restricted, safe subset: ALU ops on r1-r8,
   loads/stores confined to the scratch region through base register r9,
   message reads through kernel calls with in-range immediates, and
   forward-only branches (so every program terminates). Slot [n-1] is a
   random terminator; the verifier must accept everything we generate. *)
let gen_program rng ~scratch_base =
  let n = 6 + Rng.int rng 28 in
  let code = Array.make n (Isa.Mov (1, 1)) in
  code.(0) <- Isa.Li (9, scratch_base);
  let rd () = 1 + Rng.int rng 8 in
  let rs () = Rng.int rng 9 (* r0 included: reads zero *) in
  let i = ref 1 in
  while !i < n - 1 do
    let slot = !i in
    (match Rng.int rng 12 with
     | 0 -> code.(slot) <- Isa.Li (rd (), Rng.int rng 0x10000)
     | 1 ->
       let op =
         match Rng.int rng 7 with
         | 0 -> Isa.Add (rd (), rs (), rs ())
         | 1 -> Isa.Sub (rd (), rs (), rs ())
         | 2 -> Isa.Mul (rd (), rs (), rs ())
         | 3 -> Isa.And_ (rd (), rs (), rs ())
         | 4 -> Isa.Or_ (rd (), rs (), rs ())
         | 5 -> Isa.Xor_ (rd (), rs (), rs ())
         | _ -> Isa.Sltu (rd (), rs (), rs ())
       in
       code.(slot) <- op
     | 2 ->
       let op =
         match Rng.int rng 4 with
         | 0 -> Isa.Addi (rd (), rs (), Rng.int rng 512 - 256)
         | 1 -> Isa.Andi (rd (), rs (), Rng.int rng 0x10000)
         | 2 -> Isa.Ori (rd (), rs (), Rng.int rng 0x10000)
         | _ -> Isa.Xori (rd (), rs (), Rng.int rng 0x10000)
       in
       code.(slot) <- op
     | 3 ->
       code.(slot) <-
         (if Rng.int rng 2 = 0 then Isa.Sll (rd (), rs (), Rng.int rng 32)
          else Isa.Srl (rd (), rs (), Rng.int rng 32))
     | 4 ->
       code.(slot) <-
         (match Rng.int rng 3 with
          | 0 -> Isa.Cksum32 (rd (), rs ())
          | 1 -> Isa.Bswap16 (rd (), rs ())
          | _ -> Isa.Bswap32 (rd (), rs ()))
     | 5 | 6 ->
       (* Scratch access, always in bounds, width-aligned offsets. *)
       let w = [| 1; 2; 4 |].(Rng.int rng 3) in
       let off = w * Rng.int rng (scratch_len / w) in
       code.(slot) <-
         (match (w, Rng.int rng 2) with
          | 1, 0 -> Isa.Ld8 (rd (), 9, off)
          | 1, _ -> Isa.St8 (rs (), 9, off)
          | 2, 0 -> Isa.Ld16 (rd (), 9, off)
          | 2, _ -> Isa.St16 (rs (), 9, off)
          | _, 0 -> Isa.Ld32 (rd (), 9, off)
          | _, _ -> Isa.St32 (rs (), 9, off))
     | 7 when slot + 2 < n ->
       (* Message read through the trusted kernel call: set the offset
          argument, then call. Uses two slots. *)
       let call, w =
         match Rng.int rng 3 with
         | 0 -> (Isa.K_msg_read8, 1)
         | 1 -> (Isa.K_msg_read16, 2)
         | _ -> (Isa.K_msg_read32, 4)
       in
       code.(slot) <- Isa.Li (Isa.reg_arg0, w * Rng.int rng (msg_len / w));
       code.(slot + 1) <- Isa.Call call;
       incr i
     | 8 when slot + 1 < n - 1 ->
       (* Forward-only branch: target strictly ahead, at most the
          terminator. Termination is guaranteed by construction. *)
       let target = slot + 1 + Rng.int rng (n - slot - 1) in
       let a = rs () and b = rs () in
       code.(slot) <-
         (match Rng.int rng 4 with
          | 0 -> Isa.Beq (a, b, target)
          | 1 -> Isa.Bne (a, b, target)
          | 2 -> Isa.Bltu (a, b, target)
          | _ -> Isa.Bgeu (a, b, target))
     | _ -> code.(slot) <- Isa.Mov (rd (), rs ()))
    ;
    incr i
  done;
  code.(n - 1) <-
    (match Rng.int rng 3 with
     | 0 -> Isa.Commit
     | 1 -> Isa.Abort
     | _ -> Isa.Halt);
  Program.make ~name:(Printf.sprintf "diff-%d" n) code

let allowed = Isa.[ K_msg_read8; K_msg_read16; K_msg_read32 ]

let run_on (machine, msg, _scratch) program =
  let env =
    {
      Interp.machine;
      msg_addr = msg.Memory.base;
      msg_len;
      allowed_calls = allowed;
      dilp = (fun ~id:_ ~src:_ ~dst:_ ~len:_ ~regs:_ -> false);
      send = ignore;
      gas_cycles = Interp.default_gas;
    }
  in
  Interp.run env program

let region_contents (machine, _, _) (r : Memory.region) =
  Memory.read_string (Machine.mem machine) ~addr:r.Memory.base ~len:r.Memory.len

let prop_sandboxed_equals_unsafe =
  QCheck.Test.make ~name:"sandboxed and unsafe runs agree" ~count:150
    (QCheck.int_bound 1_000_000_000) (fun seed ->
      let rng = Rng.create (seed + 1) in
      let fa = fixture seed and fb = fixture seed in
      let _, _, sa = fa and _, _, sb = fb in
      assert (sa.Memory.base = sb.Memory.base);
      let p = gen_program rng ~scratch_base:sa.Memory.base in
      (match Verify.check ~allowed_calls:allowed p with
       | Ok _ -> ()
       | Error e ->
         QCheck.Test.fail_reportf "generated program rejected: %a"
           Verify.pp_error e);
      let unsafe = run_on fa p in
      let sandboxed_p, _ = Sandbox.apply p in
      let sand = run_on fb sandboxed_p in
      if unsafe.Interp.outcome <> sand.Interp.outcome then
        QCheck.Test.fail_report "outcomes differ";
      (* r31 is the sandbox's reserved register; everything the program
         can architecturally touch must match. *)
      for r = 0 to 30 do
        if unsafe.Interp.regs.(r) <> sand.Interp.regs.(r) then
          QCheck.Test.fail_reportf "r%d differs: %d vs %d" r
            unsafe.Interp.regs.(r)
            sand.Interp.regs.(r)
      done;
      if region_contents fa sa <> region_contents fb sb then
        QCheck.Test.fail_report "scratch memory diverged";
      if unsafe.Interp.check_insns <> 0 then
        QCheck.Test.fail_report "unsafe run executed check instructions";
      (match sand.Interp.outcome with
       | Interp.Killed _ -> ()
       | Interp.Committed | Interp.Aborted | Interp.Returned ->
         if sand.Interp.check_insns = 0 then
           QCheck.Test.fail_report
             "sandboxed run reached an exit without check instructions");
      true)

let prop_sandbox_adds_static_checks =
  QCheck.Test.make ~name:"check_insns is 0 iff unsafe (statically too)"
    ~count:80 (QCheck.int_bound 1_000_000_000) (fun seed ->
      let rng = Rng.create (seed + 1000) in
      let _, _, scratch = fixture seed in
      let p = gen_program rng ~scratch_base:scratch.Memory.base in
      let sp, stats = Sandbox.apply p in
      Program.static_check_count p = 0
      && Program.static_check_count sp > 0
      && stats.Sandbox.added > 0)

(* ------------------------------------------------------------------ *)
(* Part 2: fused DILP vs sequential per-pass application               *)
(* ------------------------------------------------------------------ *)

type pd = Cksum | Bswap32 | Bswap16 | Xor of int | Count | Ident | Add8 of int

let pd_name = function
  | Cksum -> "cksum"
  | Bswap32 -> "bswap32"
  | Bswap16 -> "bswap16"
  | Xor _ -> "xor"
  | Count -> "count"
  | Ident -> "ident"
  | Add8 _ -> "add8"

let gen_stack rng =
  let len = 1 + Rng.int rng 4 in
  List.init len (fun _ ->
      match Rng.int rng 7 with
      | 0 -> Cksum
      | 1 -> Bswap32
      | 2 -> Bswap16
      | 3 -> Xor (Rng.int rng 0x10000 lor (Rng.int rng 0x10000 lsl 16))
      | 4 -> Count
      | 5 -> Ident
      | _ -> Add8 (Rng.int rng 256))

(* Host-level sequential reference: apply each pipe as its own pass over
   the whole buffer, exactly what a nonintegrated protocol stack does. *)
let host_word_map f buf =
  let out = Bytes.copy buf in
  for k = 0 to (Bytes.length buf / 4) - 1 do
    Bytesx.set_u32 out (4 * k) (f (Bytesx.get_u32 buf (4 * k)))
  done;
  out

let bswap16_lanes w =
  (Bytesx.bswap16 (w lsr 16) lsl 16) lor Bytesx.bswap16 (w land 0xffff)

let host_reference stack buf =
  (* Returns the final buffer plus the expected accumulator value (as a
     check list in stack order) for stateful pipes. *)
  List.fold_left
    (fun (cur, accs) pd ->
       match pd with
       | Cksum ->
         let sum = Checksum.sum32 cur ~off:0 ~len:(Bytes.length cur) in
         (cur, accs @ [ Checksum.fold32_to16 sum ])
       | Bswap32 -> (host_word_map Bytesx.bswap32 cur, accs)
       | Bswap16 -> (host_word_map bswap16_lanes cur, accs)
       | Xor key -> (host_word_map (fun w -> w lxor key) cur, accs)
       | Count -> (cur, accs @ [ Bytes.length cur / 4 ])
       | Ident -> (cur, accs)
       | Add8 c ->
         let out = Bytes.copy cur in
         Bytes.iteri
           (fun i b -> Bytes.set out i (Char.chr ((Char.code b + c) land 0xff)))
           cur;
         (out, accs))
    (buf, []) stack

let prop_dilp_matches_sequential =
  QCheck.Test.make ~name:"fused DILP = sequential per-pass reference"
    ~count:120 (QCheck.int_bound 1_000_000_000) (fun seed ->
      let rng = Rng.create (seed + 7) in
      let stack = gen_stack rng in
      let len = 4 * (1 + Rng.int rng 128) in
      let payload = Bytes.create len in
      Rng.fill_bytes rng payload;
      (* Build the pipe list; collect persistent registers and inits. *)
      let pl = Pipe.Pipelist.create () in
      let tracked =
        (* Left-to-right fold: pipes must be added in stack order. *)
        List.rev
          (List.fold_left
             (fun acc pd ->
                let t =
                  match pd with
                  | Cksum ->
                    let _, r = Pipelib.cksum32 pl in
                    Some (r, 0)
                  | Bswap32 ->
                    ignore (Pipelib.byteswap32 pl);
                    None
                  | Bswap16 ->
                    ignore (Pipelib.byteswap16 pl);
                    None
                  | Xor key ->
                    let _, r = Pipelib.xor_cipher pl in
                    Some (r, key)
                  | Count ->
                    let _, r = Pipelib.word_count pl in
                    Some (r, 0)
                  | Ident ->
                    ignore (Pipelib.identity pl);
                    None
                  | Add8 c ->
                    ignore (Pipelib.add_const8 pl c);
                    None
                in
                (pd, t) :: acc)
             [] stack)
      in
      let compiled = Dilp.compile pl Dilp.Write in
      let machine = Machine.create Costs.decstation in
      let mem = Machine.mem machine in
      let src = Memory.alloc mem ~name:"src" len in
      let dst = Memory.alloc mem ~name:"dst" len in
      Memory.blit_from_bytes mem ~src:payload ~src_off:0 ~dst:src.Memory.base
        ~len;
      let init =
        List.filter_map (fun (_, t) -> Option.map (fun (r, v) -> (r, v)) t)
          tracked
      in
      let regs =
        Dilp.execute_exn ~init machine compiled ~src:src.Memory.base
          ~dst:dst.Memory.base ~len
      in
      let expected_buf, expected_accs = host_reference stack payload in
      let got =
        Memory.read_string mem ~addr:dst.Memory.base ~len
      in
      if got <> Bytes.to_string expected_buf then
        QCheck.Test.fail_reportf "fused output differs for stack [%s] len=%d"
          (String.concat ";" (List.map pd_name stack))
          len;
      (* Stateful pipes: compare accumulators in stack order. *)
      let got_accs =
        List.filter_map
          (fun (pd, t) ->
             match (pd, t) with
             | Cksum, Some (r, _) -> Some (Checksum.fold32_to16 regs.(r))
             | Count, Some (r, _) -> Some regs.(r)
             | _ -> None)
          tracked
      in
      if got_accs <> expected_accs then
        QCheck.Test.fail_reportf "accumulators differ for stack [%s]"
          (String.concat ";" (List.map pd_name stack));
      true)

(* The focused cross-check against the machine-charged baselines: the
   fused cksum+byteswap transfer must agree with Baseline.copy +
   Baseline.cksum16_pass + Baseline.byteswap_pass run as separate
   passes on a second, identically laid out machine. *)
let prop_dilp_matches_baseline_passes =
  QCheck.Test.make ~name:"fused cksum+bswap = Baseline sequential passes"
    ~count:60 (QCheck.int_bound 1_000_000_000) (fun seed ->
      let rng = Rng.create (seed + 31) in
      let len = 4 * (1 + Rng.int rng 256) in
      let payload = Bytes.create len in
      Rng.fill_bytes rng payload;
      let setup () =
        let machine = Machine.create Costs.decstation in
        let mem = Machine.mem machine in
        let src = Memory.alloc mem ~name:"src" len in
        let dst = Memory.alloc mem ~name:"dst" len in
        Memory.blit_from_bytes mem ~src:payload ~src_off:0
          ~dst:src.Memory.base ~len;
        (machine, mem, src, dst)
      in
      (* Fused single pass. *)
      let ma, mema, srca, dsta = setup () in
      let pl = Pipe.Pipelist.create () in
      let _, acc = Pipelib.cksum32 pl in
      ignore (Pipelib.byteswap32 pl);
      let compiled = Dilp.compile pl Dilp.Write in
      let regs =
        Dilp.execute_exn ~init:[ (acc, 0) ] ma compiled ~src:srca.Memory.base
          ~dst:dsta.Memory.base ~len
      in
      let fused_cksum = Checksum.fold32_to16 regs.(acc) in
      let fused_bytes = Memory.read_string mema ~addr:dsta.Memory.base ~len in
      (* Sequential baseline passes (checksum sees pre-swap data, like
         the pipe stack order). *)
      let mb, memb, srcb, dstb = setup () in
      Baseline.copy mb ~src:srcb.Memory.base ~dst:dstb.Memory.base ~len;
      let seq_cksum = Baseline.cksum16_pass mb ~addr:dstb.Memory.base ~len in
      Baseline.byteswap_pass mb ~addr:dstb.Memory.base ~len;
      let seq_bytes = Memory.read_string memb ~addr:dstb.Memory.base ~len in
      fused_cksum = seq_cksum && fused_bytes = seq_bytes)

(* ------------------------------------------------------------------ *)
(* Part 3: the interpreter oracle vs the closure-compiled executor      *)
(* ------------------------------------------------------------------ *)

module Exec = Ash_vm.Exec
module Dpf = Ash_kern.Dpf

(* The executor's contract with Interp is total observational
   equality: same Interp.result field for field AND the same machine
   charging, for any program — including ones that die mid-run. *)

let oracle_env ?(allowed_calls = allowed) machine ~msg_addr ~msg_len =
  {
    Interp.machine;
    msg_addr;
    msg_len;
    allowed_calls;
    dilp = (fun ~id:_ ~src:_ ~dst:_ ~len:_ ~regs:_ -> false);
    send = ignore;
    gas_cycles = Interp.default_gas;
  }

let fixture_env (machine, msg, _scratch) =
  oracle_env machine ~msg_addr:msg.Memory.base ~msg_len

let check_results_equal ~what (a : Interp.result) (b : Interp.result) =
  if a.Interp.outcome <> b.Interp.outcome then
    QCheck.Test.fail_reportf "%s: outcomes differ" what;
  if a.Interp.insns <> b.Interp.insns then
    QCheck.Test.fail_reportf "%s: insns differ: %d vs %d" what a.Interp.insns
      b.Interp.insns;
  if a.Interp.check_insns <> b.Interp.check_insns then
    QCheck.Test.fail_reportf "%s: check_insns differ: %d vs %d" what
      a.Interp.check_insns b.Interp.check_insns;
  if a.Interp.cycles <> b.Interp.cycles then
    QCheck.Test.fail_reportf "%s: cycles differ: %d vs %d" what
      a.Interp.cycles b.Interp.cycles;
  for r = 0 to Isa.num_regs - 1 do
    if a.Interp.regs.(r) <> b.Interp.regs.(r) then
      QCheck.Test.fail_reportf "%s: r%d differs: %d vs %d" what r
        a.Interp.regs.(r)
        b.Interp.regs.(r)
  done

let prop_backends_agree =
  QCheck.Test.make ~name:"compiled backend = interpreter (unsafe + sandboxed)"
    ~count:150 (QCheck.int_bound 1_000_000_000) (fun seed ->
      let rng = Rng.create (seed + 13) in
      let fa = fixture seed and fb = fixture seed in
      let _, _, sa = fa and ma, _, _ = fa and mb, _, _ = fb in
      let p = gen_program rng ~scratch_base:sa.Memory.base in
      let variants =
        [ ("unsafe", p); ("sandboxed", fst (Sandbox.apply p)) ]
      in
      List.iter
        (fun (what, prog) ->
           let ra = Interp.run (fixture_env fa) prog in
           let rb = Exec.run (fixture_env fb) (Exec.prepare prog) in
           check_results_equal ~what ra rb;
           if Machine.consumed_cycles ma <> Machine.consumed_cycles mb then
             QCheck.Test.fail_reportf "%s: machine cycle meters diverged" what;
           let _, _, scr_a = fa and _, _, scr_b = fb in
           if region_contents fa scr_a <> region_contents fb scr_b then
             QCheck.Test.fail_reportf "%s: scratch memory diverged" what)
        variants;
      true)

(* [Dilp.execute] runs TCP's checksumming transfer as its word kernel
   when it can and every transfer on the VM otherwise; either way it
   must match Interp running the loop program. The cases cover both modes, lengths 0-4096 with
   tails and a 128 KiB transfer the gas budget kills, unaligned ends,
   overlapping ranges, warm, cold and aliased caches, paged-out and
   freed ranges, an [init] that sets r0, and pipes whose body loads,
   reads r1 or writes r2. Besides the result and the machine's meter,
   the runs must leave the same cache counts and tags over both ranges,
   the same bytes, and record the same [Vm_run] event. *)
type odd_pipe = Loads | Reads_r1 | Writes_r2

let odd_pipe pl odd =
  let name, body =
    match odd with
    | Loads ->
      ( "loads",
        fun c ->
          let t = c.Pipe.temp () in
          c.Pipe.emit (Isa.Ld32 (t, 1, 0));
          c.Pipe.emit (Isa.Xor_ (c.Pipe.data, c.Pipe.data, t)) )
    | Reads_r1 ->
      ("reads-r1", fun c -> c.Pipe.emit (Isa.Add (c.Pipe.data, c.Pipe.data, 1)))
    | Writes_r2 -> ("writes-r2", fun c -> c.Pipe.emit (Isa.Or_ (2, 2, 0)))
  in
  ignore (Pipe.Pipelist.add pl (Pipe.make ~name ~gauge:Pipe.G32 body))

type dilp_case = {
  mode : Dilp.mode;
  stack : pd list;
  odd : odd_pipe option;
  len : int;
  src_off : int;
  dst_at : [ `Own of int | `In_src of int ];
  warm : [ `Cold | `Ranges | `Aliases ];
  gone : [ `Src_paged | `Src_freed | `Dst_paged | `Dst_freed ] option;
  r0 : int option;
  payload : [ `Seed of int | `Byte of char ];
}

let gen_dilp_case rng =
  let pick a = a.(Rng.int rng (Array.length a)) in
  let big = Rng.int rng 16 = 0 in
  {
    mode = (if big || Rng.int rng 2 = 0 then Dilp.Write else Dilp.Sink);
    (* Cksum32 in every Write pass over 128 KiB makes gas run out even
       with a warm cache. *)
    stack = (if big then Cksum :: gen_stack rng else gen_stack rng);
    odd =
      (if Rng.int rng 2 = 0 then None
       else Some (pick [| Loads; Reads_r1; Writes_r2 |]));
    len = (if big then 128 * 1024 else 4 * Rng.int rng 1025);
    src_off = Rng.int rng 16;
    dst_at =
      (if Rng.int rng 4 = 0 then `In_src (pick [| -12; -8; -4; 0; 4; 8; 12 |])
       else `Own (Rng.int rng 16));
    warm = pick [| `Cold; `Ranges; `Aliases |];
    gone =
      (if Rng.int rng 6 > 0 then None
       else Some (pick [| `Src_paged; `Src_freed; `Dst_paged; `Dst_freed |]));
    r0 = (if Rng.int rng 4 = 0 then Some (Rng.int rng 0x1_0000_0000) else None);
    payload = `Seed (Rng.int rng 1_000_000);
  }

let dilp_case_name c =
  Printf.sprintf "%s [%s%s] len %d src+%d dst %s%s%s%s"
    (match c.mode with Dilp.Write -> "write" | Dilp.Sink -> "sink")
    (String.concat ";" (List.map pd_name c.stack))
    (match c.odd with
     | None -> ""
     | Some Loads -> ";loads"
     | Some Reads_r1 -> ";reads-r1"
     | Some Writes_r2 -> ";writes-r2")
    c.len c.src_off
    (match c.dst_at with
     | `Own o -> Printf.sprintf "+%d" o
     | `In_src d -> Printf.sprintf "src%+d" d)
    (match c.payload with
     | `Seed _ -> ""
     | `Byte b -> Printf.sprintf " all 0x%02x" (Char.code b))
    (match c.warm with
     | `Cold -> ""
     | `Ranges -> " warm"
     | `Aliases -> " warm aliases")
    (match c.gone with
     | None -> ""
     | Some `Src_paged -> " src paged out"
     | Some `Src_freed -> " src freed"
     | Some `Dst_paged -> " dst paged out"
     | Some `Dst_freed -> " dst freed")

(* Both fixtures are built the same way, so their addresses agree. *)
let dilp_fixture c =
  let machine = Machine.create Costs.decstation in
  let mem = Machine.mem machine in
  let room = c.len + 48 in
  let src_r = Memory.alloc mem ~name:"src" room in
  let dst_r = Memory.alloc mem ~name:"dst" room in
  let fill =
    match c.payload with
    | `Seed seed ->
      let rng = Rng.create seed in
      fun b -> Rng.fill_bytes rng b
    | `Byte byte -> fun b -> Bytes.fill b 0 room byte
  in
  List.iter
    (fun (r : Memory.region) ->
       let b = Bytes.create room in
       fill b;
       Memory.blit_from_bytes mem ~src:b ~src_off:0 ~dst:r.Memory.base
         ~len:room)
    [ src_r; dst_r ];
  let src = src_r.Memory.base + c.src_off in
  let dst =
    match c.dst_at with
    | `Own o -> dst_r.Memory.base + o
    | `In_src d -> src + d
  in
  (match c.warm with
   | `Cold -> ()
   | `Ranges ->
     Machine.warm_range machine ~addr:src ~len:c.len;
     Machine.warm_range machine ~addr:dst ~len:c.len
   | `Aliases ->
     Machine.warm_range machine ~addr:(src + 65536) ~len:c.len;
     Machine.warm_range machine ~addr:(dst + 65536) ~len:c.len);
  (match c.gone with
   | None -> ()
   | Some `Src_paged -> Memory.set_resident src_r false
   | Some `Src_freed -> Memory.free mem src_r
   | Some `Dst_paged -> Memory.set_resident dst_r false
   | Some `Dst_freed -> Memory.free mem dst_r);
  (machine, src_r, dst_r, src, dst)

(* Run [f] under a recorder; its result and the [Vm_run] events. *)
let vm_runs f =
  let r = Ash_obs.Trace.record ~capacity:64 () in
  let res = Fun.protect ~finally:(fun () -> Ash_obs.Trace.stop r) f in
  ( res,
    List.filter_map
      (fun (e : Ash_obs.Trace.event) ->
         match e.Ash_obs.Trace.kind with
         | Ash_obs.Trace.Vm_run _ as k -> Some k
         | _ -> None)
      (Ash_obs.Trace.events r) )

(* [c]'s loop compiled, and its persistent registers in stack order. *)
let dilp_compile c =
  let pl = Pipe.Pipelist.create () in
  let persistent =
    List.filter_map
      (fun pd ->
         match pd with
         | Cksum -> Some (snd (Pipelib.cksum32 pl))
         | Bswap32 -> ignore (Pipelib.byteswap32 pl); None
         | Bswap16 -> ignore (Pipelib.byteswap16 pl); None
         | Xor _ -> Some (snd (Pipelib.xor_cipher pl))
         | Count -> Some (snd (Pipelib.word_count pl))
         | Ident -> ignore (Pipelib.identity pl); None
         | Add8 k -> ignore (Pipelib.add_const8 pl k); None)
      c.stack
  in
  Option.iter (odd_pipe pl) c.odd;
  (Dilp.compile pl c.mode, persistent)

(* Interp running [compiled]'s program and [Dilp.execute] on two
   identical fixtures of [c], entered with [init]: every comparison the
   comment above lists. Returns [Dilp.execute]'s result. *)
let dilp_agree c compiled ~init =
  let what = dilp_case_name c in
  let ((ma, srca, dsta, src, dst) as fa) = dilp_fixture c in
  let ((mb, srcb, dstb, _, _) as fb) = dilp_fixture c in
  let charged (m, _, _, _, _) run =
    let h0, m0 = Cache.stats (Machine.cache m) in
    let c0 = Machine.consumed_cycles m in
    let r, events = vm_runs run in
    let h1, m1 = Cache.stats (Machine.cache m) in
    (r, events, (Machine.consumed_cycles m - c0, h1 - h0, m1 - m0))
  in
  (* The oracle enters the loop by Dilp's documented convention:
     r1 = source, r2 = destination, r3 = length. *)
  let ra, eva, cha =
    charged fa (fun () ->
        Interp.run
          (oracle_env ~allowed_calls:[] ma ~msg_addr:src ~msg_len:c.len)
          ~regs_init:((1, src) :: (2, dst) :: (3, c.len) :: init)
          compiled.Dilp.program)
  in
  let rb, evb, chb =
    charged fb (fun () ->
        Dilp.execute ~init mb compiled ~src ~dst ~len:c.len)
  in
  check_results_equal ~what ra rb;
  if cha <> chb then
    QCheck.Test.fail_reportf "%s: cycles or cache counts diverged" what;
  if eva <> evb then
    QCheck.Test.fail_reportf "%s: Vm_run events differ" what;
  let lines a =
    List.init ((c.len + 47) / 16) (fun i -> a - 16 + (16 * i))
  in
  List.iter
    (fun la ->
       if Cache.probe (Machine.cache ma) ~addr:la
          <> Cache.probe (Machine.cache mb) ~addr:la
       then QCheck.Test.fail_reportf "%s: tag at 0x%x differs" what la)
    (lines src @ lines dst);
  (* Straight from the backing store: a range may be paged out. *)
  let same (a : Memory.region) (b : Memory.region) =
    Bytes.equal a.Memory.data b.Memory.data
  in
  if not (same srca srcb && same dsta dstb) then
    QCheck.Test.fail_reportf "%s: memory diverged" what;
  rb

let prop_dilp_backends_agree =
  QCheck.Test.make ~name:"DILP transfers agree across backends" ~count:80
    ~long_factor:10 (QCheck.int_bound 1_000_000_000) (fun seed ->
      let c = gen_dilp_case (Rng.create (seed + 17)) in
      let compiled, persistent = dilp_compile c in
      let init =
        List.mapi (fun i r -> (r, (seed * (i + 7)) land 0xffff_ffff)) persistent
        @ match c.r0 with Some v -> [ (0, v) ] | None -> []
      in
      ignore (dilp_agree c compiled ~init);
      true)

(* TCP's checksumming transfer, [cksum32] alone, takes the word kernel
   (see dilp.mli). A grid of cases that must return: every mode; a
   length of 0, one word, three words, a 16-byte step and three words,
   a segment, a segment and one word, and a transfer as large as the
   cache, so the kernel's 16-byte steps run with a 0-3-word tail and
   without; a source 16 bytes into its region and one 19 bytes in; and
   a destination in its own region and overlapping either way inside
   the source's region. At src+4 each word is stored where the next is
   loaded, at src-4 where the one before it was, and at src+2 and src-2
   each store also rewrites half of the word it was loaded from, the
   last one included; at src+16 a store lands four words ahead, where a
   16-byte step that loaded before the earlier stores would differ, and
   at src-16 four words behind. The kernel folds once at the end, so it
   gets an accumulator near 2^32 over all-ones words, which carry on
   every word, 0 over all-zero words, which must stay 0, and a random
   one over random words, which also tell the overlap orders apart.

   Every grid case is cold, resident and inside the gas budget, so nine
   fixed cases, a segment long unless stated, take the kernel's
   admission checks and its charge the other way: a 128 KiB cold Write
   runs out of gas; a source and a destination, each paged out and each
   freed, fault; and in both modes, a cache warmed over both ranges,
   where loads hit, and one warmed over their aliases, where lines that
   hold other addresses must miss, return. *)
type kernel_outcome = Returns | Out_of_gas | Faults

let kernel_cases rng =
  let ( let* ) l f = List.concat_map f l in
  let grid =
    let* mode = [ Dilp.Write; Dilp.Sink ] in
    let* len = [ 0; 4; 12; 28; 3072; 3076; 65536 ] in
    let* src_off = [ 16; 19 ] in
    let* dst_at =
      [ `Own 0; `In_src 4; `In_src (-4); `In_src 2; `In_src (-2);
        `In_src 16; `In_src (-16) ]
    in
    let* payload, acc =
      [ (`Byte '\xff', 0xffff_ff00 + Rng.int rng 0x100); (`Byte '\000', 0);
        (`Seed (Rng.int rng 1_000_000), Rng.int rng 0x1_0000_0000) ]
    in
    [ ( { mode; stack = [ Cksum ]; odd = None; len; src_off; dst_at;
          warm = `Cold; gone = None; r0 = None; payload },
        acc, Returns ) ]
  in
  let fixed ?(len = 3072) ?(warm = `Cold) ?gone mode expect =
    ( { mode; stack = [ Cksum ]; odd = None; len; src_off = 16;
        dst_at = `Own 0; warm; gone; r0 = None;
        payload = `Seed (Rng.int rng 1_000_000) },
      Rng.int rng 0x1_0000_0000, expect )
  in
  let warmed =
    let* mode = [ Dilp.Write; Dilp.Sink ] in
    let* warm = [ `Ranges; `Aliases ] in
    [ fixed ~warm mode Returns ]
  in
  grid
  @ (fixed ~len:(128 * 1024) Dilp.Write Out_of_gas
     :: List.map
          (fun gone -> fixed ~gone Dilp.Write Faults)
          [ `Src_paged; `Src_freed; `Dst_paged; `Dst_freed ])
  @ warmed

(* Each case must end as it expects: one that faulted or ran out of gas
   on both sides where it should return would agree without reaching
   the kernel. *)
let prop_dilp_kernels_agree =
  QCheck.Test.make ~name:"DILP word kernel agrees across backends" ~count:4
    ~long_factor:5 (QCheck.int_bound 1_000_000_000) (fun seed ->
      List.iter
        (fun (c, acc, expect) ->
           let what = dilp_case_name c in
           let compiled, persistent = dilp_compile c in
           if Option.is_none compiled.Dilp.native then
             QCheck.Test.fail_reportf "%s: no word kernel" what;
           let r =
             dilp_agree c compiled
               ~init:(List.map (fun r -> (r, acc)) persistent)
           in
           let as_expected =
             match r.Interp.outcome with
             | Interp.Returned -> expect = Returns
             | Interp.Killed Isa.Gas_exhausted -> expect = Out_of_gas
             | Interp.Killed (Isa.Mem_fault _) -> expect = Faults
             | Interp.Committed | Interp.Aborted | Interp.Killed _ -> false
           in
           if not as_expected then
             QCheck.Test.fail_reportf "%s: did not end as expected" what)
        (kernel_cases (Rng.create (seed + 23)));
      true)

let gen_filter rng =
  let natoms = 1 + Rng.int rng 4 in
  List.init natoms (fun _ ->
      let width = [| 1; 2; 4 |].(Rng.int rng 3) in
      let offset = Rng.int rng (msg_len - width + 8) (* sometimes past end *) in
      let bound = 1 lsl (8 * width) in
      Dpf.atom ~offset ~width (Rng.int rng bound))

let prop_dpf_backends_agree =
  QCheck.Test.make ~name:"DPF filter evaluation agrees across backends"
    ~count:120 (QCheck.int_bound 1_000_000_000) (fun seed ->
      let rng = Rng.create (seed + 23) in
      let filter = gen_filter rng in
      let packet = Bytes.create msg_len in
      Rng.fill_bytes rng packet;
      (* Half the time, force a match so the Commit path is exercised. *)
      (if Rng.int rng 2 = 0 then
         List.iter
           (fun (a : Dpf.atom) ->
              if a.Dpf.offset + a.Dpf.width <= msg_len then
                for i = 0 to a.Dpf.width - 1 do
                  Bytes.set packet (a.Dpf.offset + i)
                    (Char.chr
                       ((a.Dpf.value lsr (8 * (a.Dpf.width - 1 - i)))
                        land 0xff))
                done)
           filter);
      let program = Dpf.compile filter in
      let setup () =
        let machine = Machine.create Costs.decstation in
        let mem = Machine.mem machine in
        let buf = Memory.alloc mem ~name:"pkt" msg_len in
        Memory.blit_from_bytes mem ~src:packet ~src_off:0 ~dst:buf.Memory.base
          ~len:msg_len;
        (machine, buf)
      in
      let ma, bufa = setup () and mb, bufb = setup () in
      let accept_a =
        let env =
          oracle_env
            ~allowed_calls:Isa.[ K_msg_read8; K_msg_read16; K_msg_read32 ]
            ma ~msg_addr:bufa.Memory.base ~msg_len
        in
        (Interp.run env program).Interp.outcome = Interp.Committed
      in
      let accept_b =
        Dpf.run_compiled mb program ~msg_addr:bufb.Memory.base ~msg_len
      in
      if accept_a <> accept_b then
        QCheck.Test.fail_reportf "accept differs: %b vs %b" accept_a accept_b;
      if Machine.consumed_cycles ma <> Machine.consumed_cycles mb then
        QCheck.Test.fail_report "dpf: machine cycle meters diverged";
      accept_a = Dpf.matches packet filter)

(* ------------------------------------------------------------------ *)
(* Part 4: block dispatch — control flow, faults and gas kills          *)
(* ------------------------------------------------------------------ *)

(* [Exec] runs whole basic blocks without Interp's per-instruction pc,
   step and gas checks whenever none of them could fire inside the
   block. These programs stress exactly that: backward loops, [Jr] into
   the middle of blocks (with and without a jump map), writes to r0, and
   kills in the middle of a block — a load or store into the guard gap,
   a freed region or a paged-out one, a zero divisor, a wild jump — and
   they are run under every gas budget that changes where a kill lands. *)

type block_fixture = {
  bmachine : Machine.t;
  bmsg : Memory.region;
  bscratch : Memory.region;
  bad : int array; (* guard gap past scratch, freed region, paged-out region *)
}

let block_fixture seed =
  let bmachine, bmsg, bscratch = fixture seed in
  let mem = Machine.mem bmachine in
  let freed = Memory.alloc mem ~name:"freed" 64 in
  let paged = Memory.alloc mem ~name:"paged" ~resident:false 64 in
  Memory.free mem freed;
  {
    bmachine;
    bmsg;
    bscratch;
    bad =
      [| bscratch.Memory.base + scratch_len + 8; freed.Memory.base;
         paged.Memory.base |];
  }

(* Every run starts from the same machine state: scratch zeroed, cache
   cold. *)
let reset f =
  Memory.fill (Machine.mem f.bmachine) ~addr:f.bscratch.Memory.base
    ~len:scratch_len '\000';
  Machine.flush_cache f.bmachine

(* r9 = scratch base, r10 = loop counter, r11 = a bad address, r12 = the
   [Jr] operand; r0-r8 take data, r0 being a rare destination. Loops are
   counted down from at most 4 and entered only at their head, and every
   other branch or jump goes forward, so every program terminates. *)
let gen_block_program rng (f : block_fixture) =
  let n = 8 + Rng.int rng 40 in
  let code = Array.make n (Isa.Mov (1, 1)) in
  let sbase = f.bscratch.Memory.base in
  code.(0) <- Isa.Li (9, sbase);
  code.(1) <- Isa.Li (11, f.bad.(Rng.int rng (Array.length f.bad)));
  let exit () =
    match Rng.int rng 3 with 0 -> Isa.Commit | 1 -> Isa.Abort | _ -> Isa.Halt
  in
  let rd () = if Rng.int rng 8 = 0 then 0 else 1 + Rng.int rng 8 in
  let rs () = Rng.int rng 9 in
  let straight () =
    match Rng.int rng 12 with
    | 0 -> Isa.Li (rd (), Rng.int rng 0x10000)
    | 1 -> Isa.Add (rd (), rs (), rs ())
    | 2 -> Isa.Sub (rd (), rs (), rs ())
    | 3 -> Isa.Mul (rd (), rs (), rs ())
    | 4 when Rng.int rng 4 = 0 ->
      (* Divisor often zero: a kill mid-block. *)
      if Rng.int rng 2 = 0 then Isa.Divu (rd (), rs (), rs ())
      else Isa.Remu (rd (), rs (), rs ())
    | 5 -> Isa.Addi (rd (), rs (), Rng.int rng 512 - 256)
    | 6 -> Isa.Sll (rd (), rs (), Rng.int rng 32)
    | 7 -> Isa.Cksum32 (rd (), rs ())
    | 8 | 9 ->
      let w = [| 1; 2; 4 |].(Rng.int rng 3) in
      let off = w * Rng.int rng (scratch_len / w) in
      (match (w, Rng.int rng 2) with
       | 1, 0 -> Isa.Ld8 (rd (), 9, off)
       | 1, _ -> Isa.St8 (rs (), 9, off)
       | 2, 0 -> Isa.Ld16 (rd (), 9, off)
       | 2, _ -> Isa.St16 (rs (), 9, off)
       | _, 0 -> Isa.Ld32 (rd (), 9, off)
       | _, _ -> Isa.St32 (rs (), 9, off))
    | 10 when Rng.int rng 6 = 0 ->
      if Rng.int rng 2 = 0 then Isa.Ld32 (rd (), 11, 0)
      else Isa.St8 (rs (), 11, 3)
    | _ -> Isa.Mov (rd (), rs ())
  in
  (* Slots no forward branch or jump may land on: loop bodies, and a
     [Jr] past the [Li] that sets its operand. *)
  let no_target = Array.make n false in
  let forward = ref [] in
  let i = ref 2 in
  while !i < n - 1 do
    let slot = !i in
    let room = n - 1 - slot in
    (match Rng.int rng 10 with
     | 0 when room >= 4 ->
       let body = 1 + Rng.int rng (min 4 (room - 3)) in
       code.(slot) <- Isa.Li (10, 1 + Rng.int rng 4);
       for k = 1 to body do
         code.(slot + k) <- straight ()
       done;
       code.(slot + body + 1) <- Isa.Addi (10, 10, -1);
       code.(slot + body + 2) <- Isa.Bne (10, 0, slot + 1);
       for k = slot + 1 to slot + body + 2 do
         no_target.(k) <- true
       done;
       i := slot + body + 2
     | 1 when room >= 2 ->
       forward := (`Jr, slot) :: !forward;
       code.(slot + 1) <- Isa.Jr 12;
       no_target.(slot + 1) <- true;
       incr i
     | 2 -> forward := (`Branch, slot) :: !forward
     | 3 when room >= 2 ->
       let call, w =
         match Rng.int rng 3 with
         | 0 -> (Isa.K_msg_read8, 1)
         | 1 -> (Isa.K_msg_read16, 2)
         | _ -> (Isa.K_msg_read32, 4)
       in
       code.(slot) <- Isa.Li (Isa.reg_arg0, w * Rng.int rng (msg_len / w));
       code.(slot + 1) <- Isa.Call call;
       incr i
     | 4 when room >= 4 ->
       (* A kernel copy: its cost grows with the length. *)
       let len = Rng.int rng 48 in
       code.(slot) <- Isa.Li (Isa.reg_arg0, Rng.int rng (msg_len - len + 1));
       code.(slot + 1) <- Isa.Li (Isa.reg_arg1, sbase + Rng.int rng 64);
       code.(slot + 2) <- Isa.Li (Isa.reg_arg2, len);
       code.(slot + 3) <- Isa.Call Isa.K_copy;
       i := slot + 3
     | 5 when Rng.int rng 8 = 0 -> code.(slot) <- exit ()
     | _ -> code.(slot) <- straight ());
    incr i
  done;
  code.(n - 1) <- exit ();
  let targets_after slot =
    List.filter
      (fun t -> t > slot && not no_target.(t))
      (List.init n Fun.id)
  in
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  (* Half the programs translate [Jr] operands through a jump map whose
     spare entries are random too (each entry starts a block). *)
  let jump_map =
    if Rng.int rng 2 = 0 then None
    else Some (Array.init (n + 4) (fun _ -> pick (targets_after 0)))
  in
  let used = Array.make (n + 4) false in
  List.iter
    (fun (kind, slot) ->
       match kind with
       | `Branch ->
         let t = pick (targets_after slot) in
         let a = rs () and b = rs () in
         code.(slot) <-
           (match Rng.int rng 4 with
            | 0 -> Isa.Beq (a, b, t)
            | 1 -> Isa.Bne (a, b, t)
            | 2 -> Isa.Bltu (a, b, t)
            | _ -> Isa.Bgeu (a, b, t))
       | `Jr ->
         let t = pick (targets_after (slot + 1)) in
         let v =
           if Rng.int rng 16 = 0 then n + 4 + Rng.int rng 4 (* wild *)
           else
             match jump_map with
             | None -> t
             | Some map ->
               (* An entry of its own: sharing one with a later [Jr]
                  could send this one backwards. *)
               let v =
                 pick
                   (List.filter
                      (fun v -> not used.(v))
                      (List.init (Array.length map) Fun.id))
               in
               used.(v) <- true;
               map.(v) <- t;
               v
         in
         code.(slot) <- Isa.Li (12, v))
    !forward;
  let p = Program.make ~name:(Printf.sprintf "blocks-%d" n) code in
  { p with Program.jump_map }

let block_variants p =
  match p.Program.jump_map with
  | Some _ -> [ ("unsafe+map", p) ]
  | None -> [ ("unsafe", p); ("sandboxed", fst (Sandbox.apply p)) ]

let block_allowed = Isa.[ K_msg_read8; K_msg_read16; K_msg_read32; K_copy ]

let block_env ?(gas_cycles = Interp.default_gas) f =
  {
    (oracle_env ~allowed_calls:block_allowed f.bmachine
       ~msg_addr:f.bmsg.Memory.base ~msg_len)
    with
    Interp.gas_cycles;
  }

let gen_regs_init rng =
  let v () = Rng.int rng 0x10000 lor (Rng.int rng 0x10000 lsl 16) in
  match Rng.int rng 3 with
  | 0 -> []
  | 1 -> [ (0, v ()) ]
  | _ -> [ (0, v ()); (5, v ()); (10, Rng.int rng 3) ]

(* What a run charged the machine: cycles, cache hits, cache misses. *)
let charged f run =
  let m = f.bmachine in
  let c0 = Machine.consumed_cycles m in
  let h0, m0 = Cache.stats (Machine.cache m) in
  let r = run () in
  let h1, m1 = Cache.stats (Machine.cache m) in
  (r, (Machine.consumed_cycles m - c0, h1 - h0, m1 - m0))

(* One budget: reset both fixtures, run the oracle on [fa] and the
   executor on [fb], and demand identical results, charges and scratch
   memory. *)
let agree_at ~what ~regs_init ~gas_cycles fa fb prog prepared =
  reset fa;
  reset fb;
  let ra, ca =
    charged fa (fun () ->
        Interp.run (block_env ~gas_cycles fa) ~regs_init prog)
  in
  let rb, cb =
    charged fb (fun () ->
        Exec.run (block_env ~gas_cycles fb) ~regs_init prepared)
  in
  let what = Printf.sprintf "%s, gas %d" what gas_cycles in
  check_results_equal ~what ra rb;
  let cycles_a, hits_a, misses_a = ca and cycles_b, hits_b, misses_b = cb in
  if cycles_a <> cycles_b then
    QCheck.Test.fail_reportf "%s: machine cycle meters diverged" what;
  if (hits_a, misses_a) <> (hits_b, misses_b) then
    QCheck.Test.fail_reportf "%s: cache hit/miss counts diverged" what;
  let scratch f =
    Memory.read_string (Machine.mem f.bmachine) ~addr:f.bscratch.Memory.base
      ~len:scratch_len
  in
  if scratch fa <> scratch fb then
    QCheck.Test.fail_reportf "%s: scratch memory diverged" what;
  ra

let block_case seed =
  let rng = Rng.create (seed + 41) in
  let fa = block_fixture seed and fb = block_fixture seed in
  let p = gen_block_program rng fa in
  (rng, fa, fb, p)

(* Budgets that move the kill: a run under budget [g] stops just before
   the first instruction whose starting spend exceeds [g] (or at a gas
   probe that finds it exceeded), reporting that spend as [cycles]; so
   chaining [g := cycles] from 0 visits every kill point in turn. *)
let kill_points run =
  let rec go g acc =
    let r = run g in
    match r.Interp.outcome with
    | Interp.Killed Isa.Gas_exhausted when r.Interp.cycles > g ->
      go r.Interp.cycles (r.Interp.cycles :: acc)
    | _ -> acc
  in
  go 0 []

(* Every budget from 0 to the full cost for short programs; otherwise
   every kill point and its neighbours. *)
let sweep_budgets ~full run =
  if full <= 100 then List.init (full + 2) Fun.id
  else
    List.sort_uniq compare
      (0 :: full
       :: List.concat_map (fun k -> [ k - 1; k; k + 1 ]) (kill_points run))

let prop_gas_sweep =
  QCheck.Test.make ~name:"gas sweep: every kill point = interpreter" ~count:500
    ~long_factor:20 (QCheck.int_bound 1_000_000_000) (fun seed ->
      let rng, fa, fb, p = block_case seed in
      let regs_init = gen_regs_init rng in
      List.iter
        (fun (what, prog) ->
           let prepared = Exec.prepare prog in
           let r =
             agree_at ~what ~regs_init ~gas_cycles:Interp.default_gas fa fb
               prog prepared
           in
           if r.Interp.outcome = Interp.Killed Isa.Gas_exhausted then
             QCheck.Test.fail_reportf "%s: generated program does not terminate"
               what;
           let full = r.Interp.cycles in
           let oracle g =
             reset fa;
             Interp.run (block_env ~gas_cycles:g fa) ~regs_init prog
           in
           List.iter
             (fun gas_cycles ->
                ignore
                  (agree_at ~what ~regs_init ~gas_cycles fa fb prog prepared))
             (sweep_budgets ~full oracle))
        (block_variants p);
      true)

(* A kernel DILP call hands the transfer the caller's register file as
   Interp holds it: the r0 slot carries what [regs_init] put there, and
   what the transfer writes there is what the run returns. *)
let test_dilp_sees_r0 () =
  let p =
    Program.make ~name:"dilp-r0"
      [| Isa.Li (Isa.reg_arg3, 4); Isa.Call Isa.K_dilp; Isa.Mov (7, 0);
         Isa.Halt |]
  in
  let run exec =
    let f = block_fixture 0 in
    let seen = ref (-1) in
    let env =
      {
        (block_env f) with
        Interp.allowed_calls = [ Isa.K_dilp ];
        dilp =
          (fun ~id:_ ~src:_ ~dst:_ ~len:_ ~regs ->
             seen := regs.(0);
             regs.(0) <- 99;
             true);
      }
    in
    let r = exec env in
    (!seen, r)
  in
  let regs_init = [ (0, 77) ] in
  let seen_a, ra = run (fun env -> Interp.run env ~regs_init p) in
  let seen_b, rb =
    run (fun env -> Exec.run env ~regs_init (Exec.prepare p))
  in
  Alcotest.(check int) "transfer saw r0's slot" seen_a seen_b;
  Alcotest.(check int) "r0 still reads 0" 0 rb.Interp.regs.(7);
  Alcotest.(check int) "returned r0 slot" ra.Interp.regs.(0) rb.Interp.regs.(0);
  check_results_equal ~what:"dilp-r0" ra rb

(* With an unlimited cycle budget only [Interp.max_steps] stops a loop.
   The loop's block is 3 instructions long and 3 does not divide
   max_steps, so the last iteration no longer fits a whole block and
   the executor must step it. *)
let test_max_steps_boundary () =
  let p =
    Program.make ~name:"spin"
      [| Isa.Addi (1, 1, 1); Isa.Addi (2, 2, 3); Isa.Jmp 0 |]
  in
  let fa = block_fixture 0 and fb = block_fixture 0 in
  let r =
    agree_at ~what:"spin" ~regs_init:[] ~gas_cycles:max_int fa fb p
      (Exec.prepare p)
  in
  Alcotest.(check bool) "killed for steps" true
    (r.Interp.outcome = Interp.Killed Isa.Gas_exhausted);
  Alcotest.(check int) "exactly max_steps instructions" Interp.max_steps
    r.Interp.insns

let () =
  Alcotest.run "differential"
    [
      ( "vm",
        [
          QCheck_alcotest.to_alcotest prop_sandboxed_equals_unsafe;
          QCheck_alcotest.to_alcotest prop_sandbox_adds_static_checks;
        ] );
      ( "dilp",
        [
          QCheck_alcotest.to_alcotest prop_dilp_matches_sequential;
          QCheck_alcotest.to_alcotest prop_dilp_matches_baseline_passes;
        ] );
      ( "backends",
        [
          QCheck_alcotest.to_alcotest prop_backends_agree;
          QCheck_alcotest.to_alcotest prop_dilp_backends_agree;
          QCheck_alcotest.to_alcotest prop_dilp_kernels_agree;
          QCheck_alcotest.to_alcotest prop_dpf_backends_agree;
        ] );
      ( "blocks",
        [
          QCheck_alcotest.to_alcotest prop_gas_sweep;
          Alcotest.test_case "dilp sees r0" `Quick test_dilp_sees_r0;
          Alcotest.test_case "max_steps boundary" `Quick
            test_max_steps_boundary;
        ] );
    ]

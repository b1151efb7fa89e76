(* Download-time static analysis: CFG construction, abstract
   interpretation, check elision, and the static execution bound.

   The central soundness property is differential: for random verified
   programs, the absint-optimized sandboxed run must be observably
   identical to the fully checked sandboxed run — same outcome, same
   architectural registers, same memory — with the cycle and
   instruction counts differing by exactly the elided checks (each
   check is one instruction costing base + sandboxed-extra cycles).
   Nothing else may change: checks are dropped, never widened or
   moved. *)

module Isa = Ash_vm.Isa
module Program = Ash_vm.Program
module Verify = Ash_vm.Verify
module Sandbox = Ash_vm.Sandbox
module Absint = Ash_vm.Absint
module Cfg = Ash_vm.Cfg
module Interp = Ash_vm.Interp
module Machine = Ash_sim.Machine
module Memory = Ash_sim.Memory
module Costs = Ash_sim.Costs
module Rng = Ash_util.Rng
module Engine = Ash_sim.Engine
module Kernel = Ash_kern.Kernel

let prog insns = Program.make ~name:"absint-test" (Array.of_list insns)

let check_cost =
  (* Every check instruction has base cost 1 plus the sandboxed-extra
     charge; the differential invariant below depends on it. *)
  Isa.base_cycles (Isa.Check_div 0)
  + Costs.decstation.Ash_sim.Costs.sandboxed_insn_extra_cycles

(* ------------------------------------------------------------------ *)
(* CFG                                                                 *)
(* ------------------------------------------------------------------ *)

(* 0: li r7, 0
   1: bgeu r7, r6, 5      (exit test)
   2: addi r7, r7, 1
   3: st32 r7, 28, 0
   4: jmp 1               (back edge)
   5: commit *)
let loopy =
  prog
    [ Isa.Li (7, 0);
      Isa.Bgeu (7, 6, 5);
      Isa.Addi (7, 7, 1);
      Isa.St32 (7, Isa.reg_msg_addr, 0);
      Isa.Jmp 1;
      Isa.Commit ]

let test_cfg_blocks () =
  let cfg = Cfg.build loopy in
  (* Blocks: [0], [1], [2-4], [5]. *)
  Alcotest.(check int) "block count" 4 (Array.length cfg.Cfg.blocks);
  let b_head = cfg.Cfg.block_of.(1) and b_tail = cfg.Cfg.block_of.(2) in
  Alcotest.(check bool) "head has two preds" true
    (List.length cfg.Cfg.blocks.(b_head).Cfg.preds = 2);
  Alcotest.(check bool) "head dominates tail" true
    (Cfg.dominates cfg b_head b_tail);
  Alcotest.(check bool) "tail does not dominate head" false
    (Cfg.dominates cfg b_tail b_head);
  (match Cfg.back_edges cfg with
   | [ (t, h) ] ->
     Alcotest.(check int) "back edge tail" b_tail t;
     Alcotest.(check int) "back edge head" b_head h
   | es -> Alcotest.failf "expected one back edge, got %d" (List.length es));
  Alcotest.(check bool) "all blocks reachable" true
    (List.init 4 Fun.id |> List.for_all (Cfg.reachable cfg))

let test_cfg_indirect_jump_conservative () =
  let p = prog [ Isa.Li (5, 0); Isa.Jr 5; Isa.Commit ] in
  let cfg = Cfg.build p in
  Alcotest.(check bool) "flagged indirect" true cfg.Cfg.has_indirect

(* ------------------------------------------------------------------ *)
(* Elision decisions                                                   *)
(* ------------------------------------------------------------------ *)

(* remote_add-shaped: runt guard, then header loads + a store. *)
let guarded_adder =
  prog
    [ Isa.Li (6, 12);
      Isa.Bltu (Isa.reg_msg_len, 6, 9);
      Isa.Ld32 (5, Isa.reg_msg_addr, 0);
      Isa.Ld32 (6, Isa.reg_msg_addr, 4);
      Isa.Ld32 (7, Isa.reg_msg_addr, 8);
      Isa.Add (5, 5, 6);
      Isa.St32 (5, Isa.reg_msg_addr, 0);
      Isa.Commit;
      Isa.Halt;
      Isa.Abort ]

let test_guard_elides_msg_accesses () =
  let a = Absint.analyze guarded_adder in
  List.iter
    (fun i ->
       Alcotest.(check bool) (Printf.sprintf "insn %d elided" i) true
         a.Absint.elide.(i))
    [ 2; 3; 4; 6 ];
  Alcotest.(check int) "four checks elided" 4 (Absint.elided_checks a)

let test_no_guard_keeps_checks () =
  let p =
    prog
      [ Isa.Ld32 (5, Isa.reg_msg_addr, 0);
        Isa.Ld32 (6, Isa.reg_msg_addr, 4);
        Isa.Commit ]
  in
  let a = Absint.analyze p in
  Alcotest.(check int) "nothing provable without a guard" 0
    (Absint.elided_checks a)

let test_window_covers_repeat_access () =
  (* Loads through an arbitrary base register: the first check proves
     the window resident, the identical second access needs no check. *)
  let p =
    prog
      [ Isa.Li (9, 0x5000);
        Isa.Ld32 (5, 9, 0);
        Isa.Ld32 (6, 9, 0);
        Isa.Ld16 (7, 9, 2);
        Isa.Commit ]
  in
  let a = Absint.analyze p in
  Alcotest.(check bool) "first access keeps its check" false
    a.Absint.elide.(1);
  Alcotest.(check bool) "repeat access elided" true a.Absint.elide.(2);
  Alcotest.(check bool) "contained narrower access elided" true
    a.Absint.elide.(3)

let test_div_elision () =
  let p =
    prog
      [ Isa.Li (6, 5);
        Isa.Divu (5, 7, 6);
        Isa.Remu (5, 7, 8);
        Isa.Commit ]
  in
  let a = Absint.analyze p in
  Alcotest.(check bool) "constant nonzero divisor elided" true
    a.Absint.elide.(1);
  Alcotest.(check bool) "unknown divisor kept" false a.Absint.elide.(2)

let test_branch_refinement_feeds_divisor () =
  (* beq r6, r0 -> exit; on the fallthrough r6 is provably nonzero. *)
  let p =
    prog
      [ Isa.Beq (6, Isa.reg_zero, 3);
        Isa.Divu (5, 7, 6);
        Isa.Commit;
        Isa.Abort ]
  in
  let a = Absint.analyze p in
  Alcotest.(check bool) "refined divisor elided" true a.Absint.elide.(1)

(* ------------------------------------------------------------------ *)
(* Static bound                                                        *)
(* ------------------------------------------------------------------ *)

let fixture seed =
  let machine = Machine.create Costs.decstation in
  let mem = Machine.mem machine in
  let msg = Memory.alloc mem ~name:"msg" 64 in
  let scratch = Memory.alloc mem ~name:"scratch" 256 in
  let payload = Bytes.create 64 in
  Rng.fill_bytes (Rng.create seed) payload;
  Memory.blit_from_bytes mem ~src:payload ~src_off:0 ~dst:msg.Memory.base
    ~len:64;
  (machine, msg, scratch)

let run_on ?(gas = 10_000_000) (machine, msg, _) program =
  let env =
    {
      Interp.machine;
      msg_addr = msg.Memory.base;
      msg_len = 64;
      allowed_calls = Isa.[ K_msg_read8; K_msg_read16; K_msg_read32;
                            K_msg_write32; K_msg_len; K_send ];
      dilp = (fun ~id:_ ~src:_ ~dst:_ ~len:_ ~regs:_ -> false);
      send = ignore;
      gas_cycles = gas;
    }
  in
  Interp.run env program

(* A 16-iteration summing loop over the first 64 message bytes. *)
let counted_loop =
  prog
    [ Isa.Li (6, 64);
      Isa.Bltu (Isa.reg_msg_len, 6, 13);
      Isa.Li (7, 0);
      Isa.Li (16, 0);
      Isa.Li (6, 61);
      Isa.Bgeu (7, 6, 11);
      Isa.Add (9, Isa.reg_msg_addr, 7);
      Isa.Ld32 (5, 9, 0);
      Isa.Add (16, 16, 5);
      Isa.Addi (7, 7, 4);
      Isa.Jmp 4;
      Isa.St32 (16, Isa.reg_msg_addr, 0);
      Isa.Commit;
      Isa.Abort ]

let test_static_bound_covers_actual_run () =
  let sp, stats = Sandbox.apply ~absint:true counted_loop in
  (match stats.Sandbox.static_bound with
   | None -> Alcotest.fail "counted loop should be statically bounded"
   | Some b ->
     let r = run_on (fixture 3) sp in
     Alcotest.(check bool) "committed" true (r.Interp.outcome = Interp.Committed);
     Alcotest.(check bool)
       (Printf.sprintf "bound %d >= actual %d" b r.Interp.cycles)
       true
       (b >= r.Interp.cycles));
  Alcotest.(check bool) "loop body check elided" true
    (stats.Sandbox.addr_checks_elided >= 1)

let test_no_bound_for_data_dependent_loop () =
  (* Loop limit comes from memory: no provable trip count. *)
  let p =
    prog
      [ Isa.Li (7, 0);
        Isa.Li (9, 0x5000);
        Isa.Ld32 (6, 9, 0);
        Isa.Bgeu (7, 6, 6);
        Isa.Addi (7, 7, 1);
        Isa.Jmp 3;
        Isa.Commit ]
  in
  let _, stats = Sandbox.apply ~absint:true p in
  Alcotest.(check (option int)) "unbounded" None stats.Sandbox.static_bound

let test_bound_elides_gas_probes () =
  let full_p, full = Sandbox.apply ~gas_checks:true counted_loop in
  let opt_p, opt = Sandbox.apply ~gas_checks:true ~absint:true counted_loop in
  Alcotest.(check int) "no probes elided without analysis" 0
    full.Sandbox.probes_elided;
  Alcotest.(check bool) "probes elided under the static bound" true
    (opt.Sandbox.probes_elided > 0);
  (* Every elided probe and check is an instruction not emitted. *)
  Alcotest.(check int) "code smaller by exactly the elisions"
    (Sandbox.checks_elided opt + opt.Sandbox.probes_elided)
    (Array.length full_p.Program.code - Array.length opt_p.Program.code);
  (* A budget smaller than the bound keeps the probes. *)
  let _, tight =
    Sandbox.apply ~absint:true ~gas_checks:true ~gas_budget:10 counted_loop
  in
  Alcotest.(check int) "tight budget keeps probes" 0 tight.Sandbox.probes_elided

let test_specialize_exit_saves_insns () =
  let full, fs = Sandbox.apply counted_loop in
  let spec, ss = Sandbox.apply ~specialize_exit:true counted_loop in
  Alcotest.(check bool) "insns saved" true (ss.Sandbox.exit_insns_saved > 0);
  Alcotest.(check int) "code smaller by exactly that"
    ss.Sandbox.exit_insns_saved
    (Array.length full.Program.code - Array.length spec.Program.code);
  Alcotest.(check int) "nothing saved by default" 0 fs.Sandbox.exit_insns_saved

(* ------------------------------------------------------------------ *)
(* Differential property: absint-optimized = fully checked             *)
(* ------------------------------------------------------------------ *)

let msg_len = 64

(* Random programs biased toward analyzable shapes: message-relative
   accesses (guarded and unguarded, in and out of bounds), constant and
   refined divisors, repeated accesses through one base register, plus
   the plain ALU/branch soup of test_differential. All branches are
   forward; a separate template covers loops. *)
let gen_program rng ~scratch_base =
  let n = 8 + Rng.int rng 28 in
  let code = Array.make n (Isa.Mov (1, 1)) in
  code.(0) <- Isa.Li (9, scratch_base);
  (* Half the programs open with a runt guard the analyzer can use. *)
  let guarded = Rng.int rng 2 = 0 in
  code.(1) <-
    (if guarded then Isa.Li (10, 4 + (4 * Rng.int rng 15))
     else Isa.Mov (10, 10));
  code.(2) <-
    (if guarded then Isa.Bltu (Isa.reg_msg_len, 10, n - 1)
     else Isa.Mov (10, 10));
  let rd () = 1 + Rng.int rng 8 in
  let rs () = Rng.int rng 9 in
  let i = ref 3 in
  while !i < n - 1 do
    let slot = !i in
    (match Rng.int rng 14 with
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
       code.(slot) <-
         (match Rng.int rng 4 with
          | 0 -> Isa.Addi (rd (), rs (), Rng.int rng 512 - 256)
          | 1 -> Isa.Andi (rd (), rs (), Rng.int rng 0x10000)
          | 2 -> Isa.Ori (rd (), rs (), Rng.int rng 0x10000)
          | _ -> Isa.Xori (rd (), rs (), Rng.int rng 0x10000))
     | 3 ->
       code.(slot) <-
         (if Rng.int rng 2 = 0 then Isa.Sll (rd (), rs (), Rng.int rng 32)
          else Isa.Srl (rd (), rs (), Rng.int rng 32))
     | 4 | 5 ->
       (* Scratch access through r9; repeats make windows pay off. *)
       let w = [| 1; 2; 4 |].(Rng.int rng 3) in
       let off = w * Rng.int rng 4 in
       code.(slot) <-
         (match (w, Rng.int rng 2) with
          | 1, 0 -> Isa.Ld8 (rd (), 9, off)
          | 1, _ -> Isa.St8 (rs (), 9, off)
          | 2, 0 -> Isa.Ld16 (rd (), 9, off)
          | 2, _ -> Isa.St16 (rs (), 9, off)
          | _, 0 -> Isa.Ld32 (rd (), 9, off)
          | _, _ -> Isa.St32 (rs (), 9, off))
     | 6 | 7 ->
       (* Message-relative access: mostly in range, sometimes past the
          end (faults identically with or without absint), inside the
          guard window when one exists. *)
       let off =
         match Rng.int rng 8 with
         | 0 -> msg_len + (4 * Rng.int rng 4) (* out of bounds *)
         | _ -> 4 * Rng.int rng 15
       in
       code.(slot) <-
         (if Rng.int rng 2 = 0 then Isa.Ld32 (rd (), Isa.reg_msg_addr, off)
          else Isa.St32 (rs (), Isa.reg_msg_addr, off))
     | 8 ->
       (* Guarded-constant or unknown divisor. *)
       if Rng.int rng 2 = 0 && slot + 1 < n - 1 then begin
         code.(slot) <- Isa.Li (11, 1 + Rng.int rng 7);
         code.(slot + 1) <-
           (if Rng.int rng 2 = 0 then Isa.Divu (rd (), rs (), 11)
            else Isa.Remu (rd (), rs (), 11));
         incr i
       end
       else
         code.(slot) <-
           (if Rng.int rng 2 = 0 then Isa.Divu (rd (), rs (), rs ())
            else Isa.Remu (rd (), rs (), rs ()))
     | 9 when slot + 1 < n - 1 ->
       let target = slot + 1 + Rng.int rng (n - slot - 1) in
       let a = rs () and b = rs () in
       code.(slot) <-
         (match Rng.int rng 4 with
          | 0 -> Isa.Beq (a, b, target)
          | 1 -> Isa.Bne (a, b, target)
          | 2 -> Isa.Bltu (a, b, target)
          | _ -> Isa.Bgeu (a, b, target))
     | 10 ->
       code.(slot) <-
         (match Rng.int rng 3 with
          | 0 -> Isa.Cksum32 (rd (), rs ())
          | 1 -> Isa.Bswap16 (rd (), rs ())
          | _ -> Isa.Bswap32 (rd (), rs ()))
     | _ -> code.(slot) <- Isa.Mov (rd (), rs ()))
    ;
    incr i
  done;
  code.(n - 1) <-
    (match Rng.int rng 3 with
     | 0 -> Isa.Commit
     | 1 -> Isa.Abort
     | _ -> Isa.Halt);
  Program.make ~name:(Printf.sprintf "absdiff-%d" n) code

let region_contents (machine, _, _) (r : Memory.region) =
  Memory.read_string (Machine.mem machine) ~addr:r.Memory.base
    ~len:r.Memory.len

(* The exact invariant: full and optimized sandboxed runs are identical
   except that the optimized one executes [d] fewer check instructions,
   for [d] = the difference in dynamic check counts; every check is one
   instruction and [check_cost] cycles. *)
let check_differential ~what seed p =
  (match Verify.check p with
   | Ok _ -> ()
   | Error e ->
     QCheck.Test.fail_reportf "%s: generated program rejected: %a" what
       Verify.pp_error e);
  let full_p, _ = Sandbox.apply p in
  let opt_p, stats = Sandbox.apply ~absint:true p in
  let fa = fixture seed and fb = fixture seed in
  let r_full = run_on fa full_p in
  let r_opt = run_on fb opt_p in
  if r_full.Interp.outcome <> r_opt.Interp.outcome then
    QCheck.Test.fail_reportf "%s: outcomes differ: %s" what
      (Format.asprintf "%a" Program.pp p);
  for r = 0 to 30 do
    if r_full.Interp.regs.(r) <> r_opt.Interp.regs.(r) then
      QCheck.Test.fail_reportf "%s: r%d differs: %d vs %d" what r
        r_full.Interp.regs.(r)
        r_opt.Interp.regs.(r)
  done;
  let _, _, scr_a = fa and _, _, scr_b = fb in
  let _, msg_a, _ = fa and _, msg_b, _ = fb in
  if region_contents fa scr_a <> region_contents fb scr_b then
    QCheck.Test.fail_reportf "%s: scratch memory diverged" what;
  if region_contents fa msg_a <> region_contents fb msg_b then
    QCheck.Test.fail_reportf "%s: message memory diverged" what;
  let d_checks = r_full.Interp.check_insns - r_opt.Interp.check_insns in
  if d_checks < 0 then
    QCheck.Test.fail_reportf "%s: optimized ran MORE checks" what;
  if r_full.Interp.insns - r_opt.Interp.insns <> d_checks then
    QCheck.Test.fail_reportf
      "%s: instruction delta %d is not the check delta %d" what
      (r_full.Interp.insns - r_opt.Interp.insns)
      d_checks;
  if r_full.Interp.cycles - r_opt.Interp.cycles <> check_cost * d_checks then
    QCheck.Test.fail_reportf "%s: cycle delta %d != %d checks * %d" what
      (r_full.Interp.cycles - r_opt.Interp.cycles)
      d_checks check_cost;
  (* The static promise must not undershoot the dynamic savings on any
     single run: elided static sites can only be hit >= 0 times. *)
  if Sandbox.checks_elided stats = 0 && d_checks > 0 then
    QCheck.Test.fail_reportf "%s: dynamic savings without static elision"
      what;
  (* And when a bound exists it covers this run. *)
  (match stats.Sandbox.static_bound with
   | Some b when r_opt.Interp.cycles > b ->
     QCheck.Test.fail_reportf "%s: static bound %d < actual %d" what b
       r_opt.Interp.cycles
   | _ -> ());
  true

let prop_absint_differential =
  QCheck.Test.make ~name:"absint sandbox = full sandbox (1000 programs)"
    ~count:1000 (QCheck.int_bound 1_000_000_000) (fun seed ->
      let rng = Rng.create (seed + 211) in
      let _, _, scratch = fixture seed in
      let p = gen_program rng ~scratch_base:scratch.Memory.base in
      check_differential ~what:"straightline" seed p)

(* Loop template with randomized guard, limit and step: exercises
   widening, back-edge refinement and the trip-count machinery. *)
let gen_loop rng =
  let step = [| 1; 2; 4; 8 |].(Rng.int rng 4) in
  let lim = Rng.int rng 61 in
  let guard = 4 + (4 * Rng.int rng 16) in
  (* Body access offset: in bounds iff the guard covers lim + 4. *)
  prog
    [ Isa.Li (6, guard);
      Isa.Bltu (Isa.reg_msg_len, 6, 13);
      Isa.Li (7, 0);
      Isa.Li (16, 0);
      Isa.Li (6, lim);
      Isa.Bgeu (7, 6, 11);
      Isa.Add (9, Isa.reg_msg_addr, 7);
      Isa.Ld32 (5, 9, 0);
      Isa.Add (16, 16, 5);
      Isa.Addi (7, 7, step);
      Isa.Jmp 4;
      Isa.St32 (16, Isa.reg_msg_addr, 0);
      Isa.Commit;
      Isa.Abort ]

let prop_loop_differential =
  QCheck.Test.make ~name:"counted loops: differential + bound soundness"
    ~count:300 (QCheck.int_bound 1_000_000_000) (fun seed ->
      let rng = Rng.create (seed + 977) in
      let p = gen_loop rng in
      check_differential ~what:"loop" seed p)

(* ------------------------------------------------------------------ *)
(* Kernel integration                                                  *)
(* ------------------------------------------------------------------ *)

let mk_kernel () =
  let e = Engine.create () in
  Kernel.create e Costs.decstation ~name:"k"

let test_kernel_cache_keys_on_absint () =
  let k = mk_kernel () in
  let p = guarded_adder in
  let a = Kernel.download_ash k ~absint:true p in
  let b = Kernel.download_ash k ~absint:false p in
  let c = Kernel.download_ash k ~absint:true p in
  (match (a, b, c) with
   | Ok _, Ok _, Ok _ -> ()
   | _ -> Alcotest.fail "downloads failed");
  let s = Kernel.handler_cache_stats k in
  Alcotest.(check int) "two distinct artifacts" 2 s.Kernel.entries;
  Alcotest.(check int) "third download hits" 1 s.Kernel.hits;
  Alcotest.(check bool) "cache stats expose elision" true
    (s.Kernel.checks_elided >= 4);
  Alcotest.(check bool) "cache stats expose static bounds" true
    (s.Kernel.static_bounded >= 1)

let test_kernel_absint_default_toggle () =
  Kernel.set_absint_default false;
  let k = mk_kernel () in
  (match Kernel.download_ash k guarded_adder with
   | Ok id ->
     (match Kernel.ash_sandbox_stats k id with
      | Some st ->
        Alcotest.(check int) "default-off elides nothing" 0
          (Sandbox.checks_elided st)
      | None -> Alcotest.fail "expected sandbox stats")
   | Error _ -> Alcotest.fail "download failed");
  Kernel.set_absint_default true;
  let k2 = mk_kernel () in
  (match Kernel.download_ash k2 guarded_adder with
   | Ok id ->
     (match Kernel.ash_sandbox_stats k2 id with
      | Some st ->
        Alcotest.(check int) "default-on elides" 4 (Sandbox.checks_elided st)
      | None -> Alcotest.fail "expected sandbox stats")
   | Error _ -> Alcotest.fail "download failed")

let () =
  Alcotest.run "absint"
    [
      ( "cfg",
        [
          Alcotest.test_case "blocks and dominators" `Quick test_cfg_blocks;
          Alcotest.test_case "indirect jump conservative" `Quick
            test_cfg_indirect_jump_conservative;
        ] );
      ( "elision",
        [
          Alcotest.test_case "guard elides msg accesses" `Quick
            test_guard_elides_msg_accesses;
          Alcotest.test_case "no guard keeps checks" `Quick
            test_no_guard_keeps_checks;
          Alcotest.test_case "window covers repeats" `Quick
            test_window_covers_repeat_access;
          Alcotest.test_case "divisor facts" `Quick test_div_elision;
          Alcotest.test_case "branch refinement" `Quick
            test_branch_refinement_feeds_divisor;
        ] );
      ( "bound",
        [
          Alcotest.test_case "bound covers actual run" `Quick
            test_static_bound_covers_actual_run;
          Alcotest.test_case "data-dependent loop unbounded" `Quick
            test_no_bound_for_data_dependent_loop;
          Alcotest.test_case "bound elides gas probes" `Quick
            test_bound_elides_gas_probes;
          Alcotest.test_case "specialized exit" `Quick
            test_specialize_exit_saves_insns;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_absint_differential;
          QCheck_alcotest.to_alcotest prop_loop_differential;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "cache keys on absint" `Quick
            test_kernel_cache_keys_on_absint;
          Alcotest.test_case "default toggle" `Quick
            test_kernel_absint_default_toggle;
        ] );
    ]

(* Closure-compilation executor (§IV-A "dynamic code generation").

   [compile] translates a program once into an array of OCaml closures —
   one per instruction — so per-packet execution pays no opcode dispatch,
   and records the program's basic blocks so [run] pays the per-step
   checks once per block instead of once per instruction. The accounting
   contract with {!Interp} is exact: for any program and machine state,
   [run] produces the same {!Interp.result} (outcome, registers, insn /
   check-insn / cycle counts) and drives the machine's cycle meter and
   cache model through the same sequence of charges and accesses. Every
   deviation from interp.ml's step order here is a bug. *)

module Machine = Ash_sim.Machine
module Memory = Ash_sim.Memory
module Costs = Ash_sim.Costs

let mask32 v = v land 0xffff_ffff

exception Kill of Isa.violation

(* Mutable per-run state threaded through the closures. During a run
   [regs.(0)] holds 0, so closures read r0 by indexing like any other
   register; whatever [regs_init] put there waits in [r0] and is put
   back when the run ends. *)
type ctx = {
  env : Interp.env;
  m : Machine.t;
  regs : int array;
  extra : int; (* costs.sandboxed_insn_extra_cycles, fixed per machine *)
  mutable next : int;
  mutable outcome : Interp.outcome option;
  mutable insns : int;
  mutable check_insns : int;
  mutable r0 : int;
  start_cycles : int;
}

type op = ctx -> unit

type t = {
  program : Program.t;
  ops : op array;
  blocks : int array;
      (* [blocks.(pc)] is the length of the basic block [pc] leads, 0
         where no block starts *)
  max_base : int; (* largest Isa.base_cycles in the program *)
}

let spent c = Machine.consumed_cycles c.m - c.start_cycles

let charge c k = Machine.charge_cycles c.m k

(* Sandbox-inserted instructions (all base cost 1) additionally pay the
   per-check overhead and count toward [check_insns]. *)
let check_charge c =
  c.check_insns <- c.check_insns + 1;
  charge c (1 + c.extra)

let addr_ok c addr size = Memory.resident_at (Machine.mem c.m) ~addr ~size

let hide_r0 c =
  c.r0 <- c.regs.(Isa.reg_zero);
  c.regs.(Isa.reg_zero) <- 0

let show_r0 c = c.regs.(Isa.reg_zero) <- c.r0

(* Kernel-call semantics duplicated verbatim from Interp.run's [kcall];
   the allowed-calls policy is per-run, so it stays a runtime check. The
   argument registers are never r0. *)
let kcall c k =
  let env = c.env in
  if not (List.mem k env.Interp.allowed_calls) then
    raise (Kill (Isa.Call_denied k));
  let regs = c.regs in
  let a0 = regs.(Isa.reg_arg0)
  and a1 = regs.(Isa.reg_arg1)
  and a2 = regs.(Isa.reg_arg2)
  and a3 = regs.(Isa.reg_arg3) in
  let set_a0 v = regs.(Isa.reg_arg0) <- mask32 v in
  let msg_len = env.Interp.msg_len in
  let msg_addr = env.Interp.msg_addr in
  let bound off size =
    charge c 1;
    if off < 0 || size < 0 || off + size > msg_len then
      raise (Kill (Isa.Mem_fault (msg_addr + off)))
  in
  match k with
  | Isa.K_msg_len -> set_a0 msg_len
  | Isa.K_msg_read8 ->
    bound a0 1;
    set_a0 (Machine.load8 c.m (msg_addr + a0))
  | Isa.K_msg_read16 ->
    bound a0 2;
    set_a0 (Machine.load16 c.m (msg_addr + a0))
  | Isa.K_msg_read32 ->
    bound a0 4;
    set_a0 (Machine.load32 c.m (msg_addr + a0))
  | Isa.K_msg_write32 ->
    bound a0 4;
    Machine.store32 c.m (msg_addr + a0) a1
  | Isa.K_copy ->
    bound a0 a2;
    charge c 10;
    if not (addr_ok c a1 (Int.max a2 1)) then raise (Kill (Isa.Mem_fault a1));
    Machine.copy c.m ~src:(msg_addr + a0) ~dst:a1 ~len:a2
  | Isa.K_dilp ->
    bound a1 a3;
    charge c 10;
    (* The transfer sees the register file Interp would pass it, r0 slot
       included. *)
    show_r0 c;
    let ok =
      env.Interp.dilp ~id:a0 ~src:(msg_addr + a1) ~dst:a2 ~len:a3 ~regs
    in
    hide_r0 c;
    set_a0 (if ok then 1 else 0)
  | Isa.K_send ->
    charge c 10;
    if a1 < 0 || a1 > 65536 then raise (Kill (Isa.Mem_fault a0));
    let frame = Bytes.create a1 in
    (try
       Memory.blit_to_bytes (Machine.mem c.m) ~src:a0 ~dst:frame ~dst_off:0
         ~len:a1
     with Memory.Fault f -> raise (Kill (Isa.Mem_fault f.addr)));
    env.Interp.send frame

(* Closures read and write [c.regs] directly. Values are masked exactly
   where Interp's [set] masks them, except loads, constants and 0/1
   results, which are already 32-bit. Memory instructions carry no
   dispatch-time charge: the Machine accessors account for them through
   the cache model. *)
let translate_insn ~jump_map ~len (insn : Isa.insn) : op =
  match insn with
  | Isa.Li (d, v) ->
    let v = mask32 v in
    fun c -> charge c 1; c.regs.(d) <- v
  | Isa.Mov (d, s) ->
    fun c -> charge c 1; let r = c.regs in r.(d) <- mask32 r.(s)
  | Isa.Add (d, a, b) | Isa.Adds (d, a, b) ->
    (* Unsandboxed execution of a signed add that the verifier should
       have rejected behaves as unsigned here (same as Interp). *)
    fun c -> charge c 1; let r = c.regs in r.(d) <- mask32 (r.(a) + r.(b))
  | Isa.Addi (d, a, v) ->
    fun c -> charge c 1; let r = c.regs in r.(d) <- mask32 (r.(a) + v)
  | Isa.Sub (d, a, b) ->
    fun c -> charge c 1; let r = c.regs in r.(d) <- mask32 (r.(a) - r.(b))
  | Isa.Mul (d, a, b) ->
    fun c -> charge c 8; let r = c.regs in r.(d) <- mask32 (r.(a) * r.(b))
  | Isa.Divu (d, a, b) ->
    fun c ->
      charge c 35;
      let r = c.regs in
      let bv = r.(b) in
      if bv = 0 then raise (Kill Isa.Div_by_zero)
      else r.(d) <- mask32 (r.(a) / bv)
  | Isa.Remu (d, a, b) ->
    fun c ->
      charge c 35;
      let r = c.regs in
      let bv = r.(b) in
      if bv = 0 then raise (Kill Isa.Div_by_zero)
      else r.(d) <- mask32 (r.(a) mod bv)
  | Isa.And_ (d, a, b) ->
    fun c -> charge c 1; let r = c.regs in r.(d) <- mask32 (r.(a) land r.(b))
  | Isa.Or_ (d, a, b) ->
    fun c -> charge c 1; let r = c.regs in r.(d) <- mask32 (r.(a) lor r.(b))
  | Isa.Xor_ (d, a, b) ->
    fun c -> charge c 1; let r = c.regs in r.(d) <- mask32 (r.(a) lxor r.(b))
  | Isa.Andi (d, a, v) ->
    fun c -> charge c 1; let r = c.regs in r.(d) <- mask32 (r.(a) land v)
  | Isa.Ori (d, a, v) ->
    fun c -> charge c 1; let r = c.regs in r.(d) <- mask32 (r.(a) lor v)
  | Isa.Xori (d, a, v) ->
    fun c -> charge c 1; let r = c.regs in r.(d) <- mask32 (r.(a) lxor v)
  | Isa.Sll (d, a, v) ->
    let sh = v land 31 in
    fun c -> charge c 1; let r = c.regs in r.(d) <- mask32 (r.(a) lsl sh)
  | Isa.Srl (d, a, v) ->
    let sh = v land 31 in
    fun c -> charge c 1; let r = c.regs in r.(d) <- mask32 (r.(a) lsr sh)
  | Isa.Sltu (d, a, b) ->
    fun c ->
      charge c 1;
      let r = c.regs in
      r.(d) <- (if r.(a) < r.(b) then 1 else 0)
  | Isa.Ld8 (d, b, o) ->
    fun c -> let r = c.regs in r.(d) <- Machine.load8 c.m (r.(b) + o)
  | Isa.Ld16 (d, b, o) ->
    fun c -> let r = c.regs in r.(d) <- Machine.load16 c.m (r.(b) + o)
  | Isa.Ld32 (d, b, o) ->
    fun c -> let r = c.regs in r.(d) <- Machine.load32 c.m (r.(b) + o)
  | Isa.St8 (s, b, o) ->
    fun c -> let r = c.regs in Machine.store8 c.m (r.(b) + o) r.(s)
  | Isa.St16 (s, b, o) ->
    fun c -> let r = c.regs in Machine.store16 c.m (r.(b) + o) r.(s)
  | Isa.St32 (s, b, o) ->
    fun c -> let r = c.regs in Machine.store32 c.m (r.(b) + o) r.(s)
  | Isa.Beq (a, b, t) ->
    fun c -> charge c 1; let r = c.regs in if r.(a) = r.(b) then c.next <- t
  | Isa.Bne (a, b, t) ->
    fun c -> charge c 1; let r = c.regs in if r.(a) <> r.(b) then c.next <- t
  | Isa.Bltu (a, b, t) ->
    fun c -> charge c 1; let r = c.regs in if r.(a) < r.(b) then c.next <- t
  | Isa.Bgeu (a, b, t) ->
    fun c -> charge c 1; let r = c.regs in if r.(a) >= r.(b) then c.next <- t
  | Isa.Jmp t -> fun c -> charge c 1; c.next <- t
  | Isa.Jr r -> begin
      match jump_map with
      | Some map ->
        let ml = Array.length map in
        fun c ->
          charge c 1;
          let v = c.regs.(r) in
          if v >= 0 && v < ml then c.next <- map.(v)
          else raise (Kill (Isa.Wild_jump v))
      | None ->
        fun c ->
          charge c 1;
          let v = c.regs.(r) in
          if v >= 0 && v < len then c.next <- v
          else raise (Kill (Isa.Wild_jump v))
    end
  | Isa.Call k -> fun c -> charge c 1; kcall c k
  | Isa.Cksum32 (acc, s) ->
    fun c ->
      charge c 2;
      let r = c.regs in
      let sum = r.(acc) + r.(s) in
      r.(acc) <-
        mask32 (if sum > 0xffff_ffff then (sum land 0xffff_ffff) + 1 else sum)
  | Isa.Bswap16 (d, s) ->
    fun c ->
      charge c 4;
      let r = c.regs in
      r.(d) <- mask32 (Ash_util.Bytesx.bswap16 r.(s))
  | Isa.Bswap32 (d, s) ->
    fun c ->
      charge c 9;
      let r = c.regs in
      r.(d) <- mask32 (Ash_util.Bytesx.bswap32 r.(s))
  | Isa.Commit -> fun c -> charge c 1; c.outcome <- Some Interp.Committed
  | Isa.Abort -> fun c -> charge c 1; c.outcome <- Some Interp.Aborted
  | Isa.Halt -> fun c -> charge c 1; c.outcome <- Some Interp.Returned
  | Isa.Fadd _ ->
    fun c ->
      charge c 2;
      raise (Kill (Isa.Verifier_reject "floating point at runtime"))
  | Isa.Check_addr (r, o, size) ->
    fun c ->
      check_charge c;
      let addr = c.regs.(r) + o in
      if not (addr_ok c addr size) then raise (Kill (Isa.Mem_fault addr))
  | Isa.Check_div r ->
    fun c ->
      check_charge c;
      if c.regs.(r) = 0 then raise (Kill Isa.Div_by_zero)
  | Isa.Check_jump r -> begin
      match jump_map with
      | Some map ->
        let ml = Array.length map in
        fun c ->
          check_charge c;
          let v = c.regs.(r) in
          if not ((v >= 0 && v < ml) || (v >= 0 && v < len)) then
            raise (Kill (Isa.Wild_jump v))
      | None ->
        fun c ->
          check_charge c;
          let v = c.regs.(r) in
          if not (v >= 0 && v < len) then raise (Kill (Isa.Wild_jump v))
    end
  | Isa.Gas_probe ->
    fun c ->
      check_charge c;
      if spent c > c.env.Interp.gas_cycles then raise (Kill Isa.Gas_exhausted)

(* Writes to r0 are dropped: the rare instruction that targets it puts
   the run-time 0 back, so reads of r0 stay a plain index. *)
let translate ~jump_map ~len insn =
  let op = translate_insn ~jump_map ~len insn in
  match Absint.defs insn with
  | Some ds when List.mem Isa.reg_zero ds ->
    fun c -> op c; c.regs.(Isa.reg_zero) <- 0
  | Some _ | None -> op

(* Instructions after which control does not simply fall through — or,
   for [Call], whose cost has no static bound (a [K_copy] length, a
   nested [K_dilp]). *)
let ends_block = function
  | Isa.Beq _ | Isa.Bne _ | Isa.Bltu _ | Isa.Bgeu _ | Isa.Jmp _ | Isa.Jr _
  | Isa.Call _ | Isa.Commit | Isa.Abort | Isa.Halt | Isa.Fadd _ -> true
  | _ -> false

(* Leaders are pc 0, every branch target, every jump-map entry and every
   pc after a block-ending instruction; a block runs from its leader to
   the next leader or the end of the program. *)
let block_lengths (p : Program.t) =
  let code = p.Program.code in
  let len = Array.length code in
  let leader = Array.make len false in
  let mark pc = if pc >= 0 && pc < len then leader.(pc) <- true in
  mark 0;
  Array.iteri
    (fun i insn ->
       Option.iter mark (Isa.branch_target insn);
       if ends_block insn then mark (i + 1))
    code;
  Option.iter (Array.iter mark) p.Program.jump_map;
  let blocks = Array.make len 0 in
  Array.iteri
    (fun pc is_leader ->
       if is_leader then begin
         let n = ref 1 in
         while pc + !n < len && not leader.(pc + !n) do incr n done;
         blocks.(pc) <- !n
       end)
    leader;
  blocks

let compile (p : Program.t) : t =
  let code = p.Program.code in
  let len = Array.length code in
  let jump_map = p.Program.jump_map in
  {
    program = p;
    ops = Array.map (translate ~jump_map ~len) code;
    blocks = block_lengths p;
    max_base =
      Array.fold_left (fun acc insn -> max acc (Isa.base_cycles insn)) 0 code;
  }

(* The most cycles one instruction inside a block (one that does not end
   it) can charge on this machine: its base cost, a sandbox check's
   cost, or a load or store over the most cache lines a 4-byte access
   can touch, every line a miss. [run] computes it on every run, so it
   uses [Int.max], not the polymorphic [max] and its C comparison. *)
let worst_insn_cycles t (costs : Costs.t) =
  let line = costs.Costs.cache_line in
  let lines = ((4 + line - 2) / line) + 1 in
  let insn = costs.Costs.insn_cycles in
  Int.max
    (Int.max t.max_base (1 + costs.Costs.sandboxed_insn_extra_cycles))
    (Int.max
       (insn
        + lines
          * (costs.Costs.load_extra_cycles + costs.Costs.miss_penalty_cycles))
       (insn + (lines * costs.Costs.store_extra_cycles)))

let finish c t outcome =
  show_r0 c;
  if Ash_obs.Trace.enabled () then begin
    let outcome_str, violation =
      match outcome with
      | Interp.Committed -> ("commit", None)
      | Interp.Aborted -> ("abort", None)
      | Interp.Returned -> ("return", None)
      | Interp.Killed v -> ("kill", Some v)
    in
    Ash_obs.Trace.emit
      (Ash_obs.Trace.Vm_run
         { name = t.program.Program.name; outcome = outcome_str;
           insns = c.insns; check_insns = c.check_insns;
           cycles = spent c });
    match violation with
    | Some v ->
      Ash_obs.Trace.emit
        (Ash_obs.Trace.Sandbox_violation
           { reason = Format.asprintf "%a" Isa.pp_violation v })
    | None -> ()
  end;
  {
    Interp.outcome;
    insns = c.insns;
    check_insns = c.check_insns;
    cycles = spent c;
    regs = c.regs;
  }

(* Interp checks the pc, the step count and the gas before every
   instruction. At a block leader, [run] executes the whole block of [n]
   instructions with no checks when [steps + n <= max_steps] and
   [spent + n * wmax <= gas]: each of the first n-1 instructions charges
   at most [wmax], so before every instruction of the block the step
   count is within bound and at most [spent + (n-1) * wmax <= gas] has
   been spent — none of Interp's checks could fire inside it, and the
   block ends where its last instruction sends control. Anywhere else
   (a [Jr] into a block's interior, the steps after a fallback, a block
   too close to the gas limit) it steps one instruction with the checks,
   exactly like Interp. Counts are bumped before each instruction runs,
   so a kill or fault mid-block reports Interp's counts. *)
let run (env : Interp.env) ?(regs_init = []) (t : t) : Interp.result =
  let m = env.Interp.machine in
  let costs = Machine.costs m in
  let regs = Array.make Isa.num_regs 0 in
  regs.(Isa.reg_msg_addr) <- env.Interp.msg_addr;
  regs.(Isa.reg_msg_len) <- env.Interp.msg_len;
  List.iter (fun (r, v) -> regs.(r) <- mask32 v) regs_init;
  let c =
    {
      env;
      m;
      regs;
      extra = costs.Costs.sandboxed_insn_extra_cycles;
      next = 0;
      outcome = None;
      insns = 0;
      check_insns = 0;
      r0 = 0;
      start_cycles = Machine.consumed_cycles m;
    }
  in
  hide_r0 c;
  let ops = t.ops and blocks = t.blocks in
  let nops = Array.length ops in
  let gas = env.Interp.gas_cycles in
  let wmax = worst_insn_cycles t costs in
  let pc = ref 0 and steps = ref 0 in
  match
    while c.outcome == None do
      let p = !pc in
      if p < 0 || p >= nops then raise (Kill (Isa.Wild_jump p));
      let n = blocks.(p) in
      if n > 0 && !steps + n <= Interp.max_steps && spent c + (n * wmax) <= gas
      then begin
        steps := !steps + n;
        c.next <- p + n;
        (* Blocks never extend past the program. *)
        for i = p to p + n - 1 do
          c.insns <- c.insns + 1;
          (Array.unsafe_get ops i) c
        done
      end
      else begin
        incr steps;
        if !steps > Interp.max_steps then raise (Kill Isa.Gas_exhausted);
        if spent c > gas then raise (Kill Isa.Gas_exhausted);
        c.insns <- c.insns + 1;
        c.next <- p + 1;
        ops.(p) c
      end;
      pc := c.next
    done
  with
  | () -> (
      match c.outcome with Some o -> finish c t o | None -> assert false)
  | exception Kill v -> finish c t (Interp.Killed v)
  | exception Memory.Fault f ->
    finish c t (Interp.Killed (Isa.Mem_fault f.addr))

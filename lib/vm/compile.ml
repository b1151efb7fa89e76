(* Closure-compilation executor (§IV-A "dynamic code generation").

   [compile] translates a program once into an array of OCaml closures —
   one per instruction — so per-packet execution pays no opcode dispatch.
   The accounting contract with {!Interp} is exact: for any program and
   machine state, [run] produces the same {!Interp.result} (outcome,
   registers, insn / check-insn / cycle counts) and drives the machine's
   cycle meter and cache model through the same sequence of charges and
   accesses. Every deviation from interp.ml's step order here is a bug. *)

module Machine = Ash_sim.Machine
module Memory = Ash_sim.Memory

let mask32 v = v land 0xffff_ffff

exception Kill of Isa.violation

(* Mutable per-run state threaded through the closures. *)
type ctx = {
  env : Interp.env;
  m : Machine.t;
  regs : int array;
  extra : int; (* costs.sandboxed_insn_extra_cycles, fixed per machine *)
  mutable next : int;
  mutable outcome : Interp.outcome option;
  mutable insns : int;
  mutable check_insns : int;
  start_cycles : int;
}

type op = ctx -> unit

type t = { program : Program.t; ops : op array }

let program t = t.program

(* Register accessors are specialised at compile time: reads of r0 fold
   to the constant 0 and writes to r0 fold away, exactly matching the
   interpreter's [get]/[set]. *)
let rd r : int array -> int =
  if r = Isa.reg_zero then fun _ -> 0 else fun regs -> regs.(r)

let wr r : int array -> int -> unit =
  if r = Isa.reg_zero then fun _ _ -> ()
  else fun regs v -> regs.(r) <- mask32 v

let spent c = Machine.consumed_cycles c.m - c.start_cycles

let charge c k = Machine.charge_cycles c.m k

(* Sandbox-inserted instructions (all base cost 1) additionally pay the
   per-check overhead and count toward [check_insns]. *)
let check_charge c =
  c.check_insns <- c.check_insns + 1;
  charge c (1 + c.extra)

let addr_ok c addr size = Memory.resident_at (Machine.mem c.m) ~addr ~size

(* Kernel-call semantics duplicated verbatim from Interp.run's [kcall];
   the allowed-calls policy is per-run, so it stays a runtime check. *)
let kcall c k =
  let env = c.env in
  if not (List.mem k env.Interp.allowed_calls) then
    raise (Kill (Isa.Call_denied k));
  let regs = c.regs in
  let get r = if r = Isa.reg_zero then 0 else regs.(r) in
  let set r v = if r <> Isa.reg_zero then regs.(r) <- mask32 v in
  let a0 = get Isa.reg_arg0
  and a1 = get Isa.reg_arg1
  and a2 = get Isa.reg_arg2
  and a3 = get Isa.reg_arg3 in
  let msg_len = env.Interp.msg_len in
  let msg_addr = env.Interp.msg_addr in
  let bound off size =
    charge c 1;
    if off < 0 || size < 0 || off + size > msg_len then
      raise (Kill (Isa.Mem_fault (msg_addr + off)))
  in
  match k with
  | Isa.K_msg_len -> set Isa.reg_arg0 msg_len
  | Isa.K_msg_read8 ->
    bound a0 1;
    set Isa.reg_arg0 (Machine.load8 c.m (msg_addr + a0))
  | Isa.K_msg_read16 ->
    bound a0 2;
    set Isa.reg_arg0 (Machine.load16 c.m (msg_addr + a0))
  | Isa.K_msg_read32 ->
    bound a0 4;
    set Isa.reg_arg0 (Machine.load32 c.m (msg_addr + a0))
  | Isa.K_msg_write32 ->
    bound a0 4;
    Machine.store32 c.m (msg_addr + a0) a1
  | Isa.K_copy ->
    bound a0 a2;
    charge c 10;
    if not (addr_ok c a1 (max a2 1)) then raise (Kill (Isa.Mem_fault a1));
    Machine.copy c.m ~src:(msg_addr + a0) ~dst:a1 ~len:a2
  | Isa.K_dilp ->
    bound a1 a3;
    charge c 10;
    let ok =
      env.Interp.dilp ~id:a0 ~src:(msg_addr + a1) ~dst:a2 ~len:a3 ~regs
    in
    set Isa.reg_arg0 (if ok then 1 else 0)
  | Isa.K_send ->
    charge c 10;
    if a1 < 0 || a1 > 65536 then raise (Kill (Isa.Mem_fault a0));
    let frame = Bytes.create a1 in
    (try
       Memory.blit_to_bytes (Machine.mem c.m) ~src:a0 ~dst:frame ~dst_off:0
         ~len:a1
     with Memory.Fault f -> raise (Kill (Isa.Mem_fault f.addr)));
    env.Interp.send frame

let translate ~jump_map ~len (insn : Isa.insn) : op =
  match insn with
  | Isa.Li (d, v) ->
    let wd = wr d in
    fun c -> charge c 1; wd c.regs v
  | Isa.Mov (d, s) ->
    let wd = wr d and rs = rd s in
    fun c -> charge c 1; wd c.regs (rs c.regs)
  | Isa.Add (d, a, b) ->
    let wd = wr d and ra = rd a and rb = rd b in
    fun c -> charge c 1; wd c.regs (ra c.regs + rb c.regs)
  | Isa.Addi (d, a, v) ->
    let wd = wr d and ra = rd a in
    fun c -> charge c 1; wd c.regs (ra c.regs + v)
  | Isa.Sub (d, a, b) ->
    let wd = wr d and ra = rd a and rb = rd b in
    fun c -> charge c 1; wd c.regs (ra c.regs - rb c.regs)
  | Isa.Mul (d, a, b) ->
    let wd = wr d and ra = rd a and rb = rd b in
    fun c -> charge c 8; wd c.regs (ra c.regs * rb c.regs)
  | Isa.Divu (d, a, b) ->
    let wd = wr d and ra = rd a and rb = rd b in
    fun c ->
      charge c 35;
      let bv = rb c.regs in
      if bv = 0 then raise (Kill Isa.Div_by_zero)
      else wd c.regs (ra c.regs / bv)
  | Isa.Remu (d, a, b) ->
    let wd = wr d and ra = rd a and rb = rd b in
    fun c ->
      charge c 35;
      let bv = rb c.regs in
      if bv = 0 then raise (Kill Isa.Div_by_zero)
      else wd c.regs (ra c.regs mod bv)
  | Isa.And_ (d, a, b) ->
    let wd = wr d and ra = rd a and rb = rd b in
    fun c -> charge c 1; wd c.regs (ra c.regs land rb c.regs)
  | Isa.Or_ (d, a, b) ->
    let wd = wr d and ra = rd a and rb = rd b in
    fun c -> charge c 1; wd c.regs (ra c.regs lor rb c.regs)
  | Isa.Xor_ (d, a, b) ->
    let wd = wr d and ra = rd a and rb = rd b in
    fun c -> charge c 1; wd c.regs (ra c.regs lxor rb c.regs)
  | Isa.Andi (d, a, v) ->
    let wd = wr d and ra = rd a in
    fun c -> charge c 1; wd c.regs (ra c.regs land v)
  | Isa.Ori (d, a, v) ->
    let wd = wr d and ra = rd a in
    fun c -> charge c 1; wd c.regs (ra c.regs lor v)
  | Isa.Xori (d, a, v) ->
    let wd = wr d and ra = rd a in
    fun c -> charge c 1; wd c.regs (ra c.regs lxor v)
  | Isa.Sll (d, a, v) ->
    let wd = wr d and ra = rd a and sh = v land 31 in
    fun c -> charge c 1; wd c.regs (ra c.regs lsl sh)
  | Isa.Srl (d, a, v) ->
    let wd = wr d and ra = rd a and sh = v land 31 in
    fun c -> charge c 1; wd c.regs (ra c.regs lsr sh)
  | Isa.Sltu (d, a, b) ->
    let wd = wr d and ra = rd a and rb = rd b in
    fun c -> charge c 1; wd c.regs (if ra c.regs < rb c.regs then 1 else 0)
  (* Memory instructions carry no dispatch-time charge: the Machine
     accessors account for them through the cache model. *)
  | Isa.Ld8 (d, b, o) ->
    let wd = wr d and rb = rd b in
    fun c -> wd c.regs (Machine.load8 c.m (rb c.regs + o))
  | Isa.Ld16 (d, b, o) ->
    let wd = wr d and rb = rd b in
    fun c -> wd c.regs (Machine.load16 c.m (rb c.regs + o))
  | Isa.Ld32 (d, b, o) ->
    let wd = wr d and rb = rd b in
    fun c -> wd c.regs (Machine.load32 c.m (rb c.regs + o))
  | Isa.St8 (s, b, o) ->
    let rs = rd s and rb = rd b in
    fun c -> Machine.store8 c.m (rb c.regs + o) (rs c.regs)
  | Isa.St16 (s, b, o) ->
    let rs = rd s and rb = rd b in
    fun c -> Machine.store16 c.m (rb c.regs + o) (rs c.regs)
  | Isa.St32 (s, b, o) ->
    let rs = rd s and rb = rd b in
    fun c -> Machine.store32 c.m (rb c.regs + o) (rs c.regs)
  | Isa.Beq (a, b, t) ->
    let ra = rd a and rb = rd b in
    fun c -> charge c 1; if ra c.regs = rb c.regs then c.next <- t
  | Isa.Bne (a, b, t) ->
    let ra = rd a and rb = rd b in
    fun c -> charge c 1; if ra c.regs <> rb c.regs then c.next <- t
  | Isa.Bltu (a, b, t) ->
    let ra = rd a and rb = rd b in
    fun c -> charge c 1; if ra c.regs < rb c.regs then c.next <- t
  | Isa.Bgeu (a, b, t) ->
    let ra = rd a and rb = rd b in
    fun c -> charge c 1; if ra c.regs >= rb c.regs then c.next <- t
  | Isa.Jmp t -> fun c -> charge c 1; c.next <- t
  | Isa.Jr r -> begin
      let rr = rd r in
      match jump_map with
      | Some map ->
        let ml = Array.length map in
        fun c ->
          charge c 1;
          let v = rr c.regs in
          if v >= 0 && v < ml then c.next <- map.(v)
          else raise (Kill (Isa.Wild_jump v))
      | None ->
        fun c ->
          charge c 1;
          let v = rr c.regs in
          if v >= 0 && v < len then c.next <- v
          else raise (Kill (Isa.Wild_jump v))
    end
  | Isa.Call k -> fun c -> charge c 1; kcall c k
  | Isa.Cksum32 (acc, s) ->
    let wacc = wr acc and racc = rd acc and rs = rd s in
    fun c ->
      charge c 2;
      let sum = racc c.regs + rs c.regs in
      wacc c.regs
        (if sum > 0xffff_ffff then (sum land 0xffff_ffff) + 1 else sum)
  | Isa.Bswap16 (d, s) ->
    let wd = wr d and rs = rd s in
    fun c -> charge c 4; wd c.regs (Ash_util.Bytesx.bswap16 (rs c.regs))
  | Isa.Bswap32 (d, s) ->
    let wd = wr d and rs = rd s in
    fun c -> charge c 9; wd c.regs (Ash_util.Bytesx.bswap32 (rs c.regs))
  | Isa.Commit -> fun c -> charge c 1; c.outcome <- Some Interp.Committed
  | Isa.Abort -> fun c -> charge c 1; c.outcome <- Some Interp.Aborted
  | Isa.Halt -> fun c -> charge c 1; c.outcome <- Some Interp.Returned
  | Isa.Adds (d, a, b) ->
    (* Unsandboxed execution of a signed add that the verifier should
       have rejected: behaves as unsigned here (same as Interp). *)
    let wd = wr d and ra = rd a and rb = rd b in
    fun c -> charge c 1; wd c.regs (ra c.regs + rb c.regs)
  | Isa.Fadd _ ->
    fun c ->
      charge c 2;
      raise (Kill (Isa.Verifier_reject "floating point at runtime"))
  | Isa.Check_addr (r, o, size) ->
    let rr = rd r in
    fun c ->
      check_charge c;
      let addr = rr c.regs + o in
      if not (addr_ok c addr size) then raise (Kill (Isa.Mem_fault addr))
  | Isa.Check_div r ->
    let rr = rd r in
    fun c ->
      check_charge c;
      if rr c.regs = 0 then raise (Kill Isa.Div_by_zero)
  | Isa.Check_jump r -> begin
      let rr = rd r in
      match jump_map with
      | Some map ->
        let ml = Array.length map in
        fun c ->
          check_charge c;
          let v = rr c.regs in
          if not ((v >= 0 && v < ml) || (v >= 0 && v < len)) then
            raise (Kill (Isa.Wild_jump v))
      | None ->
        fun c ->
          check_charge c;
          let v = rr c.regs in
          if not (v >= 0 && v < len) then raise (Kill (Isa.Wild_jump v))
    end
  | Isa.Gas_probe ->
    fun c ->
      check_charge c;
      if spent c > c.env.Interp.gas_cycles then raise (Kill Isa.Gas_exhausted)

let compile (p : Program.t) : t =
  let len = Array.length p.Program.code in
  let jump_map = p.Program.jump_map in
  { program = p; ops = Array.map (translate ~jump_map ~len) p.Program.code }

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
      extra = costs.Ash_sim.Costs.sandboxed_insn_extra_cycles;
      next = 0;
      outcome = None;
      insns = 0;
      check_insns = 0;
      start_cycles = Machine.consumed_cycles m;
    }
  in
  let ops = t.ops in
  let nops = Array.length ops in
  let gas = env.Interp.gas_cycles in
  let finish outcome =
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
      regs;
    }
  in
  let pc = ref 0 in
  let steps = ref 0 in
  try
    while c.outcome = None do
      if !pc < 0 || !pc >= nops then raise (Kill (Isa.Wild_jump !pc));
      incr steps;
      if !steps > Interp.max_steps then raise (Kill Isa.Gas_exhausted);
      if spent c > gas then raise (Kill Isa.Gas_exhausted);
      let op = ops.(!pc) in
      c.insns <- c.insns + 1;
      c.next <- !pc + 1;
      (try op c
       with Memory.Fault f -> raise (Kill (Isa.Mem_fault f.addr)));
      pc := c.next
    done;
    match c.outcome with
    | Some o -> finish o
    | None -> assert false
  with Kill v -> finish (Interp.Killed v)

module Machine = Ash_sim.Machine
module Memory = Ash_sim.Memory

type outcome =
  | Committed
  | Aborted
  | Returned
  | Killed of Isa.violation

type result = {
  outcome : outcome;
  insns : int;
  check_insns : int;
  cycles : int;
  regs : int array;
}

type env = {
  machine : Machine.t;
  msg_addr : int;
  msg_len : int;
  allowed_calls : Isa.kcall list;
  dilp : id:int -> src:int -> dst:int -> len:int -> regs:int array -> bool;
  send : Bytes.t -> unit;
  gas_cycles : int;
}

let default_gas = 200_000

let mask32 v = v land 0xffff_ffff

exception Kill of Isa.violation

(* Hard backstop on interpreter steps independent of the cycle budget,
   so a mis-configured gas value cannot hang the host. *)
let max_steps = 20_000_000

let run env ?(regs_init = []) (p : Program.t) =
  let m = env.machine in
  let costs = Machine.costs m in
  let code = p.Program.code in
  let len = Array.length code in
  let regs = Array.make Isa.num_regs 0 in
  regs.(Isa.reg_msg_addr) <- env.msg_addr;
  regs.(Isa.reg_msg_len) <- env.msg_len;
  List.iter (fun (r, v) -> regs.(r) <- mask32 v) regs_init;
  let start_cycles = Machine.consumed_cycles m in
  let insns = ref 0 in
  let check_insns = ref 0 in
  let get r = if r = Isa.reg_zero then 0 else regs.(r) in
  let set r v = if r <> Isa.reg_zero then regs.(r) <- mask32 v in
  let charge c = Machine.charge_cycles m c in
  let spent () = Machine.consumed_cycles m - start_cycles in
  let addr_ok addr size = Memory.resident_at (Machine.mem m) ~addr ~size in
  let kcall k =
    if not (List.mem k env.allowed_calls) then
      raise (Kill (Isa.Call_denied k));
    let a0 = get Isa.reg_arg0
    and a1 = get Isa.reg_arg1
    and a2 = get Isa.reg_arg2
    and a3 = get Isa.reg_arg3 in
    let bound off size =
      (* Aggregated access check of the trusted interface (§III-B2). *)
      charge 1;
      if off < 0 || size < 0 || off + size > env.msg_len then
        raise (Kill (Isa.Mem_fault (env.msg_addr + off)))
    in
    match k with
    | Isa.K_msg_len -> set Isa.reg_arg0 env.msg_len
    | Isa.K_msg_read8 ->
      bound a0 1;
      set Isa.reg_arg0 (Machine.load8 m (env.msg_addr + a0))
    | Isa.K_msg_read16 ->
      bound a0 2;
      set Isa.reg_arg0 (Machine.load16 m (env.msg_addr + a0))
    | Isa.K_msg_read32 ->
      bound a0 4;
      set Isa.reg_arg0 (Machine.load32 m (env.msg_addr + a0))
    | Isa.K_msg_write32 ->
      bound a0 4;
      Machine.store32 m (env.msg_addr + a0) a1
    | Isa.K_copy ->
      bound a0 a2;
      charge 10;
      if not (addr_ok a1 (max a2 1)) then raise (Kill (Isa.Mem_fault a1));
      Machine.copy m ~src:(env.msg_addr + a0) ~dst:a1 ~len:a2
    | Isa.K_dilp ->
      bound a1 a3;
      charge 10;
      let ok = env.dilp ~id:a0 ~src:(env.msg_addr + a1) ~dst:a2 ~len:a3 ~regs in
      set Isa.reg_arg0 (if ok then 1 else 0)
    | Isa.K_send ->
      charge 10;
      if a1 < 0 || a1 > 65536 then raise (Kill (Isa.Mem_fault a0));
      let frame = Bytes.create a1 in
      (try
         Memory.blit_to_bytes (Machine.mem m) ~src:a0 ~dst:frame ~dst_off:0
           ~len:a1
       with Memory.Fault f -> raise (Kill (Isa.Mem_fault f.addr)));
      env.send frame
  in
  let finish outcome =
    if Ash_obs.Trace.enabled () then begin
      let outcome_str, violation =
        match outcome with
        | Committed -> ("commit", None)
        | Aborted -> ("abort", None)
        | Returned -> ("return", None)
        | Killed v -> ("kill", Some v)
      in
      Ash_obs.Trace.emit
        (Ash_obs.Trace.Vm_run
           { name = p.Program.name; outcome = outcome_str; insns = !insns;
             check_insns = !check_insns; cycles = spent () });
      match violation with
      | Some v ->
        Ash_obs.Trace.emit
          (Ash_obs.Trace.Sandbox_violation
             { reason = Format.asprintf "%a" Isa.pp_violation v })
      | None -> ()
    end;
    {
      outcome;
      insns = !insns;
      check_insns = !check_insns;
      cycles = spent ();
      regs;
    }
  in
  let pc = ref 0 in
  let steps = ref 0 in
  let outcome = ref None in
  (try
     while !outcome = None do
       if !pc < 0 || !pc >= len then raise (Kill (Isa.Wild_jump !pc));
       incr steps;
       if !steps > max_steps then raise (Kill Isa.Gas_exhausted);
       if spent () > env.gas_cycles then raise (Kill Isa.Gas_exhausted);
       let insn = code.(!pc) in
       incr insns;
       if Isa.is_sandbox_check insn then begin
         incr check_insns;
         charge (Isa.base_cycles insn + costs.Ash_sim.Costs.sandboxed_insn_extra_cycles)
       end
       else begin
         match insn with
         | Isa.Ld8 _ | Isa.Ld16 _ | Isa.Ld32 _ | Isa.St8 _ | Isa.St16 _
         | Isa.St32 _ ->
           (* Memory instructions are charged via the Machine accessors. *)
           ()
         | _ -> charge (Isa.base_cycles insn)
       end;
       let next = ref (!pc + 1) in
       (try
          match insn with
          | Isa.Li (d, v) -> set d v
          | Isa.Mov (d, s) -> set d (get s)
          | Isa.Add (d, a, b) -> set d (get a + get b)
          | Isa.Addi (d, a, v) -> set d (get a + v)
          | Isa.Sub (d, a, b) -> set d (get a - get b)
          | Isa.Mul (d, a, b) -> set d (get a * get b)
          | Isa.Divu (d, a, b) ->
            if get b = 0 then raise (Kill Isa.Div_by_zero)
            else set d (get a / get b)
          | Isa.Remu (d, a, b) ->
            if get b = 0 then raise (Kill Isa.Div_by_zero)
            else set d (get a mod get b)
          | Isa.And_ (d, a, b) -> set d (get a land get b)
          | Isa.Or_ (d, a, b) -> set d (get a lor get b)
          | Isa.Xor_ (d, a, b) -> set d (get a lxor get b)
          | Isa.Andi (d, a, v) -> set d (get a land v)
          | Isa.Ori (d, a, v) -> set d (get a lor v)
          | Isa.Xori (d, a, v) -> set d (get a lxor v)
          | Isa.Sll (d, a, v) -> set d (get a lsl (v land 31))
          | Isa.Srl (d, a, v) -> set d (get a lsr (v land 31))
          | Isa.Sltu (d, a, b) -> set d (if get a < get b then 1 else 0)
          | Isa.Ld8 (d, b, o) -> set d (Machine.load8 m (get b + o))
          | Isa.Ld16 (d, b, o) -> set d (Machine.load16 m (get b + o))
          | Isa.Ld32 (d, b, o) -> set d (Machine.load32 m (get b + o))
          | Isa.St8 (s, b, o) -> Machine.store8 m (get b + o) (get s)
          | Isa.St16 (s, b, o) -> Machine.store16 m (get b + o) (get s)
          | Isa.St32 (s, b, o) -> Machine.store32 m (get b + o) (get s)
          | Isa.Beq (a, b, t) -> if get a = get b then next := t
          | Isa.Bne (a, b, t) -> if get a <> get b then next := t
          | Isa.Bltu (a, b, t) -> if get a < get b then next := t
          | Isa.Bgeu (a, b, t) -> if get a >= get b then next := t
          | Isa.Jmp t -> next := t
          | Isa.Jr r -> begin
              let v = get r in
              match p.Program.jump_map with
              | Some map when v >= 0 && v < Array.length map ->
                next := map.(v)
              | Some _ -> raise (Kill (Isa.Wild_jump v))
              | None ->
                if v >= 0 && v < len then next := v
                else raise (Kill (Isa.Wild_jump v))
            end
          | Isa.Call k -> kcall k
          | Isa.Cksum32 (acc, s) ->
            let sum = get acc + get s in
            set acc (if sum > 0xffff_ffff then (sum land 0xffff_ffff) + 1
                     else sum)
          | Isa.Bswap16 (d, s) -> set d (Ash_util.Bytesx.bswap16 (get s))
          | Isa.Bswap32 (d, s) -> set d (Ash_util.Bytesx.bswap32 (get s))
          | Isa.Commit -> outcome := Some Committed
          | Isa.Abort -> outcome := Some Aborted
          | Isa.Halt -> outcome := Some Returned
          | Isa.Adds (d, a, b) ->
            (* Unsandboxed execution of a signed add that the verifier
               should have rejected: behaves as unsigned here. *)
            set d (get a + get b)
          | Isa.Fadd _ ->
            raise (Kill (Isa.Verifier_reject "floating point at runtime"))
          | Isa.Check_addr (r, o, size) ->
            if not (addr_ok (get r + o) size) then
              raise (Kill (Isa.Mem_fault (get r + o)))
          | Isa.Check_div r ->
            if get r = 0 then raise (Kill Isa.Div_by_zero)
          | Isa.Check_jump r -> begin
              let v = get r in
              match p.Program.jump_map with
              | Some map when v >= 0 && v < Array.length map -> ()
              | _ when v >= 0 && v < len -> ()
              | _ -> raise (Kill (Isa.Wild_jump v))
            end
          | Isa.Gas_probe ->
            if spent () > env.gas_cycles then raise (Kill Isa.Gas_exhausted)
        with Memory.Fault f -> raise (Kill (Isa.Mem_fault f.addr)));
       pc := !next
     done;
     match !outcome with
     | Some o -> finish o
     | None -> assert false
   with Kill v -> finish (Killed v))

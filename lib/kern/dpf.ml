module Isa = Ash_vm.Isa
module Builder = Ash_vm.Builder
module Interp = Ash_vm.Interp
module Machine = Ash_sim.Machine

type atom = { offset : int; width : int; mask : int; value : int }

type t = atom list

let full_mask = function
  | 1 -> 0xff
  | 2 -> 0xffff
  | 4 -> 0xffff_ffff
  | _ -> invalid_arg "Dpf.atom: width must be 1, 2 or 4"

let atom ?mask ~offset ~width value =
  let fm = full_mask width in
  let mask = match mask with None -> fm | Some m -> m land fm in
  if offset < 0 then invalid_arg "Dpf.atom: negative offset";
  { offset; width; mask; value = value land fm }

let read_call = function
  | 1 -> Isa.K_msg_read8
  | 2 -> Isa.K_msg_read16
  | _ -> Isa.K_msg_read32

let compile atoms =
  let b = Builder.create ~name:"dpf-filter" () in
  let reject = Builder.fresh_label b in
  let field = Builder.temp b and want = Builder.temp b in
  List.iter
    (fun a ->
       Builder.li b Isa.reg_arg0 a.offset;
       Builder.call b (read_call a.width);
       (* Constant specialization: mask and value are immediates. *)
       if a.mask <> full_mask a.width then
         Builder.emit b (Isa.Andi (field, Isa.reg_arg0, a.mask))
       else Builder.emit b (Isa.Mov (field, Isa.reg_arg0));
       Builder.li b want a.value;
       Builder.bne b field want reject)
    atoms;
  Builder.commit b;
  Builder.place b reject;
  Builder.abort b;
  Builder.assemble b

let run_compiled machine program ~msg_addr ~msg_len =
  let env =
    {
      Interp.machine;
      msg_addr;
      msg_len;
      allowed_calls = Isa.[ K_msg_read8; K_msg_read16; K_msg_read32 ];
      dilp = (fun ~id:_ ~src:_ ~dst:_ ~len:_ ~regs:_ -> false);
      send = ignore;
      gas_cycles = Interp.default_gas;
    }
  in
  let matched =
    match
      (Ash_vm.Exec.run env (Ash_vm.Exec.prepare program)).Interp.outcome
    with
    | Interp.Committed -> true
    | Interp.Aborted | Interp.Returned | Interp.Killed _ -> false
  in
  if Ash_obs.Trace.enabled () then
    Ash_obs.Trace.emit (Ash_obs.Trace.Dpf_eval { compiled = true; matched });
  matched

(* Per-atom decode/dispatch cost of a tree-walking filter interpreter:
   fetch the atom record, switch on the opcode, bounds-check, loop — the
   overhead DPF's compilation eliminates (the paper reports an order of
   magnitude over the best interpreted engines). *)
let interp_overhead_cycles = 30

let run_interpreted machine atoms ~msg_addr ~msg_len =
  let ok = ref true in
  List.iter
    (fun a ->
       if !ok then begin
         Machine.charge_cycles machine interp_overhead_cycles;
         if a.offset + a.width > msg_len then ok := false
         else begin
           let v =
             match a.width with
             | 1 -> Machine.load8 machine (msg_addr + a.offset)
             | 2 -> Machine.load16 machine (msg_addr + a.offset)
             | _ -> Machine.load32 machine (msg_addr + a.offset)
           in
           if v land a.mask <> a.value then ok := false
         end
       end)
    atoms;
  if Ash_obs.Trace.enabled () then
    Ash_obs.Trace.emit
      (Ash_obs.Trace.Dpf_eval { compiled = false; matched = !ok });
  !ok

let matches pkt atoms =
  List.for_all
    (fun a ->
       a.offset + a.width <= Bytes.length pkt
       &&
       let v =
         match a.width with
         | 1 -> Ash_util.Bytesx.get_u8 pkt a.offset
         | 2 -> Ash_util.Bytesx.get_u16 pkt a.offset
         | _ -> Ash_util.Bytesx.get_u32 pkt a.offset
       in
       v land a.mask = a.value)
    atoms

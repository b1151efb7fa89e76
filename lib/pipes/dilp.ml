type mode = Write | Sink

type layout = Contiguous | Striped of { data : int; pad : int }

let eth_striped = Striped { data = 16; pad = 16 }

type compiled = {
  program : Ash_vm.Program.t;
  exec : Ash_vm.Exec.prepared;
  mode : mode;
  layout : layout;
  pipes : Pipe.t list;
  persistent : Ash_vm.Isa.reg list;
}

(* Fixed register plan for the generated loop:
   r1 src, r2 dst, r3 len, r4 end, r5 unrolled-loop limit,
   r10-r15 gauge-conversion/pipe scratch, r30 the data register,
   r16-r27 pipe persistent registers. *)
let reg_src = 1
let reg_dst = 2
let reg_len = 3
let reg_end = 4
let reg_limit = 5
let reg_data = Ash_vm.Isa.reg_pipe_input
let scratch = [ 10; 11; 12; 13; 14; 15 ]

let unroll = 4

let apply_pipe b (p : Pipe.t) =
  let pool = ref scratch in
  let take () =
    match !pool with
    | [] -> failwith ("Dilp: pipe " ^ p.Pipe.name ^ " out of scratch registers")
    | r :: rest ->
      pool := rest;
      r
  in
  let emit insn =
    match Ash_vm.Isa.branch_target insn, insn with
    | Some _, _ | None, Ash_vm.Isa.Jr _ ->
      failwith ("Dilp: pipe " ^ p.Pipe.name ^ " bodies must be straight-line")
    | None, _ -> Ash_vm.Builder.emit b insn
  in
  let body_on data =
    let saved = !pool in
    p.Pipe.body { Pipe.emit; data; temp = take };
    pool := saved
  in
  match p.Pipe.gauge with
  | Pipe.G32 -> body_on reg_data
  | Pipe.G16 ->
    (* Split the 32-bit unit into two 16-bit lanes (big-endian order),
       stream each through the pipe, and aggregate back into a single
       register (§II-B gauge conversion). *)
    let hi = take () and lo = take () in
    Ash_vm.Builder.emit b (Ash_vm.Isa.Srl (hi, reg_data, 16));
    body_on hi;
    Ash_vm.Builder.emit b (Ash_vm.Isa.Andi (lo, reg_data, 0xffff));
    body_on lo;
    Ash_vm.Builder.emit b (Ash_vm.Isa.Sll (reg_data, hi, 16));
    Ash_vm.Builder.emit b (Ash_vm.Isa.Or_ (reg_data, reg_data, lo))
  | Pipe.G8 ->
    let lanes = [ take (); take (); take (); take () ] in
    List.iteri
      (fun i lane ->
         let shift = 24 - (8 * i) in
         if shift = 0 then Ash_vm.Builder.emit b (Ash_vm.Isa.Andi (lane, reg_data, 0xff))
         else begin
           Ash_vm.Builder.emit b (Ash_vm.Isa.Srl (lane, reg_data, shift));
           Ash_vm.Builder.emit b (Ash_vm.Isa.Andi (lane, lane, 0xff))
         end;
         body_on lane)
      lanes;
    (match lanes with
     | [ l0; l1; l2; l3 ] ->
       Ash_vm.Builder.emit b (Ash_vm.Isa.Sll (reg_data, l0, 24));
       Ash_vm.Builder.emit b (Ash_vm.Isa.Sll (l1, l1, 16));
       Ash_vm.Builder.emit b (Ash_vm.Isa.Or_ (reg_data, reg_data, l1));
       Ash_vm.Builder.emit b (Ash_vm.Isa.Sll (l2, l2, 8));
       Ash_vm.Builder.emit b (Ash_vm.Isa.Or_ (reg_data, reg_data, l2));
       Ash_vm.Builder.emit b (Ash_vm.Isa.Or_ (reg_data, reg_data, l3))
     | _ -> assert false)

let compile_contiguous ~name pipes mode =
  let b = Ash_vm.Builder.create ~name () in
  let word k =
    Ash_vm.Builder.emit b (Ash_vm.Isa.Ld32 (reg_data, reg_src, 4 * k));
    List.iter (apply_pipe b) pipes;
    match mode with
    | Write -> Ash_vm.Builder.emit b (Ash_vm.Isa.St32 (reg_data, reg_dst, 4 * k))
    | Sink -> ()
  in
  Ash_vm.Builder.emit b (Ash_vm.Isa.Add (reg_end, reg_src, reg_len));
  Ash_vm.Builder.emit b (Ash_vm.Isa.Addi (reg_limit, reg_end, -(4 * unroll) + 1));
  let tail_l = Ash_vm.Builder.fresh_label b in
  let done_l = Ash_vm.Builder.fresh_label b in
  let loop4 = Ash_vm.Builder.here b in
  Ash_vm.Builder.bgeu b reg_src reg_limit tail_l;
  for k = 0 to unroll - 1 do
    word k
  done;
  Ash_vm.Builder.emit b (Ash_vm.Isa.Addi (reg_src, reg_src, 4 * unroll));
  (match mode with
   | Write -> Ash_vm.Builder.emit b (Ash_vm.Isa.Addi (reg_dst, reg_dst, 4 * unroll))
   | Sink -> ());
  Ash_vm.Builder.jmp b loop4;
  Ash_vm.Builder.place b tail_l;
  Ash_vm.Builder.bgeu b reg_src reg_end done_l;
  word 0;
  Ash_vm.Builder.emit b (Ash_vm.Isa.Addi (reg_src, reg_src, 4));
  (match mode with
   | Write -> Ash_vm.Builder.emit b (Ash_vm.Isa.Addi (reg_dst, reg_dst, 4))
   | Sink -> ());
  Ash_vm.Builder.jmp b tail_l;
  Ash_vm.Builder.place b done_l;
  Ash_vm.Builder.halt b;
  Ash_vm.Builder.assemble b

(* Striped back end: process [data] payload bytes, skip [pad], repeat.
   The loop walks whole stripes; a trailing partial stripe is handled by
   a word-tail loop (the last stripe of a packet may be short). *)
let compile_striped ~name pipes mode ~data ~pad =
  let b = Ash_vm.Builder.create ~name () in
  let words_per_stripe = data / 4 in
  let reg_chunks = 6 and reg_remw = 7 in
  let word k =
    Ash_vm.Builder.emit b (Ash_vm.Isa.Ld32 (reg_data, reg_src, 4 * k));
    List.iter (apply_pipe b) pipes;
    match mode with
    | Write -> Ash_vm.Builder.emit b (Ash_vm.Isa.St32 (reg_data, reg_dst, 4 * k))
    | Sink -> ()
  in
  (* r6 = full stripes, r7 = words in the trailing partial stripe. *)
  let log2_data =
    let rec go acc n = if n = 1 then acc else go (acc + 1) (n lsr 1) in
    go 0 data
  in
  Ash_vm.Builder.emit b (Ash_vm.Isa.Srl (reg_chunks, reg_len, log2_data));
  Ash_vm.Builder.emit b (Ash_vm.Isa.Andi (reg_remw, reg_len, data - 1));
  Ash_vm.Builder.emit b (Ash_vm.Isa.Srl (reg_remw, reg_remw, 2));
  let tail_l = Ash_vm.Builder.fresh_label b in
  let done_l = Ash_vm.Builder.fresh_label b in
  let loop = Ash_vm.Builder.here b in
  Ash_vm.Builder.beq b reg_chunks Ash_vm.Isa.reg_zero tail_l;
  for k = 0 to words_per_stripe - 1 do
    word k
  done;
  Ash_vm.Builder.emit b (Ash_vm.Isa.Addi (reg_src, reg_src, data + pad));
  (match mode with
   | Write -> Ash_vm.Builder.emit b (Ash_vm.Isa.Addi (reg_dst, reg_dst, data))
   | Sink -> ());
  Ash_vm.Builder.emit b (Ash_vm.Isa.Addi (reg_chunks, reg_chunks, -1));
  Ash_vm.Builder.jmp b loop;
  Ash_vm.Builder.place b tail_l;
  Ash_vm.Builder.beq b reg_remw Ash_vm.Isa.reg_zero done_l;
  word 0;
  Ash_vm.Builder.emit b (Ash_vm.Isa.Addi (reg_src, reg_src, 4));
  (match mode with
   | Write -> Ash_vm.Builder.emit b (Ash_vm.Isa.Addi (reg_dst, reg_dst, 4))
   | Sink -> ());
  Ash_vm.Builder.emit b (Ash_vm.Isa.Addi (reg_remw, reg_remw, -1));
  Ash_vm.Builder.jmp b tail_l;
  Ash_vm.Builder.place b done_l;
  Ash_vm.Builder.halt b;
  Ash_vm.Builder.assemble b

let is_pow2 n = n > 0 && n land (n - 1) = 0

let compile ?(layout = Contiguous) pl mode =
  let pipes = Pipe.Pipelist.pipes pl in
  let name =
    "dilp:"
    ^ String.concat "+" (List.map (fun p -> p.Pipe.name) pipes)
    ^ (match mode with Write -> ":write" | Sink -> ":sink")
    ^ (match layout with
       | Contiguous -> ""
       | Striped { data; pad } -> Printf.sprintf ":striped%d/%d" data pad)
  in
  let program =
    match layout with
    | Contiguous -> compile_contiguous ~name pipes mode
    | Striped { data; pad } ->
      if data <= 0 || data land 3 <> 0 || pad < 0 then
        invalid_arg "Dilp.compile: bad stripe geometry";
      if not (is_pow2 data) then
        invalid_arg "Dilp.compile: stripe data size must be a power of two";
      compile_striped ~name pipes mode ~data ~pad
  in
  if Ash_obs.Trace.enabled () then
    Ash_obs.Trace.emit
      (Ash_obs.Trace.Dilp_compile
         { name; insns = Array.length program.Ash_vm.Program.code });
  {
    program;
    exec = Ash_vm.Exec.prepare program;
    mode;
    layout;
    pipes;
    persistent = Pipe.Pipelist.persistent_regs pl;
  }

let execute ?(init = []) machine t ~src ~dst ~len =
  if len < 0 || len land 3 <> 0 then
    invalid_arg "Dilp.execute: length must be a non-negative multiple of 4";
  if Ash_obs.Trace.enabled () then
    Ash_obs.Trace.emit
      (Ash_obs.Trace.Dilp_run
         { name = t.program.Ash_vm.Program.name; len });
  let env =
    {
      Ash_vm.Interp.machine;
      msg_addr = src;
      msg_len = len;
      allowed_calls = [];
      dilp = (fun ~id:_ ~src:_ ~dst:_ ~len:_ ~regs:_ -> false);
      send = ignore;
      gas_cycles = Ash_vm.Interp.default_gas;
    }
  in
  let regs_init =
    (reg_src, src) :: (reg_dst, dst) :: (reg_len, len) :: init
  in
  Ash_vm.Exec.run env ~regs_init t.exec

let execute_exn ?init machine t ~src ~dst ~len =
  let r = execute ?init machine t ~src ~dst ~len in
  match r.Ash_vm.Interp.outcome with
  | Ash_vm.Interp.Returned -> r.Ash_vm.Interp.regs
  | Ash_vm.Interp.Committed | Ash_vm.Interp.Aborted ->
    failwith "Dilp.execute_exn: unexpected handler termination"
  | Ash_vm.Interp.Killed v ->
    failwith
      (Format.asprintf "Dilp.execute_exn: killed (%a)" Ash_vm.Isa.pp_violation v)

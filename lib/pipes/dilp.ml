module Isa = Ash_vm.Isa
module Interp = Ash_vm.Interp
module Machine = Ash_sim.Machine
module Memory = Ash_sim.Memory
module Cache = Ash_sim.Cache

type mode = Write | Sink

type layout = Contiguous | Striped of { data : int; pad : int }

let eth_striped = Striped { data = 16; pad = 16 }

(* Instructions and fixed cycles of one part of the contiguous loop:
   what Interp charges at dispatch. Loads and stores pay through the
   cache model instead. *)
type part = { insns : int; cycles : int }

(* TCP's checksumming transfer, whose every word is a lone
   [Cksum32 (acc, r30)]: the word kernel adds each word to [acc]. *)
type native = {
  acc : Isa.reg;
  once : part; (* prologue, the two taken exit tests, Halt *)
  group : part; (* one unrolled iteration *)
  single : part; (* one tail iteration *)
}

type compiled = {
  program : Ash_vm.Program.t;
  exec : Ash_vm.Exec.prepared;
  mode : mode;
  persistent : Ash_vm.Isa.reg list;
  native : native option;
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

let part (code : Isa.insn array) lo hi =
  let cycles = ref 0 in
  for pc = lo to hi - 1 do
    match code.(pc) with
    | Isa.Ld8 _ | Isa.Ld16 _ | Isa.Ld32 _ | Isa.St8 _ | Isa.St16 _ | Isa.St32 _
      -> ()
    | insn -> cycles := !cycles + Isa.base_cycles insn
  done;
  { insns = hi - lo; cycles = !cycles }

let plus a b = { insns = a.insns + b.insns; cycles = a.cycles + b.cycles }

(* The accumulator of a word-kernel body, a lone [Cksum32 (acc, r30)].
   [acc] must leave r0-r5 to the loop, and the kernel's fold needs it to
   enter below 2^32, which r28 and r29 (the caller's unmasked [src] and
   [len]) need not. *)
let kernel_acc = function
  | [| Isa.Cksum32 (acc, s) |]
    when s = reg_data && acc > reg_limit && acc <> reg_data
         && acc <> Isa.reg_msg_addr && acc <> Isa.reg_msg_len ->
    Some acc
  | _ -> None

(* The word kernel of an assembled contiguous loop, when every word's
   body is the same lone [Cksum32]. [bodies] are the pc spans of every
   word's pipe instructions, [group], [tail] and [halt] the pcs where
   the unrolled loop, the tail loop and the exit begin (each loop starts
   with its exit test). *)
let native_of (p : Ash_vm.Program.t) ~bodies ~group ~tail ~halt =
  let code = p.Ash_vm.Program.code in
  match List.map (fun (lo, hi) -> Array.sub code lo (hi - lo)) bodies with
  | body :: rest when List.for_all (( = ) body) rest ->
    Option.map
      (fun acc ->
         {
           acc;
           once =
             List.fold_left plus (part code 0 group)
               [ part code group (group + 1); part code tail (tail + 1);
                 part code halt (halt + 1) ];
           group = part code group tail;
           single = part code tail halt;
         })
      (kernel_acc body)
  | _ -> None

let compile_contiguous ~name pipes mode =
  let b = Ash_vm.Builder.create ~name () in
  let bodies = ref [] in
  let word k =
    Ash_vm.Builder.emit b (Ash_vm.Isa.Ld32 (reg_data, reg_src, 4 * k));
    let lo = Ash_vm.Builder.size b in
    List.iter (apply_pipe b) pipes;
    bodies := (lo, Ash_vm.Builder.size b) :: !bodies;
    match mode with
    | Write -> Ash_vm.Builder.emit b (Ash_vm.Isa.St32 (reg_data, reg_dst, 4 * k))
    | Sink -> ()
  in
  Ash_vm.Builder.emit b (Ash_vm.Isa.Add (reg_end, reg_src, reg_len));
  Ash_vm.Builder.emit b (Ash_vm.Isa.Addi (reg_limit, reg_end, -(4 * unroll) + 1));
  let tail_l = Ash_vm.Builder.fresh_label b in
  let done_l = Ash_vm.Builder.fresh_label b in
  let group = Ash_vm.Builder.size b in
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
  let tail = Ash_vm.Builder.size b in
  Ash_vm.Builder.place b tail_l;
  Ash_vm.Builder.bgeu b reg_src reg_end done_l;
  word 0;
  Ash_vm.Builder.emit b (Ash_vm.Isa.Addi (reg_src, reg_src, 4));
  (match mode with
   | Write -> Ash_vm.Builder.emit b (Ash_vm.Isa.Addi (reg_dst, reg_dst, 4))
   | Sink -> ());
  Ash_vm.Builder.jmp b tail_l;
  let halt = Ash_vm.Builder.size b in
  Ash_vm.Builder.place b done_l;
  Ash_vm.Builder.halt b;
  let program = Ash_vm.Builder.assemble b in
  (program, native_of program ~bodies:!bodies ~group ~tail ~halt)

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
  let program, native =
    match layout with
    | Contiguous -> compile_contiguous ~name pipes mode
    | Striped { data; pad } ->
      if data <= 0 || data land 3 <> 0 || pad < 0 then
        invalid_arg "Dilp.compile: bad stripe geometry";
      if not (is_pow2 data) then
        invalid_arg "Dilp.compile: stripe data size must be a power of two";
      (compile_striped ~name pipes mode ~data ~pad, None)
  in
  if Ash_obs.Trace.enabled () then
    Ash_obs.Trace.emit
      (Ash_obs.Trace.Dilp_compile
         { name; insns = Array.length program.Ash_vm.Program.code });
  {
    program;
    exec = Ash_vm.Exec.prepare program;
    mode;
    persistent = Pipe.Pipelist.persistent_regs pl;
    native;
  }

(* A sum of 32-bit values with end-around carry, folded once. Adding
   them one at a time with [Cksum32] keeps the accumulator congruent to
   their plain sum [s] modulo 2^32-1 and inside [0, 2^32-1], and it is 0
   only while every value added was 0. So when the first value is below
   2^32, the accumulator ends at the one value in [1, 2^32-1] congruent
   to [s], or at 0 when [s] is 0: what folding [s] gives. A transfer the
   gas budget admits adds fewer than [Interp.default_gas] words, so [s]
   stays far below [max_int]. *)
let rec fold32 s =
  if s > 0xffff_ffff then fold32 ((s land 0xffff_ffff) + (s lsr 32)) else s

(* [addr, addr+len) lies in one resident region, below the 2^32 where
   the loop's address registers would wrap. *)
let in_region mem addr len =
  addr + len <= 0xffff_ffff && Memory.resident_at mem ~addr ~size:len

(* The contiguous loop as the word kernel (see dilp.mli), or [None]
   when the transfer must run the VM program. The register file starts
   as Compile.run builds it, so r1-r3 are read after [init], as the
   program reads them. While its end registers do not wrap, the loop
   runs [n / unroll] unrolled and [n mod unroll] tail iterations over
   [n] words, so its counts are known before it runs; when even
   all-miss loads fit the gas budget, no gas check could have fired. *)
let run_native machine t nat ~init ~src ~dst ~len =
  let regs = Array.make Isa.num_regs 0 in
  regs.(Isa.reg_msg_addr) <- src;
  regs.(Isa.reg_msg_len) <- len;
  regs.(reg_src) <- src land 0xffff_ffff;
  regs.(reg_dst) <- dst land 0xffff_ffff;
  regs.(reg_len) <- len land 0xffff_ffff;
  List.iter (fun (r, v) -> regs.(r) <- v land 0xffff_ffff) init;
  let s = regs.(reg_src) and d = regs.(reg_dst) and l = regs.(reg_len) in
  let write = t.mode = Write in
  let mem = Machine.mem machine in
  if l land 3 <> 0
     || s + l < (4 * unroll) - 1
     || not (in_region mem s l)
     || (write && not (in_region mem d l))
  then None
  else begin
    let n = l / 4 in
    let groups = n / unroll and singles = n mod unroll in
    let insns =
      nat.once.insns + (groups * nat.group.insns) + (singles * nat.single.insns)
    in
    let costs = Machine.costs machine and cache = Machine.cache machine in
    (* Every cycle but the loads' cache charge. *)
    let known =
      nat.once.cycles + (groups * nat.group.cycles)
      + (singles * nat.single.cycles)
      + ((if write then 2 * n else n) * costs.Ash_sim.Costs.insn_cycles)
      + if write then Cache.store_run cache ~addr:d ~size:4 ~count:n else 0
    in
    if insns > Interp.max_steps
       || known + Cache.load_run_worst cache ~addr:s ~size:4 ~count:n
          > Interp.default_gas
    then None
    else begin
      let cycles = known + Cache.load_run cache ~addr:s ~size:4 ~count:n in
      Machine.charge_cycles machine cycles;
      let sr = Memory.locate mem s l in
      let dr = if write then Memory.locate mem d l else sr in
      let sdata = sr.Memory.data and soff = s - sr.Memory.base in
      let ddata = dr.Memory.data and doff = d - dr.Memory.base in
      regs.(reg_end) <- s + l;
      regs.(reg_limit) <- s + l - (4 * unroll) + 1;
      let sum = Baseline.unsafe_sum_be32 sdata soff n ~write ddata doff in
      regs.(nat.acc) <- fold32 (regs.(nat.acc) + sum);
      (* The last word loaded: in Write mode the last store wrote it and
         nothing followed, in Sink mode nothing was stored. *)
      if n > 0 then
        regs.(reg_data) <-
          (if write then Baseline.unsafe_be32 ddata (doff + l - 4)
           else Baseline.unsafe_be32 sdata (soff + l - 4));
      regs.(reg_src) <- s + l;
      if write then regs.(reg_dst) <- d + l;
      if Ash_obs.Trace.enabled () then
        Ash_obs.Trace.emit
          (Ash_obs.Trace.Vm_run
             { name = t.program.Ash_vm.Program.name; outcome = "return";
               insns; check_insns = 0; cycles });
      Some
        { Interp.outcome = Interp.Returned; insns; check_insns = 0; cycles;
          regs }
    end
  end

let execute ?(init = []) machine t ~src ~dst ~len =
  if len < 0 || len land 3 <> 0 then
    invalid_arg "Dilp.execute: length must be a non-negative multiple of 4";
  if Ash_obs.Trace.enabled () then
    Ash_obs.Trace.emit
      (Ash_obs.Trace.Dilp_run
         { name = t.program.Ash_vm.Program.name; len });
  let native =
    match t.native with
    | Some nat -> run_native machine t nat ~init ~src ~dst ~len
    | None -> None
  in
  match native with
  | Some r -> r
  | None ->
    let env =
      {
        Interp.machine;
        msg_addr = src;
        msg_len = len;
        allowed_calls = [];
        dilp = (fun ~id:_ ~src:_ ~dst:_ ~len:_ ~regs:_ -> false);
        send = ignore;
        gas_cycles = Interp.default_gas;
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

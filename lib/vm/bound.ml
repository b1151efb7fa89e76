module Costs = Ash_sim.Costs

type result = Bounded of int | Unbounded of string

let u32max = 0xffff_ffff

exception Give_up of string

(* Worst-case lines touched by an access of [size] bytes: one more
   than the fully-misaligned span. *)
let lines_of (c : Costs.t) size = ((size + c.cache_line - 2) / c.cache_line) + 1

let load_worst c size =
  c.Costs.insn_cycles
  + (lines_of c size * (c.Costs.load_extra_cycles + c.Costs.miss_penalty_cycles))

let store_worst c size =
  c.Costs.insn_cycles + (lines_of c size * c.Costs.store_extra_cycles)

(* Worst-case cycles of one original instruction as the interpreter
   meters it (memory instructions are charged via the Machine
   accessors; kernel calls charge call + aggregated check + access). *)
let insn_worst (c : Costs.t) (insn : Isa.insn) =
  match insn with
  | Ld8 _ -> load_worst c 1
  | Ld16 _ -> load_worst c 2
  | Ld32 _ -> load_worst c 4
  | St8 _ -> store_worst c 1
  | St16 _ -> store_worst c 2
  | St32 _ -> store_worst c 4
  | Call Isa.K_msg_len -> Isa.base_cycles insn
  | Call Isa.K_msg_read8 -> Isa.base_cycles insn + 1 + load_worst c 1
  | Call Isa.K_msg_read16 -> Isa.base_cycles insn + 1 + load_worst c 2
  | Call Isa.K_msg_read32 -> Isa.base_cycles insn + 1 + load_worst c 4
  | Call Isa.K_msg_write32 -> Isa.base_cycles insn + 1 + store_worst c 4
  | Call Isa.K_send ->
    (* Flat 10-cycle charge in the interpreter; the frame copy out of
       simulated memory is host-side and not metered. *)
    Isa.base_cycles insn + 10
  | Call Isa.(K_copy | K_dilp) ->
    raise (Give_up "call with length-dependent cost")
  | _ -> Isa.base_cycles insn

let compute ~costs ~check_cycles ~overhead (a : Absint.t) =
  let cfg = a.Absint.cfg in
  let code = cfg.Cfg.program.Program.code in
  let nb = Array.length cfg.Cfg.blocks in
  try
    if cfg.Cfg.has_indirect then raise (Give_up "indirect jump");
    let block_cost = Array.make nb 0 in
    for b = 0 to nb - 1 do
      if Cfg.reachable cfg b then begin
        let blk = cfg.Cfg.blocks.(b) in
        let cost = ref 0 in
        for i = blk.Cfg.first to blk.Cfg.last do
          cost := !cost + insn_worst costs code.(i) + check_cycles i
        done;
        block_cost.(b) <- !cost
      end
    done;
    let backs = Cfg.back_edges cfg in
    let is_back t h = List.mem (t, h) backs in
    (* Each back edge must define a disjoint counted loop. *)
    let in_some_loop = Array.make nb false in
    let loop_extra =
      List.fold_left
        (fun acc (tail, head) ->
           let blocks = Cfg.natural_loop cfg ~tail ~head in
           List.iter
             (fun b ->
                if in_some_loop.(b) then
                  raise (Give_up "nested or overlapping loops");
                in_some_loop.(b) <- true)
             blocks;
           let in_loop b = List.mem b blocks in
           (* The unique induction step: addi i, i, step with step >= 1,
              running every iteration, and nothing else writing i. *)
           let candidates = ref [] in
           List.iter
             (fun b ->
                let blk = cfg.Cfg.blocks.(b) in
                for i = blk.Cfg.first to blk.Cfg.last do
                  match code.(i) with
                  | Isa.Addi (d, s, step)
                    when d = s && d <> Isa.reg_zero && step >= 1
                         && Cfg.dominates cfg b tail ->
                    candidates := (d, step, i) :: !candidates
                  | _ -> ()
                done)
             blocks;
           let well_formed (reg, _step, at) =
             List.for_all
               (fun b ->
                  let blk = cfg.Cfg.blocks.(b) in
                  let ok = ref true in
                  for i = blk.Cfg.first to blk.Cfg.last do
                    if i <> at then
                      match Absint.defs code.(i) with
                      | None -> ok := false
                      | Some ds -> if List.mem reg ds then ok := false
                  done;
                  !ok)
               blocks
           in
           (* An exit test [i < lim] that runs every iteration, with
              the loop continuing only while it holds. *)
           let trip_of (reg, step, _) =
             let found = ref None in
             List.iter
               (fun b ->
                  let blk = cfg.Cfg.blocks.(b) in
                  if !found = None && Cfg.dominates cfg b tail then begin
                    let i = blk.Cfg.last in
                    let fall_in =
                      i + 1 < Array.length code && in_loop cfg.Cfg.block_of.(i + 1)
                    in
                    let lim_reg =
                      match code.(i) with
                      | Isa.Bltu (x, lim, t)
                        when x = reg
                             && t >= 0 && t < Array.length code
                             && in_loop cfg.Cfg.block_of.(t)
                             && not fall_in -> Some lim
                      | Isa.Bgeu (x, lim, t)
                        when x = reg
                             && t >= 0 && t < Array.length code
                             && (not (in_loop cfg.Cfg.block_of.(t)))
                             && fall_in -> Some lim
                      | _ -> None
                    in
                    match lim_reg with
                    | None -> ()
                    | Some lim -> (
                        match a.Absint.pre.(i) with
                        | Some st ->
                          let v =
                            if lim = Isa.reg_zero then
                              { Absint.base = Absint.Bnone; lo = 0; hi = 0 }
                            else st.Absint.regs.(lim)
                          in
                          if
                            v.Absint.base = Absint.Bnone
                            && v.Absint.lo = v.Absint.hi
                            && v.Absint.hi + step <= u32max
                          then found := Some ((v.Absint.hi / step) + 2)
                        | None -> ())
                  end)
               blocks;
             !found
           in
           let trips =
             List.find_map
               (fun cand -> if well_formed cand then trip_of cand else None)
               !candidates
           in
           match trips with
           | None -> raise (Give_up "loop without a provable trip count")
           | Some trips ->
             let body = List.fold_left (fun s b -> s + block_cost.(b)) 0 blocks in
             acc + ((trips - 1) * body))
        0 backs
    in
    (* Longest path over the DAG left after removing back edges. An
       edge against reverse postorder that is not a recognized back
       edge means irreducible flow. *)
    let rpo_num = Array.make nb (-1) in
    Array.iteri (fun i b -> rpo_num.(b) <- i) cfg.Cfg.rpo;
    let dist = Array.make nb min_int in
    dist.(0) <- block_cost.(0);
    let longest = ref block_cost.(0) in
    Array.iter
      (fun b ->
         if dist.(b) > min_int then begin
           longest := max !longest dist.(b);
           List.iter
             (fun s ->
                if is_back b s then ()
                else if rpo_num.(s) <= rpo_num.(b) then
                  raise (Give_up "irreducible control flow")
                else dist.(s) <- max dist.(s) (dist.(b) + block_cost.(s)))
             cfg.Cfg.blocks.(b).Cfg.succs
         end)
      cfg.Cfg.rpo;
    Bounded (!longest + loop_extra + overhead)
  with Give_up why -> Unbounded why

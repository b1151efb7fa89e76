type block = {
  first : int;
  last : int;
  succs : int list;
  preds : int list;
}

type t = {
  program : Program.t;
  blocks : block array;
  block_of : int array;
  has_indirect : bool;
  rpo : int array;
  idom : int array;
}

let is_cond_branch (insn : Isa.insn) =
  match insn with
  | Beq _ | Bne _ | Bltu _ | Bgeu _ -> true
  | _ -> false

let build (p : Program.t) =
  let code = p.Program.code in
  let n = Array.length code in
  if n = 0 then invalid_arg "Cfg.build: empty program";
  let has_indirect =
    Array.exists (function Isa.Jr _ -> true | _ -> false) code
  in
  (* Leaders: entry, branch targets, fall-throughs of control transfers.
     With an indirect jump in the program every index is reachable
     through the jump map, so every instruction leads its own block. *)
  let leader = Array.make n false in
  leader.(0) <- true;
  if has_indirect then Array.fill leader 0 n true
  else
    Array.iteri
      (fun i insn ->
         (match Isa.branch_target insn with
          | Some t when t >= 0 && t < n -> leader.(t) <- true
          | Some _ | None -> ());
         if (is_cond_branch insn || Isa.is_terminator insn) && i + 1 < n then
           leader.(i + 1) <- true)
      code;
  let block_of = Array.make n 0 in
  let nblocks = ref 0 in
  for i = 0 to n - 1 do
    if leader.(i) && i > 0 then incr nblocks;
    block_of.(i) <- !nblocks
  done;
  let nblocks = !nblocks + 1 in
  let first = Array.make nblocks 0 in
  let last = Array.make nblocks (n - 1) in
  for i = n - 1 downto 0 do first.(block_of.(i)) <- i done;
  for i = 0 to n - 1 do last.(block_of.(i)) <- i done;
  let succs = Array.make nblocks [] in
  let preds = Array.make nblocks [] in
  let all_blocks = List.init nblocks (fun b -> b) in
  for b = 0 to nblocks - 1 do
    let i = last.(b) in
    let s =
      match code.(i) with
      | Isa.Jr _ -> all_blocks
      | Isa.Jmp t -> if t >= 0 && t < n then [ block_of.(t) ] else []
      | Isa.Commit | Isa.Abort | Isa.Halt -> []
      | insn ->
        let fall = if i + 1 < n then [ block_of.(i + 1) ] else [] in
        (match Isa.branch_target insn with
         | Some t when t >= 0 && t < n ->
           let tb = block_of.(t) in
           if List.mem tb fall then fall else tb :: fall
         | Some _ | None -> fall)
    in
    succs.(b) <- s
  done;
  for b = 0 to nblocks - 1 do
    List.iter (fun s -> preds.(s) <- b :: preds.(s)) succs.(b)
  done;
  (* Reverse postorder from the entry (unreachable blocks excluded). *)
  let visited = Array.make nblocks false in
  let post = ref [] in
  let rec dfs b =
    if not visited.(b) then begin
      visited.(b) <- true;
      List.iter dfs succs.(b);
      post := b :: !post
    end
  in
  dfs 0;
  let rpo = Array.of_list !post in
  let rpo_num = Array.make nblocks (-1) in
  Array.iteri (fun i b -> rpo_num.(b) <- i) rpo;
  (* Cooper-Harvey-Kennedy iterative dominators over the reachable
     subgraph. *)
  let idom = Array.make nblocks (-1) in
  idom.(0) <- 0;
  let rec intersect a b =
    if a = b then a
    else if rpo_num.(a) > rpo_num.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
         if b <> 0 then begin
           let new_idom =
             List.fold_left
               (fun acc p ->
                  if idom.(p) = -1 then acc
                  else match acc with
                    | None -> Some p
                    | Some a -> Some (intersect a p))
               None preds.(b)
           in
           match new_idom with
           | Some d when idom.(b) <> d ->
             idom.(b) <- d;
             changed := true
           | Some _ | None -> ()
         end)
      rpo
  done;
  idom.(0) <- -1;
  let blocks =
    Array.init nblocks (fun b ->
        { first = first.(b); last = last.(b);
          succs = succs.(b); preds = preds.(b) })
  in
  { program = p; blocks; block_of; has_indirect; rpo; idom }

let reachable t b = b = 0 || t.idom.(b) <> -1

let dominates t a b =
  if not (reachable t a && reachable t b) then false
  else begin
    let rec up x = if x = a then true else if x = 0 then a = 0 else up t.idom.(x) in
    up b
  end

let back_edges t =
  let es = ref [] in
  Array.iteri
    (fun b blk ->
       if reachable t b then
         List.iter
           (fun s -> if dominates t s b then es := (b, s) :: !es)
           blk.succs)
    t.blocks;
  List.rev !es

let natural_loop t ~tail ~head =
  let in_loop = Hashtbl.create 8 in
  Hashtbl.replace in_loop head ();
  let rec add b =
    if not (Hashtbl.mem in_loop b) then begin
      Hashtbl.replace in_loop b ();
      List.iter add t.blocks.(b).preds
    end
  in
  add tail;
  List.filter (Hashtbl.mem in_loop)
    (List.init (Array.length t.blocks) (fun b -> b))

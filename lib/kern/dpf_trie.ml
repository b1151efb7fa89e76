module Machine = Ash_sim.Machine

type key = { offset : int; width : int; mask : int }

(* One alternative at a level: all filters whose next atom reads the
   same (offset, width, mask) share this node and dispatch on the
   comparison value through [edges]. *)
type 'a node = {
  nkey : key;
  edges : (int, 'a level) Hashtbl.t;
  mutable node_min : int; (* lowest priority reachable below this node *)
}

and 'a level = {
  mutable accepts : (int * 'a) list; (* priority-sorted, lowest first *)
  mutable tests : 'a node list;      (* creation order *)
  mutable level_min : int;
}

type 'a t = { root : 'a level; mutable size : int }

let fresh_level () = { accepts = []; tests = []; level_min = max_int }

let create () = { root = fresh_level (); size = 0 }

let size t = t.size

let key_of_atom (a : Dpf.atom) =
  { offset = a.Dpf.offset; width = a.Dpf.width; mask = a.Dpf.mask }

(* ---------------------------------------------------------------- *)
(* Maintenance                                                       *)
(* ---------------------------------------------------------------- *)

let rec insert_level lv ~prio atoms payload =
  lv.level_min <- min lv.level_min prio;
  match atoms with
  | [] ->
    let rec ins = function
      | [] -> [ (prio, payload) ]
      | (p, _) :: _ as rest when prio < p -> (prio, payload) :: rest
      | e :: rest -> e :: ins rest
    in
    lv.accepts <- ins lv.accepts
  | a :: rest ->
    let k = key_of_atom a in
    let node =
      match List.find_opt (fun n -> n.nkey = k) lv.tests with
      | Some n -> n
      | None ->
        let n = { nkey = k; edges = Hashtbl.create 4; node_min = max_int } in
        lv.tests <- lv.tests @ [ n ];
        n
    in
    node.node_min <- min node.node_min prio;
    let sub =
      match Hashtbl.find_opt node.edges a.Dpf.value with
      | Some s -> s
      | None ->
        let s = fresh_level () in
        Hashtbl.add node.edges a.Dpf.value s;
        s
    in
    insert_level sub ~prio rest payload

let insert t ~prio atoms payload =
  insert_level t.root ~prio atoms payload;
  t.size <- t.size + 1

let level_empty lv = lv.accepts = [] && lv.tests = []

let recompute_level_min lv =
  let m = match lv.accepts with (p, _) :: _ -> p | [] -> max_int in
  lv.level_min <- List.fold_left (fun m n -> min m n.node_min) m lv.tests

let recompute_node_min n =
  n.node_min <-
    Hashtbl.fold (fun _ sub m -> min m sub.level_min) n.edges max_int

(* Remove the entries installed with [prio] along [atoms], pruning
   emptied sub-levels and recomputing priority summaries on the way back
   up. Returns how many entries went. *)
let rec remove_level lv ~prio atoms =
  let removed =
    match atoms with
    | [] ->
      let gone, kept = List.partition (fun (p, _) -> p = prio) lv.accepts in
      lv.accepts <- kept;
      List.length gone
    | a :: rest ->
      let k = key_of_atom a in
      (match List.find_opt (fun n -> n.nkey = k) lv.tests with
       | None -> 0
       | Some node ->
         let removed =
           match Hashtbl.find_opt node.edges a.Dpf.value with
           | None -> 0
           | Some sub ->
             let removed = remove_level sub ~prio rest in
             if level_empty sub then Hashtbl.remove node.edges a.Dpf.value;
             removed
         in
         if Hashtbl.length node.edges = 0 then
           lv.tests <- List.filter (fun n -> n != node) lv.tests
         else recompute_node_min node;
         removed)
  in
  recompute_level_min lv;
  removed

let remove t ~prio atoms =
  t.size <- t.size - remove_level t.root ~prio atoms

(* ---------------------------------------------------------------- *)
(* Matching                                                          *)
(* ---------------------------------------------------------------- *)

(* Per-step costs of the merged trie walk, chosen so that walking a
   chain with no shared prefixes charges exactly what executing each
   binding's compiled DPF program (Dpf.compile + the VM) charges: the
   trie is modelled as the same generated code with common prefixes
   merged, not as a cheaper magic structure.

     atom_pre:  Li offset; Call msg_readN; aggregated bound check
     atom_post: Mov/Andi field; Li value; Bne
     accept:    Commit
     reject:    Abort (skipped on a short packet, where the VM kill
                ends the filter before reaching the reject label)

   The field load itself goes through the Machine accessors and is
   priced by the cache model, exactly as the VM's trusted-interface
   reads are. *)
let atom_pre_cycles = 3
let atom_post_cycles = 3
let accept_cycles = 1
let reject_cycles = 1

let load m width addr =
  match width with
  | 1 -> Machine.load8 m addr
  | 2 -> Machine.load16 m addr
  | _ -> Machine.load32 m addr

let lookup t machine ~msg_addr ~msg_len =
  let best = ref None in
  let better p =
    match !best with None -> true | Some (bp, _) -> p < bp
  in
  let rec walk lv =
    (match lv.accepts with
     | (p, v) :: _ when better p ->
       Machine.charge_cycles machine accept_cycles;
       best := Some (p, v)
     | _ -> ());
    List.iter
      (fun n ->
         (* Subtrees that cannot beat the current best are not walked
            and charge nothing: earlier-installed filters shadow them. *)
         if better n.node_min then begin
           Machine.charge_cycles machine atom_pre_cycles;
           if n.nkey.offset + n.nkey.width <= msg_len then begin
             let v = load machine n.nkey.width (msg_addr + n.nkey.offset) in
             Machine.charge_cycles machine atom_post_cycles;
             match Hashtbl.find_opt n.edges (v land n.nkey.mask) with
             | Some sub -> walk sub
             | None -> Machine.charge_cycles machine reject_cycles
           end
         end)
      lv.tests
  in
  walk t.root;
  let matched = !best <> None in
  if Ash_obs.Trace.enabled () then
    Ash_obs.Trace.emit (Ash_obs.Trace.Dpf_eval { compiled = true; matched });
  Option.map snd !best

module Engine = Ash_sim.Engine
module Costs = Ash_sim.Costs

type policy = Oblivious_rr | Priority_boost

type proc = { idx : int; name : string }

type t = {
  engine : Engine.t;
  costs : Costs.t;
  pol : policy;
  start : Ash_sim.Time.ns; (* rotation epoch *)
  mutable procs : proc list; (* reversed *)
  mutable count : int;
}

(* Run-queue scan and cache-pollution penalty per runnable process when a
   priority boost preempts (Ultrix curve slope in Fig. 4). *)
let boost_per_proc_ns = 9_000

let create engine costs ~policy =
  { engine; costs; pol = policy; start = Engine.now engine;
    procs = []; count = 0 }

let policy t = t.pol

let add_proc t ~name =
  let p = { idx = t.count; name } in
  ignore p.name;
  t.procs <- p :: t.procs;
  t.count <- t.count + 1;
  p

(* The rotation is computed arithmetically from the epoch: with [k]
   processes and quantum [q], process [(elapsed / q) mod k] holds the
   CPU. This keeps the event queue free of perpetual rotation events. *)
let position t =
  let q = t.costs.Costs.quantum_ns in
  let elapsed = Engine.now t.engine - t.start in
  let cur = elapsed / q mod max t.count 1 in
  let remaining = q - (elapsed mod q) in
  (cur, remaining)

let is_current t p =
  t.count <= 1
  ||
  let cur, _ = position t in
  cur = p.idx

let wait_until_scheduled t p =
  if t.count <= 1 then 0
  else begin
    let cur, remaining = position t in
    if cur = p.idx then 0
    else
      match t.pol with
      | Oblivious_rr ->
        let q = t.costs.Costs.quantum_ns in
        let ahead = (p.idx - cur + t.count) mod t.count in
        remaining + ((ahead - 1) * q)
      | Priority_boost ->
        t.costs.Costs.interrupt_ns + t.costs.Costs.context_switch_ns
        + (boost_per_proc_ns * (t.count - 1))
  end

type t = {
  costs : Costs.t;
  mem : Memory.t;
  cache : Cache.t;
  mutable meter_cycles : int;
  mutable meter_ns : Time.ns;
  mutable total_cycles : int;
}

let create costs =
  {
    costs;
    mem = Memory.create ();
    cache = Cache.create costs;
    meter_cycles = 0;
    meter_ns = 0;
    total_cycles = 0;
  }

let costs t = t.costs
let mem t = t.mem
let cache t = t.cache

let[@inline] charge_cycles t c =
  t.meter_cycles <- t.meter_cycles + c;
  t.total_cycles <- t.total_cycles + c

let charge_ns t ns = t.meter_ns <- t.meter_ns + ns

let take_ns t =
  let ns = t.meter_ns + Costs.cycles_to_ns t.costs t.meter_cycles in
  t.meter_cycles <- 0;
  t.meter_ns <- 0;
  ns

let pending_ns t = t.meter_ns + Costs.cycles_to_ns t.costs t.meter_cycles

let consumed_cycles t = t.total_cycles

(* Each accessor charges before it touches memory, so a faulting access
   is still paid for. Inline: these run on every simulated load and
   store. *)
let[@inline] load_cost t addr size =
  t.costs.insn_cycles + Cache.load t.cache ~addr ~size

let[@inline] store_cost t addr size =
  t.costs.insn_cycles + Cache.store t.cache ~addr ~size

let[@inline] load8 t addr =
  charge_cycles t (load_cost t addr 1);
  Memory.load8 t.mem addr

let[@inline] load16 t addr =
  charge_cycles t (load_cost t addr 2);
  Memory.load16 t.mem addr

let[@inline] load32 t addr =
  charge_cycles t (load_cost t addr 4);
  Memory.load32 t.mem addr

let[@inline] store8 t addr v =
  charge_cycles t (store_cost t addr 1);
  Memory.store8 t.mem addr v

let[@inline] store16 t addr v =
  charge_cycles t (store_cost t addr 2);
  Memory.store16 t.mem addr v

let[@inline] store32 t addr v =
  charge_cycles t (store_cost t addr 4);
  Memory.store32 t.mem addr v

(* The word loop through the accounted accessors: each access charges,
   then faults if unmapped, so a copy over a hole stops at exactly the
   word that first touches it. *)
let copy_checked t ~src ~dst ~len =
  let words = len / 4 in
  let i = ref 0 in
  while !i < words do
    (* Unrolled by four: one loop-control instruction per group. *)
    let group = min 4 (words - !i) in
    for k = 0 to group - 1 do
      let o = (!i + k) * 4 in
      let v = load32 t (src + o) in
      store32 t (dst + o) v
    done;
    charge_cycles t t.costs.insn_cycles;
    i := !i + group
  done;
  for o = words * 4 to len - 1 do
    let v = load8 t (src + o) in
    store8 t (dst + o) v;
    charge_cycles t t.costs.insn_cycles
  done

(* The same loop once both ranges are known to lie inside resident
   regions, so no access can fault: identical cache walk, cycle total and
   word order (overlapping ranges copy exactly as above), with each
   region resolved once instead of per access. *)
let copy_resident t ~src ~dst ~len (s : Memory.region) (d : Memory.region) =
  let insn = t.costs.insn_cycles in
  let sdata = s.data and soff = src - s.base in
  let ddata = d.data and doff = dst - d.base in
  let cycles = ref 0 in
  let words = len / 4 in
  let i = ref 0 in
  while !i < words do
    let group = min 4 (words - !i) in
    for k = 0 to group - 1 do
      let o = (!i + k) * 4 in
      cycles :=
        !cycles + insn + Cache.load t.cache ~addr:(src + o) ~size:4
        + insn + Cache.store t.cache ~addr:(dst + o) ~size:4;
      Bytes.set_int32_ne ddata (doff + o) (Bytes.get_int32_ne sdata (soff + o))
    done;
    cycles := !cycles + insn;
    i := !i + group
  done;
  for o = words * 4 to len - 1 do
    cycles :=
      !cycles + insn + Cache.load t.cache ~addr:(src + o) ~size:1
      + insn + Cache.store t.cache ~addr:(dst + o) ~size:1 + insn;
    Bytes.set ddata (doff + o) (Bytes.get sdata (soff + o))
  done;
  charge_cycles t !cycles

let copy t ~src ~dst ~len =
  if len < 0 then invalid_arg "Machine.copy";
  charge_cycles t (5 * t.costs.insn_cycles); (* setup *)
  if len > 0 then
    match Memory.locate t.mem src len with
    | exception Memory.Fault _ -> copy_checked t ~src ~dst ~len
    | s -> (
        match Memory.locate t.mem dst len with
        | exception Memory.Fault _ -> copy_checked t ~src ~dst ~len
        | d -> copy_resident t ~src ~dst ~len s d)

let flush_cache t = Cache.flush_all t.cache
let flush_range t ~addr ~len = Cache.flush_range t.cache ~addr ~len
let warm_range t ~addr ~len = Cache.warm_range t.cache ~addr ~len

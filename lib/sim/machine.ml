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
    let group = Int.min 4 (words - !i) in
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

(* [copy_checked]'s charge for a copy that cannot fault, in one sum:
   loads and stores each form one run of words and one of tail bytes,
   and stores touch no tags, so the interleaving does not matter. *)
let copy_cycles t ~src ~dst ~len =
  let insn = t.costs.insn_cycles and c = t.cache in
  let words = len / 4 and tail = len land 3 in
  let o = words * 4 in
  (2 * insn * words) + (insn * ((words + 3) / 4)) + (3 * insn * tail)
  + Cache.load_run c ~addr:src ~size:4 ~count:words
  + Cache.store_run c ~addr:dst ~size:4 ~count:words
  + Cache.load_run c ~addr:(src + o) ~size:1 ~count:tail
  + Cache.store_run c ~addr:(dst + o) ~size:1 ~count:tail

(* A copy with both ranges inside the resident regions [s] and [d].
   [Bytes.blit] is memmove; the word loop differs from it only when the
   destination starts inside the source in the same region, where each
   word re-reads bytes an earlier word wrote, so that case keeps the
   loop's order. *)
let copy_in t ~src ~dst ~len (s : Memory.region) (d : Memory.region) =
  charge_cycles t (copy_cycles t ~src ~dst ~len);
  let soff = src - s.base and doff = dst - d.base in
  if s == d && dst > src && dst < src + len then begin
    let words = len / 4 in
    for k = 0 to words - 1 do
      Bytes.set_int32_ne d.data (doff + (4 * k))
        (Bytes.get_int32_ne s.data (soff + (4 * k)))
    done;
    for o = words * 4 to len - 1 do
      Bytes.set d.data (doff + o) (Bytes.get s.data (soff + o))
    done
  end
  else Bytes.blit s.data soff d.data doff len

let copy t ~src ~dst ~len =
  if len < 0 then invalid_arg "Machine.copy";
  charge_cycles t (5 * t.costs.insn_cycles); (* setup *)
  if len > 0 then
    match Memory.locate t.mem src len with
    | exception Memory.Fault _ -> copy_checked t ~src ~dst ~len
    | s -> (
        match Memory.locate t.mem dst len with
        | exception Memory.Fault _ -> copy_checked t ~src ~dst ~len
        | d -> copy_in t ~src ~dst ~len s d)

(* Stripe [k] is bytes [k*stripe, (k+1)*stripe) of the data, at
   [src + 2*k*stripe] in the source, so the striped span is [len + last]
   bytes long, [last] being the data offset of the last stripe. *)
let destripe_copies t ~src ~dst ~len ~stripe =
  let off = ref 0 in
  while !off < len do
    copy t ~src:(src + (2 * !off)) ~dst:(dst + !off)
      ~len:(Int.min stripe (len - !off));
    off := !off + stripe
  done

let destripe t ~src ~dst ~len ~stripe =
  if len < 0 || stripe <= 0 then invalid_arg "Machine.destripe";
  if len > 0 then begin
    let last = (len - 1) / stripe * stripe in
    match Memory.locate t.mem src (len + last) with
    | exception Memory.Fault _ -> destripe_copies t ~src ~dst ~len ~stripe
    | s -> (
        match Memory.locate t.mem dst len with
        | exception Memory.Fault _ -> destripe_copies t ~src ~dst ~len ~stripe
        | d ->
          let off = ref 0 in
          while !off < len do
            charge_cycles t (5 * t.costs.insn_cycles); (* copy's setup *)
            copy_in t ~src:(src + (2 * !off)) ~dst:(dst + !off)
              ~len:(Int.min stripe (len - !off)) s d;
            off := !off + stripe
          done)
  end

let flush_cache t = Cache.flush_all t.cache
let flush_range t ~addr ~len = Cache.flush_range t.cache ~addr ~len
let warm_range t ~addr ~len = Cache.warm_range t.cache ~addr ~len

type region = {
  base : int;
  len : int;
  data : Bytes.t;
  name : string;
  mutable resident : bool;
}

exception Fault of { addr : int; size : int; reason : string }

(* Lookups memoize the two most recently found regions: [last] and
   [prev]. A hit in either slot writes nothing — the DILP loop alternates
   source and destination, and the TCP fast path message and TCB, so
   both stay memoized without a single store per access. A miss moves
   [last] into [prev]. [none] = empty slot. *)
type t = {
  mutable regions : region array; (* sorted by base *)
  mutable count : int;
  mutable brk : int;
  mutable last : region;
  mutable prev : region;
}

(* The "no region" sentinel: never in [regions], never resident. Lookups
   return it instead of [None] so the hot path allocates nothing. *)
let none = { base = 0; len = 0; data = Bytes.empty; name = ""; resident = false }

let guard_gap = 256
let alignment = 16

let create () =
  { regions = Array.make 16 none; count = 0; brk = 0x1000; last = none;
    prev = none }

let alloc t ?(name = "region") ?(resident = true) len =
  if len <= 0 then invalid_arg "Memory.alloc: non-positive length";
  let base = (t.brk + alignment - 1) / alignment * alignment in
  let r = { base; len; data = Bytes.make len '\000'; name; resident } in
  t.brk <- base + len + guard_gap;
  if t.count = Array.length t.regions then begin
    let bigger = Array.make (2 * t.count) r in
    Array.blit t.regions 0 bigger 0 t.count;
    t.regions <- bigger
  end;
  t.regions.(t.count) <- r;
  t.count <- t.count + 1;
  r

let set_resident r v = r.resident <- v

let region_count t = t.count

(* Release a region: later accesses to its addresses fault, so
   use-after-teardown is caught rather than silently reading stale
   bytes. The address space is not reused (brk never rewinds); only the
   lookup structure shrinks. *)
let free t r =
  let idx = ref (-1) in
  let lo = ref 0 and hi = ref (t.count - 1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = t.regions.(mid) in
    if c.base = r.base then begin
      idx := mid;
      lo := !hi + 1
    end
    else if c.base < r.base then lo := mid + 1
    else hi := mid - 1
  done;
  if !idx < 0 || t.regions.(!idx) != r then
    invalid_arg "Memory.free: not a live region";
  Array.blit t.regions (!idx + 1) t.regions !idx (t.count - !idx - 1);
  t.count <- t.count - 1;
  (* The vacated slot would otherwise keep the last region reachable. *)
  t.regions.(t.count) <- none;
  t.last <- none;
  t.prev <- none

let contains r addr size = addr >= r.base && addr + size <= r.base + r.len

(* Binary search for the region wholly containing [addr, addr+size), or
   [none]; a hit becomes [last]. *)
let search t addr size =
  let lo = ref 0 and hi = ref (t.count - 1) and found = ref none in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let r = t.regions.(mid) in
    if r.base <= addr then begin
      if addr + size <= r.base + r.len then begin
        found := r;
        lo := !hi + 1
      end
      else lo := mid + 1
    end
    else hi := mid - 1
  done;
  let r = !found in
  if r != none then begin
    t.prev <- t.last;
    t.last <- r
  end;
  r

(* The region wholly containing [addr, addr+size), or [none]. *)
let lookup t addr size =
  let r = t.last in
  if r != none && contains r addr size then r
  else
    let r = t.prev in
    if r != none && contains r addr size then r else search t addr size

let resident_at t ~addr ~size = (lookup t addr size).resident

let locate_slow t addr size =
  let r = lookup t addr size in
  if r == none then raise (Fault { addr; size; reason = "unmapped" })
  else if not r.resident then
    raise (Fault { addr; size; reason = "non-resident page" })
  else r

(* [none] is never resident, so one test covers "slot filled" too. *)
let[@inline] locate t addr size =
  let r = t.last in
  if r.resident && contains r addr size then r else locate_slow t addr size

let[@inline] load8 t addr =
  let r = locate t addr 1 in
  Char.code (Bytes.get r.data (addr - r.base))

let[@inline] load16 t addr =
  let r = locate t addr 2 in
  Bytes.get_uint16_be r.data (addr - r.base)

let[@inline] load32 t addr =
  let r = locate t addr 4 in
  Int32.to_int (Bytes.get_int32_be r.data (addr - r.base)) land 0xffff_ffff

let[@inline] store8 t addr v =
  let r = locate t addr 1 in
  Bytes.set r.data (addr - r.base) (Char.unsafe_chr (v land 0xff))

let[@inline] store16 t addr v =
  let r = locate t addr 2 in
  Bytes.set_uint16_be r.data (addr - r.base) (v land 0xffff)

let[@inline] store32 t addr v =
  let r = locate t addr 4 in
  Bytes.set_int32_be r.data (addr - r.base) (Int32.of_int v)

let blit_from_bytes t ~src ~src_off ~dst ~len =
  if len = 0 then ()
  else begin
    let r = locate t dst len in
    Bytes.blit src src_off r.data (dst - r.base) len
  end

let blit_to_bytes t ~src ~dst ~dst_off ~len =
  if len = 0 then ()
  else begin
    let r = locate t src len in
    Bytes.blit r.data (src - r.base) dst dst_off len
  end

let blit t ~src ~dst ~len =
  if len = 0 then ()
  else begin
    let s = locate t src len in
    let d = locate t dst len in
    Bytes.blit s.data (src - s.base) d.data (dst - d.base) len
  end

let fill t ~addr ~len c =
  if len = 0 then ()
  else begin
    let r = locate t addr len in
    Bytes.fill r.data (addr - r.base) len c
  end

let read_string t ~addr ~len =
  if len = 0 then ""
  else begin
    let r = locate t addr len in
    Bytes.sub_string r.data (addr - r.base) len
  end

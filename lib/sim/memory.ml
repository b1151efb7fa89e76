type region = {
  base : int;
  len : int;
  data : Bytes.t;
  name : string;
  mutable resident : bool;
}

exception Fault of { addr : int; size : int; reason : string }

(* [regions] is sorted by base; a freed region's entry is a tombstone
   (see [free]) and entries from [count] up are [none]. Every lookup
   first reads one slot of [cache], a direct-mapped region cache indexed
   by the address's granule. A hit tests [resident] and the span and
   writes nothing: [cache] lives in the major heap, so each store into a
   slot is a [caml_modify] write barrier. A miss binary-searches
   [regions] and fills the slot. [none] = empty slot. *)
type t = {
  mutable regions : region array;
  mutable count : int; (* entries, tombstones included *)
  mutable live : int;
  mutable brk : int;
  cache : region array;
}

(* The "no region" sentinel: never a live entry of [regions], never
   resident. Lookups return it instead of [None] so the hot path
   allocates nothing. *)
let none = { base = 0; len = 0; data = Bytes.empty; name = ""; resident = false }

let guard_gap = 256
let alignment = 16

(* The granule is the largest power of two not above the guard gap, so
   no granule holds bytes of two live regions, which would share its
   slot and evict each other on every alternating access. 1024 slots
   reach 256 KiB; farther addresses alias, and a hit checks the span. *)
let granule_bits =
  let rec go b = if 2 lsl b > guard_gap then b else go (b + 1) in
  go 0

let slots = 1024
let[@inline] slot addr = (addr lsr granule_bits) land (slots - 1)

(* Compaction waits for more tombstones than this, whatever the live
   count, so a table of a few regions is never rebuilt. *)
let compact_floor = 16

let create () =
  { regions = Array.make 16 none; count = 0; live = 0; brk = 0x1000;
    cache = Array.make slots none }

let alloc t ?(name = "region") ?(resident = true) len =
  if len <= 0 then invalid_arg "Memory.alloc: non-positive length";
  let base = (t.brk + alignment - 1) / alignment * alignment in
  let r = { base; len; data = Bytes.make len '\000'; name; resident } in
  t.brk <- base + len + guard_gap;
  if t.count = Array.length t.regions then begin
    let bigger = Array.make (2 * t.count) none in
    Array.blit t.regions 0 bigger 0 t.count;
    t.regions <- bigger
  end;
  t.regions.(t.count) <- r;
  t.count <- t.count + 1;
  t.live <- t.live + 1;
  r

let set_resident r v = r.resident <- v

let region_count t = t.live

(* A live region's bytes are never empty: [alloc] rejects length 0. *)
let[@inline] tombstone r = Bytes.length r.data = 0

(* The index of the last entry whose base is at most [addr], or -1. *)
let floor_index t addr =
  let lo = ref 0 and hi = ref (t.count - 1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if t.regions.(mid).base <= addr then lo := mid + 1 else hi := mid - 1
  done;
  !hi

let rebuild_from_live t =
  let n = ref 0 in
  for i = 0 to t.count - 1 do
    let r = t.regions.(i) in
    if not (tombstone r) then begin
      t.regions.(!n) <- r;
      incr n
    end
  done;
  Array.fill t.regions !n (t.count - !n) none;
  t.count <- !n

(* Release a region: later accesses to its addresses fault "unmapped",
   so use-after-teardown is caught rather than silently reading stale
   bytes. The address space is not reused (brk never rewinds). The entry
   becomes a tombstone, the region's base and length with no bytes, so
   no entry moves: every entry moved would pay a write barrier. Once
   tombstones outnumber live regions (and [compact_floor]), the table
   is rebuilt from its live entries, so a free costs amortized
   O(log n). The freed region's cache slots are cleared, which leaves
   nothing holding it or its bytes. *)
let free t r =
  let i = floor_index t r.base in
  if i < 0 || t.regions.(i) != r then
    invalid_arg "Memory.free: not a live region";
  t.regions.(i) <- { r with data = Bytes.empty; resident = false };
  t.live <- t.live - 1;
  let first = r.base lsr granule_bits in
  let last = (r.base + r.len - 1) lsr granule_bits in
  for g = first to Int.min last (first + slots - 1) do
    let s = g land (slots - 1) in
    if t.cache.(s) == r then t.cache.(s) <- none
  done;
  if t.count - t.live > Int.max t.live compact_floor then rebuild_from_live t

(* Written so that no sum wraps: [addr + size] would, near [max_int]. *)
let[@inline] contains r addr size =
  addr >= r.base && size <= r.base + r.len - addr

(* The live region wholly containing [addr, addr+size), or [none].
   Regions do not overlap, so only the entry [floor_index] finds can
   contain it, and a tombstone is a miss. *)
let search t addr size =
  let i = floor_index t addr in
  if i < 0 then none
  else
    let r = t.regions.(i) in
    if tombstone r || not (contains r addr size) then none else r

(* A miss fills the slot only with a region that holds [addr]'s own
   byte, so a region sits only in the slots of its own granules: the
   ones [free] clears. *)
let lookup t addr size =
  let s = slot addr in
  let r = t.cache.(s) in
  if contains r addr size then r
  else begin
    let r = search t addr size in
    if r != none && addr < r.base + r.len then t.cache.(s) <- r;
    r
  end

let resident_at t ~addr ~size = (lookup t addr size).resident

let locate_slow t addr size =
  let r = lookup t addr size in
  if r == none then raise (Fault { addr; size; reason = "unmapped" })
  else if not r.resident then
    raise (Fault { addr; size; reason = "non-resident page" })
  else r

(* [slot] is below [slots], the cache's length. [none] is never
   resident, so one test covers an empty slot too. *)
let[@inline] locate t addr size =
  let r = Array.unsafe_get t.cache (slot addr) in
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

type access = Hit | Miss

type t = {
  line : int;
  line_shift : int;
  lines : int;
  index_mask : int;
  tags : int array; (* -1 = invalid, otherwise the line-aligned address *)
  load_extra : int;
  store_extra : int;
  miss_penalty : int;
  mutable hits : int;
  mutable misses : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n = 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create (c : Costs.t) =
  if not (is_pow2 c.cache_size && is_pow2 c.cache_line) then
    invalid_arg "Cache.create: size and line must be powers of two";
  let lines = c.cache_size / c.cache_line in
  {
    line = c.cache_line;
    line_shift = log2 c.cache_line;
    lines;
    index_mask = lines - 1;
    tags = Array.make lines (-1);
    load_extra = c.load_extra_cycles;
    store_extra = c.store_extra_cycles;
    miss_penalty = c.miss_penalty_cycles;
    hits = 0;
    misses = 0;
  }

let line_addr t addr = addr land lnot (t.line - 1)

let index t addr = (addr lsr t.line_shift) land t.index_mask

(* The lines covered by [addr, addr+size) run from [line_addr t addr]
   to [line_addr t (addr + size - 1)] in steps of [t.line]. Every walk
   below is a plain loop: these run on every simulated access, so they
   must not allocate. *)

let load_lines t ~addr ~size =
  let cost = ref 0 in
  if size > 0 then begin
    let last = line_addr t (addr + size - 1) in
    let la = ref (line_addr t addr) in
    while !la <= last do
      let i = index t !la in
      if t.tags.(i) = !la then begin
        t.hits <- t.hits + 1;
        cost := !cost + t.load_extra
      end
      else begin
        t.misses <- t.misses + 1;
        t.tags.(i) <- !la;
        cost := !cost + t.load_extra + t.miss_penalty
      end;
      la := !la + t.line
    done
  end;
  !cost

(* The common single-line access inline; spanning and empty ones take
   the general walk. *)
let[@inline] load t ~addr ~size =
  let la = line_addr t addr in
  if size > 0 && line_addr t (addr + size - 1) = la then begin
    let i = index t la in
    if t.tags.(i) = la then begin
      t.hits <- t.hits + 1;
      t.load_extra
    end
    else begin
      t.misses <- t.misses + 1;
      t.tags.(i) <- la;
      t.load_extra + t.miss_penalty
    end
  end
  else load_lines t ~addr ~size

(* How many lines [addr, addr + len) covers, for [len > 0]. *)
let[@inline] lines_in t ~addr ~len =
  ((line_addr t (addr + len - 1) - line_addr t addr) asr t.line_shift) + 1

let[@inline] store t ~addr ~size =
  (* Write-through, no allocate: cost is per line touched; a store hit
     keeps the line valid (the data array is shared with memory in our
     model so no value update is needed). *)
  if size <= 0 then 0 else lines_in t ~addr ~len:size * t.store_extra

(* A run of [count] accesses of [size] bytes at [addr], [addr + size],
   ... in ascending order touches every line of its span, and all the
   touches of one line are consecutive: no access spans more than two
   lines ([size] is at most a line) and nothing else loads in between.
   So only a line's first touch can miss, and walking the span's lines
   in order, checking and setting each tag once, leaves the tags and
   counts a loop of [load]s would leave, even when the span wraps the
   index space. [size] divides the line (both are powers of two), so an
   aligned run straddles no line boundary and an unaligned one
   straddles every boundary inside its span.

   This walk, [flush_range] and [warm_range] step through consecutive
   tag indices, wrapping at the end of the array, with the record's
   fields read once: the line after [la] has the index after [la]'s. *)

let check_run fn t ~size =
  if size <= 0 || size > t.line || size land (size - 1) <> 0 then
    invalid_arg (fn ^ ": size must be a power of two up to a line")

(* The run's touches, from the [lines] its span covers. *)
let touches ~addr ~size ~count ~lines =
  if addr land (size - 1) = 0 then count else count + lines - 1

let load_run t ~addr ~size ~count =
  check_run "Cache.load_run" t ~size;
  if count <= 0 then 0
  else begin
    let lines = lines_in t ~addr ~len:(count * size) in
    let tags = t.tags and line = t.line and mask = t.index_mask in
    let la = ref (line_addr t addr) in
    let i = ref (index t !la) and misses = ref 0 in
    for _ = 1 to lines do
      if tags.(!i) <> !la then begin
        incr misses;
        tags.(!i) <- !la
      end;
      la := !la + line;
      i := (!i + 1) land mask
    done;
    let touches = touches ~addr ~size ~count ~lines in
    t.misses <- t.misses + !misses;
    t.hits <- t.hits + touches - !misses;
    (touches * t.load_extra) + (!misses * t.miss_penalty)
  end

let store_run t ~addr ~size ~count =
  check_run "Cache.store_run" t ~size;
  if count <= 0 then 0
  else
    let lines = lines_in t ~addr ~len:(count * size) in
    touches ~addr ~size ~count ~lines * t.store_extra

let load_run_worst t ~addr ~size ~count =
  check_run "Cache.load_run_worst" t ~size;
  if count <= 0 then 0
  else
    let lines = lines_in t ~addr ~len:(count * size) in
    (touches ~addr ~size ~count ~lines * t.load_extra)
    + (lines * t.miss_penalty)

let probe t ~addr =
  let la = line_addr t addr in
  if t.tags.(index t la) = la then Hit else Miss

let flush_all t = Array.fill t.tags 0 t.lines (-1)

let flush_range t ~addr ~len =
  if len > 0 then begin
    let tags = t.tags and line = t.line and mask = t.index_mask in
    let la = ref (line_addr t addr) in
    let i = ref (index t !la) in
    for _ = 1 to lines_in t ~addr ~len do
      if tags.(!i) = !la then tags.(!i) <- -1;
      la := !la + line;
      i := (!i + 1) land mask
    done
  end

let warm_range t ~addr ~len =
  if len > 0 then begin
    let tags = t.tags and line = t.line and mask = t.index_mask in
    let la = ref (line_addr t addr) in
    let i = ref (index t !la) in
    for _ = 1 to lines_in t ~addr ~len do
      tags.(!i) <- !la;
      la := !la + line;
      i := (!i + 1) land mask
    done
  end

let stats t = (t.hits, t.misses)

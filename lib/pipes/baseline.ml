module Machine = Ash_sim.Machine
module Memory = Ash_sim.Memory
module Cache = Ash_sim.Cache
module Costs = Ash_sim.Costs
module Checksum = Ash_util.Checksum
module Bytesx = Ash_util.Bytesx

let copy m ~src ~dst ~len = Machine.copy m ~src ~dst ~len

(* Per 16-bit word: load (charged via cache), add, periodic fold. We
   charge two ALU cycles per word (add + carry handling) plus half a
   loop-control cycle (unrolled by two words). Each load charges before
   it faults, so a pass over a hole stops at the halfword that first
   touches it. *)
let cksum16_checked m ~addr ~len =
  Machine.charge_cycles m 5;
  let sum = ref 0 in
  let i = ref 0 in
  while !i + 1 < len do
    sum := !sum + Machine.load16 m (addr + !i);
    Machine.charge_cycles m 2;
    if !sum > 0xffff_ffff then sum := (!sum land 0xffff_ffff) + 1;
    i := !i + 2
  done;
  if len land 1 = 1 then begin
    sum := !sum + (Machine.load8 m (addr + len - 1) lsl 8);
    Machine.charge_cycles m 2
  end;
  Checksum.fold16 !sum

external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external bswap16 : int -> int = "%bswap16"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

(* Big-endian halfword and word, unchecked: callers read only inside a
   range [Memory.locate] found wholly within the region's data. *)
let[@inline] unsafe_be16 b i =
  let v = get16u b i in
  if Sys.big_endian then v else bswap16 v

let unsafe_be32 b i =
  let v = get32u b i in
  Int32.to_int (if Sys.big_endian then v else swap32 v) land 0xffff_ffff

(* One call sums a whole transfer: [cksum16_pass] and DILP's word
   kernel share this loop (baseline_stubs.c). *)
external unsafe_sum_be32 :
  Bytes.t -> int -> int -> write:bool -> Bytes.t -> int -> int
  = "ash_sum_be32_byte" "ash_sum_be32"
[@@noalloc]

(* The same pass over a range that cannot fault: its charge in one sum,
   the halfword loads as one cache run and the odd byte as another, and
   the same sum read straight from the region in 32-bit words. Since
   2^16 = 1 (mod 0xffff), a word adds what its two halfwords do, so the
   plain sum of the words, the trailing halfword and the odd byte has
   the residue of the per-halfword sum; both are 0 only when every
   halfword is, and [fold16] maps each to the one value in [1, 0xffff]
   with that residue. The plain sum cannot overflow: a region would need
   2^32 bytes. *)
let cksum16_pass m ~addr ~len =
  if len <= 0 then cksum16_checked m ~addr ~len
  else
    match Memory.locate (Machine.mem m) addr len with
    | exception Memory.Fault _ -> cksum16_checked m ~addr ~len
    | r ->
      let halves = len / 2 and odd = len land 1 in
      let c = Machine.cache m in
      Machine.charge_cycles m
        (5
         + ((halves + odd) * ((Machine.costs m).Costs.insn_cycles + 2))
         + Cache.load_run c ~addr ~size:2 ~count:halves
         + Cache.load_run c ~addr:(addr + len - odd) ~size:1 ~count:odd);
      let data = r.Memory.data and off = addr - r.Memory.base in
      let words = unsafe_sum_be32 data off (len / 4) ~write:false data off in
      let sum = ref words in
      if len land 2 <> 0 then
        sum := !sum + unsafe_be16 data (off + (len land lnot 3));
      if odd = 1 then
        sum := !sum + (Char.code (Bytes.get data (off + len - 1)) lsl 8);
      Checksum.fold16 !sum

let byteswap_pass m ~addr ~len =
  if len land 3 <> 0 then invalid_arg "Baseline.byteswap_pass";
  Machine.charge_cycles m 5;
  let i = ref 0 in
  while !i < len do
    let v = Machine.load32 m (addr + !i) in
    (* The shift/or sequence a compiler emits without a bswap insn. *)
    Machine.charge_cycles m 9;
    Machine.store32 m (addr + !i) (Bytesx.bswap32 v);
    Machine.charge_cycles m 1;
    i := !i + 4
  done

let integrated_copy_cksum m ~src ~dst ~len =
  if len land 3 <> 0 then invalid_arg "Baseline.integrated_copy_cksum";
  Machine.charge_cycles m 5;
  let sum = ref 0 in
  let i = ref 0 in
  while !i < len do
    let v = Machine.load32 m (src + !i) in
    (* Add-with-carry accumulation: 2 cycles. Loop control unrolled by
       four: 1 cycle per word. *)
    Machine.charge_cycles m 3;
    sum := !sum + v;
    if !sum > 0xffff_ffff then sum := (!sum land 0xffff_ffff) + 1;
    Machine.store32 m (dst + !i) v;
    i := !i + 4
  done;
  Checksum.fold32_to16 !sum

let integrated_copy_cksum_bswap m ~src ~dst ~len =
  if len land 3 <> 0 then invalid_arg "Baseline.integrated_copy_cksum_bswap";
  Machine.charge_cycles m 5;
  let sum = ref 0 in
  let i = ref 0 in
  while !i < len do
    let v = Machine.load32 m (src + !i) in
    Machine.charge_cycles m 12; (* cksum (2) + bswap sequence (9) + loop (1) *)
    sum := !sum + v;
    if !sum > 0xffff_ffff then sum := (!sum land 0xffff_ffff) + 1;
    Machine.store32 m (dst + !i) (Bytesx.bswap32 v);
    i := !i + 4
  done;
  Checksum.fold32_to16 !sum

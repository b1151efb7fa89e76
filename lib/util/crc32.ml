(* Native ints throughout: the CRC register fits in 32 bits of a 63-bit
   int, so no step boxes an [int32]. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 <> 0 then c := 0xedb88320 lxor (!c lsr 1)
        else c := !c lsr 1
      done;
      !c)

(* Slicing-by-8: [slices.(256*k + n)] is the CRC register after byte [n]
   followed by [k] zero bytes, so eight table lookups advance the
   register over eight bytes at once. Slice 0 is [table]. *)
let slices =
  let s = Array.make (8 * 256) 0 in
  Array.blit table 0 s 0 256;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = s.((256 * (k - 1)) + n) in
      s.((256 * k) + n) <- (prev lsr 8) lxor table.(prev land 0xff)
    done
  done;
  s

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

(* Little-endian 32-bit read, unchecked: callers stay within the bounds
   [digest] checked up front. *)
let[@inline] le32 b i =
  let v = get32u b i in
  Int32.to_int (if Sys.big_endian then swap32 v else v) land 0xffff_ffff

let[@inline] slice k n = Array.unsafe_get slices ((256 * k) + (n land 0xff))

(* True on an x86-64 host with PCLMULQDQ and SSE4.1 (crc32_stubs.c). *)
external clmul_available : unit -> bool = "ash_crc32_clmul_available"

(* [fold b off len crc] is the register after the [len] bytes at [off],
   from register [crc], by carry-less multiplication; [len] is a
   multiple of 16 and at least 64, the four 16-byte lanes it starts
   from. Unchecked: [digest] checks the bounds first. *)
external fold : Bytes.t -> int -> int -> int -> int = "ash_crc32_fold"
[@@noalloc]

let clmul = clmul_available ()

let digest b ~off ~len =
  (* No sum here can wrap: the fold and the loops read unchecked. *)
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Crc32.digest";
  (* The fold takes the largest 16-byte multiple; the slicing loops
     finish the tail, or run the whole slice without it. *)
  let folded = if clmul && len >= 64 then len land lnot 15 else 0 in
  let crc =
    ref (if folded = 0 then 0xffffffff else fold b off folded 0xffffffff)
  in
  let start = off + folded in
  let i = ref start in
  let stop8 = start + ((len - folded) land lnot 7) in
  while !i < stop8 do
    let lo = !crc lxor le32 b !i and hi = le32 b (!i + 4) in
    crc :=
      slice 7 lo lxor slice 6 (lo lsr 8) lxor slice 5 (lo lsr 16)
      lxor slice 4 (lo lsr 24) lxor slice 3 hi lxor slice 2 (hi lsr 8)
      lxor slice 1 (hi lsr 16) lxor slice 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to off + len - 1 do
    (* In bounds by the check above; the index is masked to 0..255. *)
    let byte = Char.code (Bytes.unsafe_get b j) in
    crc := slice 0 (!crc lxor byte) lxor (!crc lsr 8)
  done;
  Int32.of_int (!crc lxor 0xffffffff)

let digest_string s =
  digest (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

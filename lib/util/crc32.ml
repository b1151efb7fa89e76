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

let digest b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Crc32.digest";
  let crc = ref 0xffffffff in
  let i = ref off in
  let stop8 = off + (len land lnot 7) in
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

let check b off len name =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg name

let get_u8 b off =
  check b off 1 "Bytesx.get_u8";
  Char.code (Bytes.get b off)

let set_u8 b off v =
  check b off 1 "Bytesx.set_u8";
  Bytes.set b off (Char.chr (v land 0xff))

(* The multi-byte accessors keep their own bounds check (and its
   message) in front of the stdlib's. *)
let get_u16 b off =
  check b off 2 "Bytesx.get_u16";
  Bytes.get_uint16_be b off

let set_u16 b off v =
  check b off 2 "Bytesx.set_u16";
  Bytes.set_uint16_be b off (v land 0xffff)

let get_u32 b off =
  check b off 4 "Bytesx.get_u32";
  Int32.to_int (Bytes.get_int32_be b off) land 0xffff_ffff

let set_u32 b off v =
  check b off 4 "Bytesx.set_u32";
  Bytes.set_int32_be b off (Int32.of_int v)

let get_u16_le b off =
  check b off 2 "Bytesx.get_u16_le";
  Bytes.get_uint16_le b off

let set_u16_le b off v =
  check b off 2 "Bytesx.set_u16_le";
  Bytes.set_uint16_le b off (v land 0xffff)

let get_u32_le b off =
  check b off 4 "Bytesx.get_u32_le";
  Int32.to_int (Bytes.get_int32_le b off) land 0xffff_ffff

let set_u32_le b off v =
  check b off 4 "Bytesx.set_u32_le";
  Bytes.set_int32_le b off (Int32.of_int v)

let bswap16 v = ((v land 0xff) lsl 8) lor ((v lsr 8) land 0xff)

let bswap32 v =
  ((v land 0xff) lsl 24)
  lor ((v land 0xff00) lsl 8)
  lor ((v lsr 8) land 0xff00)
  lor ((v lsr 24) land 0xff)

let equal_slice a aoff b boff len =
  check a aoff len "Bytesx.equal_slice";
  check b boff len "Bytesx.equal_slice";
  let rec loop i =
    i >= len
    || (Bytes.get a (aoff + i) = Bytes.get b (boff + i) && loop (i + 1))
  in
  loop 0

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

let digest b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Crc32.digest";
  let crc = ref 0xffffffff in
  for i = off to off + len - 1 do
    (* In bounds by the check above; the index is masked to 0..255. *)
    let byte = Char.code (Bytes.unsafe_get b i) in
    crc := Array.unsafe_get table ((!crc lxor byte) land 0xff) lxor (!crc lsr 8)
  done;
  Int32.of_int (!crc lxor 0xffffffff)

let digest_string s =
  digest (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

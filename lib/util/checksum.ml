let fold16 sum =
  let s = ref sum in
  while !s > 0xffff do
    s := (!s land 0xffff) + (!s lsr 16)
  done;
  !s

let fold32_to16 sum32 =
  fold16 ((sum32 lsr 16) + (sum32 land 0xffff))

let ones_sum ?(acc = 0) b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Checksum.ones_sum";
  let sum = ref acc in
  let i = ref off in
  let stop = off + len - 1 in
  while !i < stop do
    sum := !sum + Char.code (Bytes.get b !i) * 256
           + Char.code (Bytes.get b (!i + 1));
    if !sum > 0xffff_ffff then sum := (!sum land 0xffff_ffff) + 1;
    i := !i + 2
  done;
  if len land 1 = 1 then begin
    sum := !sum + Char.code (Bytes.get b (off + len - 1)) * 256;
    if !sum > 0xffff_ffff then sum := (!sum land 0xffff_ffff) + 1
  end;
  !sum

let sum32 ?(acc = 0) b ~off ~len =
  if len land 3 <> 0 then invalid_arg "Checksum.sum32: len not multiple of 4";
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Checksum.sum32";
  let sum = ref acc in
  let i = ref off in
  let stop = off + len in
  while !i < stop do
    let w =
      Char.code (Bytes.get b !i) lsl 24
      lor (Char.code (Bytes.get b (!i + 1)) lsl 16)
      lor (Char.code (Bytes.get b (!i + 2)) lsl 8)
      lor Char.code (Bytes.get b (!i + 3))
    in
    sum := !sum + w;
    if !sum > 0xffff_ffff then sum := (!sum land 0xffff_ffff) + 1;
    i := !i + 4
  done;
  !sum

let finish sum = lnot (fold16 sum) land 0xffff

let checksum b ~off ~len = finish (ones_sum b ~off ~len)

let verify b ~off ~len = fold16 (ones_sum b ~off ~len) = 0xffff

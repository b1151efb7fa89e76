type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let golden = 0x9e3779b97f4a7c15L

let next64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next t = Int64.to_int (Int64.shift_right_logical (next64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int";
  next t mod bound

let byte t = Char.chr (int t 256)

let fill_bytes t b =
  for i = 0 to Bytes.length b - 1 do
    Bytes.set b i (byte t)
  done

let float t bound = Int64.to_float (Int64.shift_right_logical (next64 t) 11)
                    /. 9007199254740992. *. bound

let split t = { state = next64 t }

type ns = int

let ns_of_us us = int_of_float (Float.round (us *. 1_000.))
let us_of_ns ns = float_of_int ns /. 1_000.
let ms_of_ns ns = float_of_int ns /. 1_000_000.

let ns_of_cycles ~cycle_ns n =
  int_of_float (Float.round (float_of_int n *. cycle_ns))

let mbytes_per_sec ~bytes ns =
  if ns = 0 then infinity
  else float_of_int bytes /. (float_of_int ns /. 1e9) /. 1e6

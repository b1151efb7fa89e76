type summary = {
  n : int;
  mean : float;
  stddev : float;
  ci95 : float;
  min : float;
  max : float;
}

(* Two-tailed Student-t critical values at 95% for small n; beyond the
   table we use the normal approximation 1.96. *)
let t_crit = function
  | 1 -> 12.706
  | 2 -> 4.303
  | 3 -> 3.182
  | 4 -> 2.776
  | 5 -> 2.571
  | 6 -> 2.447
  | 7 -> 2.365
  | 8 -> 2.306
  | 9 -> 2.262
  | 10 -> 2.228
  | 15 -> 2.131
  | 20 -> 2.086
  | df when df <= 0 -> invalid_arg "Stats.t_crit"
  | df when df < 15 -> 2.2
  | df when df < 30 -> 2.05
  | _ -> 1.96

let mean = function
  | [] -> invalid_arg "Stats.mean: empty"
  | samples ->
    List.fold_left ( +. ) 0. samples /. float_of_int (List.length samples)

let summarize = function
  | [] -> invalid_arg "Stats.summarize: empty"
  | samples ->
    let n = List.length samples in
    let m = mean samples in
    let sq_dev x = (x -. m) *. (x -. m) in
    let var =
      if n = 1 then 0.
      else List.fold_left (fun acc x -> acc +. sq_dev x) 0. samples
           /. float_of_int (n - 1)
    in
    let stddev = sqrt var in
    let ci95 =
      if n = 1 then 0.
      else t_crit (n - 1) *. stddev /. sqrt (float_of_int n)
    in
    let min = List.fold_left Float.min Float.infinity samples in
    let max = List.fold_left Float.max Float.neg_infinity samples in
    { n; mean = m; stddev; ci95; min; max }

let percentile p = function
  | [] -> invalid_arg "Stats.percentile: empty"
  | _ when p < 0. || p > 100. -> invalid_arg "Stats.percentile: out of range"
  | samples ->
    let sorted = List.sort Float.compare samples in
    let n = List.length sorted in
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    let idx = if rank <= 0 then 0 else Stdlib.min (rank - 1) (n - 1) in
    List.nth sorted idx

module Rng = Ash_util.Rng
module Trace = Ash_obs.Trace

type config = {
  seed : int;
  drop : float;
  corrupt : float;
  truncate : float;
  duplicate : float;
  reorder : float;
  reorder_delay_ns : int;
  jitter : float;
  jitter_max_ns : int;
}

let none =
  {
    seed = 1;
    drop = 0.0;
    corrupt = 0.0;
    truncate = 0.0;
    duplicate = 0.0;
    reorder = 0.0;
    reorder_delay_ns = 400_000;
    jitter = 0.0;
    jitter_max_ns = 50_000;
  }

let lossy ?(seed = 1) rate = { none with seed; drop = rate }

let storm ?(seed = 1) rate =
  {
    none with
    seed;
    drop = rate;
    corrupt = rate;
    truncate = rate;
    duplicate = rate;
    reorder = rate;
    jitter = rate;
  }

(* A partition is total loss on the direction it is installed on. It is
   an ordinary plan — one uniform draw per frame, always selecting Drop
   — so swapping a partition in and out of a direction mid-run does not
   shift the RNG stream shape of any other plan. *)
let partition ?(seed = 1) () = { none with seed; drop = 1.0 }

type outage = { down_at : int; heal_at : int }

let outage ~down_at ~heal_at =
  if down_at < 0 then invalid_arg "Fault.outage: negative down_at";
  if heal_at <= down_at then invalid_arg "Fault.outage: heal_at before down_at";
  { down_at; heal_at }

let outage_active o ~now = now >= o.down_at && now < o.heal_at

let check cfg =
  let rates =
    [ cfg.drop; cfg.corrupt; cfg.truncate; cfg.duplicate; cfg.reorder;
      cfg.jitter ]
  in
  List.iter
    (fun r ->
       if r < 0.0 || r > 1.0 then invalid_arg "Fault.create: rate outside [0,1]")
    rates;
  if List.fold_left ( +. ) 0.0 rates > 1.0 then
    invalid_arg "Fault.create: fault rates sum past 1";
  if cfg.reorder_delay_ns < 0 || cfg.jitter_max_ns < 0 then
    invalid_arg "Fault.create: negative delay"

type action =
  | Pass
  | Drop
  | Corrupt of { bit : int }
  | Truncate of { keep : int }
  | Duplicate
  | Reorder of { delay_ns : int }
  | Jitter of { delay_ns : int }

type stats = {
  frames : int;
  injected : int;
  drops : int;
  corrupts : int;
  truncates : int;
  duplicates : int;
  reorders : int;
  jitters : int;
}

type t = {
  cfg : config;
  rng : Rng.t;
  mutable s_frames : int;
  mutable s_drops : int;
  mutable s_corrupts : int;
  mutable s_truncates : int;
  mutable s_duplicates : int;
  mutable s_reorders : int;
  mutable s_jitters : int;
}

let create cfg =
  check cfg;
  {
    cfg;
    rng = Rng.create cfg.seed;
    s_frames = 0;
    s_drops = 0;
    s_corrupts = 0;
    s_truncates = 0;
    s_duplicates = 0;
    s_reorders = 0;
    s_jitters = 0;
  }

(* One uniform draw selects the fault (cumulative thresholds); further
   draws only happen inside the selected branch, so the consumed stream
   depends solely on the seed and the frame-length sequence — two
   same-seed runs of the same scenario perturb identically. *)
let decide t ~len =
  let c = t.cfg in
  let u = Rng.float t.rng 1.0 in
  let d0 = c.drop in
  let d1 = d0 +. c.corrupt in
  let d2 = d1 +. c.truncate in
  let d3 = d2 +. c.duplicate in
  let d4 = d3 +. c.reorder in
  let d5 = d4 +. c.jitter in
  if u < d0 then Drop
  else if u < d1 then Corrupt { bit = Rng.int t.rng (len * 8) }
  else if u < d2 then
    if len < 2 then Pass else Truncate { keep = 1 + Rng.int t.rng (len - 1) }
  else if u < d3 then Duplicate
  else if u < d4 then
    Reorder
      { delay_ns = c.reorder_delay_ns + Rng.int t.rng (c.reorder_delay_ns + 1) }
  else if u < d5 then Jitter { delay_ns = 1 + Rng.int t.rng c.jitter_max_ns }
  else Pass

let kind_of_action = function
  | Pass -> None
  | Drop -> Some Trace.F_drop
  | Corrupt _ -> Some Trace.F_corrupt
  | Truncate _ -> Some Trace.F_truncate
  | Duplicate -> Some Trace.F_duplicate
  | Reorder _ -> Some Trace.F_reorder
  | Jitter _ -> Some Trace.F_jitter

let apply t ~frame =
  let len = Bytes.length frame in
  t.s_frames <- t.s_frames + 1;
  let act = if len = 0 then Pass else decide t ~len in
  let copies =
    match act with
    | Pass -> [ (frame, 0) ]
    | Drop ->
      t.s_drops <- t.s_drops + 1;
      []
    | Corrupt { bit } ->
      t.s_corrupts <- t.s_corrupts + 1;
      let byte = bit / 8 and mask = 1 lsl (bit mod 8) in
      Bytes.set frame byte
        (Char.chr (Char.code (Bytes.get frame byte) lxor mask));
      [ (frame, 0) ]
    | Truncate { keep } ->
      t.s_truncates <- t.s_truncates + 1;
      [ (Bytes.sub frame 0 keep, 0) ]
    | Duplicate ->
      t.s_duplicates <- t.s_duplicates + 1;
      [ (frame, 0); (frame, 0) ]
    | Reorder { delay_ns } ->
      t.s_reorders <- t.s_reorders + 1;
      [ (frame, delay_ns) ]
    | Jitter { delay_ns } ->
      t.s_jitters <- t.s_jitters + 1;
      [ (frame, delay_ns) ]
  in
  (copies, kind_of_action act)

let stats t =
  {
    frames = t.s_frames;
    injected =
      t.s_drops + t.s_corrupts + t.s_truncates + t.s_duplicates + t.s_reorders
      + t.s_jitters;
    drops = t.s_drops;
    corrupts = t.s_corrupts;
    truncates = t.s_truncates;
    duplicates = t.s_duplicates;
    reorders = t.s_reorders;
    jitters = t.s_jitters;
  }

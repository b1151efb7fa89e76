(* One workload, measured in this process: the end-to-end run (tracing
   off) or the traced per-layer run. *)

module J = Ash_util.Minijson
module Trace = Ash_obs.Trace
module Metrics = Ash_obs.Metrics
module Profile = Ash_obs.Profile
module W = Workload

(* -- JSON output ----------------------------------------------------- *)

let rec json_to_buffer b = function
  | J.Null -> Buffer.add_string b "null"
  | J.Bool x -> Buffer.add_string b (string_of_bool x)
  | J.Num f when not (Float.is_finite f) -> Buffer.add_string b "null"
  | J.Num f when Float.is_integer f && Float.abs f < 1e15 ->
    Buffer.add_string b (Printf.sprintf "%.0f" f)
  | J.Num f ->
    (* The shortest form that reads back as the same float. *)
    let rec digits p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else digits (p + 1)
    in
    Buffer.add_string b (digits 15)
  | J.Str s ->
    Buffer.add_char b '"';
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  | J.List l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b ", ";
        json_to_buffer b x)
      l;
    Buffer.add_char b ']'
  | J.Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, x) ->
        if i > 0 then Buffer.add_string b ", ";
        json_to_buffer b (J.Str k);
        Buffer.add_string b ": ";
        json_to_buffer b x)
      fields;
    Buffer.add_char b '}'

let json_to_string j =
  let b = Buffer.create 4096 in
  json_to_buffer b j;
  Buffer.contents b

let num x = J.Num x
let int n = J.Num (float_of_int n)

(* -- spans: the benchmark's own phases, kept in memory ---------------- *)

type span = { name : string; parent : string; start_ns : float; end_ns : float }

let spans = ref []
let open_spans = ref []

let span name f =
  let parent = match !open_spans with p :: _ -> p | [] -> "" in
  open_spans := name :: !open_spans;
  let start_ns = Probe.now_ns () in
  Fun.protect f ~finally:(fun () ->
      open_spans := List.tl !open_spans;
      spans := { name; parent; start_ns; end_ns = Probe.now_ns () } :: !spans)

let span_json s =
  J.Obj
    [
      ("name", J.Str s.name);
      ("parent", J.Str s.parent);
      ("start_ns", num s.start_ns);
      ("end_ns", num s.end_ns);
    ]

(* -- results ---------------------------------------------------------- *)

(* Host metrics are measured; virtual metrics and trace counts are a
   pure function of the workload and its seed. *)
type clock = Host | Virtual | Count

let clock_label = function Host -> "host" | Virtual -> "virtual" | Count -> "count"

(* A metric's reported value and every sample it came from. *)
type metric = {
  name : string;
  unit_ : string;
  clock : clock;
  value : float;
  samples : float list;
}

type result = {
  attempted : int;
  failed : int;
  errors : string list;
  metrics : metric list;
}

let one clock name unit_ x = { name; unit_; clock; value = x; samples = [ x ] }
let host = one Host
let virt = one Virtual
let count = one Count

let time f =
  let t0 = Probe.now_ns () in
  let x = f () in
  (x, (Probe.now_ns () -. t0) /. 1e9)

let recorded ~capacity f =
  let r = Trace.record ~capacity () in
  let x = Fun.protect f ~finally:(fun () -> Trace.stop r) in
  (x, r)

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let warm_setups = 5
let setups_per_repeat = 3
let min_repeats = 5

(* A run of [seconds] does a repeat count fixed by the workload, never
   by the clock, so every commit runs identical work. Only a commit
   several times slower than the reference stops early, after
   [overrun] times [seconds], to keep its run within bounds. *)
let overrun = 3.0

let repeats (w : W.t) ~seconds =
  max min_repeats (int_of_float (Float.round (seconds /. w.repeat_s)))

(* [repeats] timed repeats of fixed size, with set-ups timed between
   them. A warm-up repeat at a tenth of the size goes first, untimed,
   with trace counters on: its counters are the witnesses for outputs
   Lab does not return.

   Every repeat, and every set-up, does identical work, and other load
   on the host only ever slows one down. On a shared host that load
   comes in phases of several seconds that slow every repeat in them
   alike, so the median moves with the phases a run happens to meet;
   the fastest of the same fixed number of samples moves far less.
   Both host metrics report the fastest. The heap peak is read after
   the first timed repeat, before garbage from earlier repeats can pile
   onto a later one's peak. *)
let end_to_end (w : W.t) ~seed ~seconds ~quick =
  let scale = if quick then 0.01 else 1.0 in
  let repeats = if quick then 1 else repeats w ~seconds in
  let cap = if seconds > 0.0 then overrun *. seconds else infinity in
  span "setup" (fun () ->
      for _ = 1 to warm_setups do
        w.setup ~seed
      done);
  let warm, r =
    span "verify" (fun () ->
        recorded ~capacity:1 (fun () -> w.run ~seed ~scale:(scale /. 10.0)))
  in
  let witness_failed = w.witness (Trace.metrics r) warm in
  let heap = ref 0.0 and setup_s = ref [] in
  let timed =
    span "run" (fun () ->
        let rec go acc n elapsed =
          if n >= repeats || (n >= min_repeats && elapsed >= cap) then List.rev acc
          else begin
            for _ = 1 to setups_per_repeat do
              setup_s := snd (time (fun () -> w.setup ~seed)) :: !setup_s
            done;
            let o, dt = time (fun () -> w.run ~seed ~scale) in
            if n = 0 then heap := heap_peak_mb ();
            go ((o, dt) :: acc) (n + 1) (elapsed +. dt)
          end
        in
        go [] 0 0.0)
  in
  let first = fst (List.hd timed) in
  (* Every timed repeat does identical work: any virtual difference
     between them is a failure of the repeats that differ. *)
  let divergent = List.filter (fun (o, _) -> o <> first) timed in
  let outcomes = warm :: List.map fst timed in
  let sum f = List.fold_left (fun a o -> a + f o) 0 outcomes in
  let ops_per_s = List.map (fun (o, dt) -> float_of_int o.W.ops /. dt) timed in
  {
    attempted = sum (fun o -> o.W.attempted);
    failed =
      sum (fun o -> o.W.failed)
      + witness_failed
      + List.fold_left (fun a (o, _) -> a + o.W.attempted) 0 divergent;
    errors =
      List.concat_map (fun o -> o.W.errors) outcomes
      @ (if witness_failed > 0 then
           [ Printf.sprintf "trace witnesses: %d operations missing" witness_failed ]
         else [])
      @
      if divergent <> [] then
        [ Printf.sprintf "%d timed repeats gave different virtual results"
            (List.length divergent) ]
      else [];
    metrics =
      [
        { name = "host_ops_per_s"; unit_ = "ops/s"; clock = Host;
          value = List.fold_left max 0.0 ops_per_s; samples = ops_per_s };
        { name = "setup_s"; unit_ = "s"; clock = Host;
          value = List.fold_left min infinity !setup_s; samples = List.rev !setup_s };
        host "heap_peak_mb" "MiB" !heap;
        virt "virt_goodput_mbs" "virt_MB/s" first.W.goodput_mbs;
      ];
  }

(* -- the traced run --------------------------------------------------- *)

let ring = 1 lsl 20
let untraced_repeats = 5

let per_op ops x = if ops = 0 then 0.0 else x /. float_of_int ops
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Mean length of an engine's event queue as each event fires, from a
   complete traced stream. An event scheduled at [ts] for time [at]
   stays in its engine's heap over [ts, at), cancelled or not: the heap
   drops a cancelled event only when it reaches the top. The stream
   merges the engines, so the total splits evenly over [engines]. *)
let pending_depth events ~engines =
  let ats =
    Array.of_list
      (List.filter_map
         (fun e -> match e.Trace.kind with Trace.Ev_scheduled { at } -> Some at | _ -> None)
         events)
  in
  Array.sort Int.compare ats;
  let scheduled = ref 0 and gone = ref 0 and fired = ref 0 and sum = ref 0 in
  List.iter
    (fun e ->
      match e.Trace.kind with
      | Trace.Ev_scheduled _ -> incr scheduled
      | Trace.Ev_fired ->
        while !gone < Array.length ats && ats.(!gone) <= e.Trace.ts do
          incr gone
        done;
        sum := !sum + max 0 (!scheduled - !gone);
        incr fired
      | _ -> ())
    events;
  ratio (float_of_int !sum) (float_of_int (!fired * engines))

let stage_metrics (p : Profile.t) =
  List.concat_map
    (fun st ->
      let row = List.find_opt (fun r -> r.Profile.stage = st) p.Profile.stages in
      let get f = match row with Some r -> f r /. 1e3 | None -> 0.0 in
      let pre = "stage." ^ Trace.stage_label st in
      [
        virt (pre ^ ".virt_p50_us") "virt_us" (get (fun r -> r.Profile.p50_ns));
        virt (pre ^ ".virt_p99_us") "virt_us" (get (fun r -> r.Profile.p99_ns));
      ])
    Trace.all_stages

let per_layer (w : W.t) ~seed ~quick =
  let scale = w.traced_scale *. if quick then 0.1 else 1.0 in
  span "setup" (fun () -> w.setup ~seed);
  (* The untraced baseline at the traced size, a fixed number of
     repeats: host time per operation and allocation, against which
     tracing and the probes are read. *)
  let base, untraced, gc0, gc1 =
    span "load" (fun () ->
        let base = w.run ~seed ~scale in
        let gc0 = Gc.quick_stat () in
        let runs = List.init untraced_repeats (fun _ -> time (fun () -> w.run ~seed ~scale)) in
        (base, runs, gc0, Gc.quick_stat ()))
  in
  let base_s = Probe.median (List.map snd untraced) in
  let (traced, traced_s), r =
    span "run" (fun () -> recorded ~capacity:ring (fun () -> time (fun () -> w.run ~seed ~scale)))
  in
  let m = Trace.metrics r in
  let c name = float_of_int (Metrics.counter m name) in
  let prefixed prefix =
    List.fold_left
      (fun a (k, v) -> if String.starts_with ~prefix k then a + v else a)
      0 (Metrics.counters m)
  in
  let p, witness_failed =
    span "verify" (fun () -> (Profile.of_recorder r, w.witness m traced))
  in
  let ops = traced.W.ops in
  let host_ns_per_op = per_op base.W.ops (base_s *. 1e9) in
  let depth = pending_depth (Trace.events r) ~engines:w.engines in
  let engine_ns =
    span "probe.engine" (fun () ->
        Probe.engine_ns_per_event ~depth:(int_of_float (Float.round depth)))
  in
  let demux = span "probe.demux" Probe.demux in
  let vm = span "probe.vm" (fun () -> Probe.vm w.handler) in
  let dilp_ns_per_kb = span "probe.dilp" Probe.dilp_ns_per_kb in
  let cluster =
    match w.cluster with
    | None -> None
    | Some run ->
      span "cluster" (fun () ->
          let full = if quick then 0.01 else 1.0 in
          let at shards jobs = time (fun () -> run ~shards ~jobs ~scale:full) in
          Some (at 2 2, at 2 1, at 1 1))
  in
  let ashes f = List.fold_left (fun a row -> a + f row) 0 p.Profile.ashes in
  let vm_runs = float_of_int (ashes (fun a -> a.Profile.vm_runs)) in
  let vm_insns = float_of_int (ashes (fun a -> a.Profile.vm_insns)) in
  let vm_checks = float_of_int (ashes (fun a -> a.Profile.vm_check_insns)) in
  let dilp_bytes = float_of_int (W.dilp_bytes m) in
  let tally name = float_of_int (try List.assoc name traced.W.counts with Not_found -> 0) in
  let events_per_op = per_op ops (c "engine.fired") in
  let evals_per_op = per_op ops (c "dpf.eval.compiled" +. c "dpf.eval.interpreted") in
  let insns_per_op = per_op ops vm_insns in
  let bytes_per_op = per_op ops dilp_bytes in
  let share ns = ratio ns host_ns_per_op in
  let alloc_words =
    gc1.Gc.minor_words +. gc1.Gc.major_words -. gc1.Gc.promoted_words
    -. (gc0.Gc.minor_words +. gc0.Gc.major_words -. gc0.Gc.promoted_words)
  in
  let base_ops = float_of_int (List.length untraced * base.W.ops) in
  let cluster_runs, cluster_x =
    match cluster with
    | None -> ([], (0.0, 0.0))
    | Some ((o22, t22), (o21, t21), (o11, t11)) ->
      ([ o22; o21; o11 ], (t21 /. t11, t21 /. t22))
  in
  (* Each check below invalidates the repeat it compares. *)
  let checks =
    [
      (List.exists (fun (o, _) -> o <> base) untraced || traced <> base,
       traced.W.attempted,
       "untraced and traced repeats gave different virtual results");
      (Trace.dropped r > 0, traced.W.attempted,
       Printf.sprintf "trace ring dropped %d events" (Trace.dropped r));
      (witness_failed > 0, witness_failed,
       Printf.sprintf "trace witnesses: %d operations missing" witness_failed);
      (List.exists (fun o -> o <> List.hd cluster_runs) cluster_runs,
       List.fold_left (fun a o -> a + o.W.attempted) 0 cluster_runs,
       "cluster repeats at different shard and domain counts differ");
    ]
    |> List.filter (fun (bad, _, _) -> bad)
  in
  let outcomes = (base :: traced :: List.map fst untraced) @ cluster_runs in
  let sum f = List.fold_left (fun a o -> a + f o) 0 outcomes in
  let errors =
    List.concat_map (fun o -> o.W.errors) outcomes
    @ List.map (fun (_, _, msg) -> msg) checks
  in
  let metrics =
    [
      host "host.ns_per_op" "ns" host_ns_per_op;
      count "engine.events_per_op" "events/op" events_per_op;
      count "engine.pending_depth" "events" depth;
      host "engine.ns_per_event" "ns" engine_ns;
      host "host.alloc_words_per_op" "words/op" (alloc_words /. base_ops);
      host "host.major_gcs_per_kop" "1/kop"
        (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)
         *. 1000.0 /. base_ops);
      host "cluster.shard_overhead_x" "x" (fst cluster_x);
      host "cluster.jobs_speedup_x" "x" (snd cluster_x);
      count "nic.frames_per_op" "frames/op" (per_op ops (float_of_int (prefixed "pkt.tx.")));
      count "switch.drops" "count" (float_of_int (prefixed "drops.switch."));
      count "fault.injected_per_op" "faults/op" (per_op ops (c "fault.injected"));
      count "kern.ash_dispatch_per_op" "1/op" (per_op ops (c "ash.dispatch"));
      count "kern.ash_commit_ratio" "ratio" (ratio (c "ash.commit") (c "ash.dispatch"));
      count "kern.user_deliver_per_op" "1/op" (per_op ops (c "kern.user_deliver"));
      count "demux.evals_per_op" "1/op" evals_per_op;
      host "demux.ns_per_lookup" "ns" demux.Probe.ns_per_lookup;
      host "demux.ns_per_insert_remove" "ns" demux.Probe.ns_per_insert_remove;
      count "vm.runs_per_op" "1/op" (per_op ops vm_runs);
      count "vm.insns_per_run" "insns" (ratio vm_insns vm_runs);
      count "vm.check_insn_share" "ratio" (ratio vm_checks vm_insns);
      host "vm.ns_per_insn" "ns" vm.Probe.ns_per_insn;
      host "vm.download_us" "us" vm.Probe.download_us;
      count "dilp.bytes_per_op" "B/op" bytes_per_op;
      host "dilp.ns_per_kb" "ns/KiB" dilp_ns_per_kb;
      count "tcp.fast_hit_ratio" "ratio"
        (ratio (c "tcp.fast.hit") (c "tcp.fast.hit" +. c "tcp.fast.miss"));
      count "tcp.retransmits_per_kop" "1/kop" (per_op ops (1000.0 *. c "tcp.retransmit"));
      count "mq.redeliveries_per_kop" "1/kop" (per_op ops (1000.0 *. tally "mq.redeliveries"));
      count "mq.refetches_per_kop" "1/kop" (per_op ops (1000.0 *. tally "mq.refetches"));
      count "mq.dedup_hits_per_kop" "1/kop" (per_op ops (1000.0 *. tally "mq.dedup_hits"));
      host "obs.trace_overhead_x" "x" (ratio traced_s base_s);
      count "obs.trace_events_per_op" "events/op" (per_op ops (float_of_int (Trace.total r)));
      count "obs.trace_dropped" "count" (float_of_int (Trace.dropped r));
      host "engine.host_share_est" "ratio" (share (engine_ns *. events_per_op));
      host "demux.host_share_est" "ratio" (share (demux.Probe.ns_per_lookup *. evals_per_op));
      host "vm.host_share_est" "ratio" (share (vm.Probe.ns_per_insn *. insns_per_op));
      host "dilp.host_share_est" "ratio" (share (dilp_ns_per_kb *. bytes_per_op /. 1024.0));
      virt "virt.rtt_p50_us" "virt_us" traced.W.rtt_p50_us;
      virt "virt.rtt_p99_us" "virt_us" traced.W.rtt_p99_us;
      count "virt.rtt_samples" "count" (float_of_int traced.W.rtt_samples);
    ]
    @ stage_metrics p
  in
  {
    attempted = sum (fun o -> o.W.attempted);
    failed =
      sum (fun o -> o.W.failed)
      + List.fold_left (fun a (_, n, _) -> a + n) 0 checks;
    errors;
    metrics;
  }

(* Unit tests for Ash_obs: the trace sink, the bounded recorder ring,
   derived counters/histograms, and the text/JSON dumps. *)

module Trace = Ash_obs.Trace
module Metrics = Ash_obs.Metrics
module Dump = Ash_obs.Dump
module Span = Ash_obs.Span
module Profile = Ash_obs.Profile

(* Every test leaves the global sink uninstalled, the clock at the
   default and span sampling at 1; run them through this wrapper to be
   safe against failures mid-test. *)
let isolated f () =
  Fun.protect
    ~finally:(fun () ->
      Trace.clear_sink ();
      Trace.set_clock (fun () -> 0);
      Trace.set_span_sample 1)
    f

let test_null_sink_is_off () =
  Alcotest.(check bool) "disabled by default" false (Trace.enabled ());
  (* Emitting without a sink must be a harmless no-op. *)
  Trace.emit (Trace.Mark "nobody listening")

let test_record_enables () =
  let r = Trace.record () in
  Alcotest.(check bool) "enabled" true (Trace.enabled ());
  Trace.emit (Trace.Mark "a");
  Trace.stop r;
  Alcotest.(check bool) "disabled after stop" false (Trace.enabled ());
  Trace.emit (Trace.Mark "b");
  Alcotest.(check int) "stop froze the recorder" 1 (Trace.total r)

let test_ring_bounds () =
  let r = Trace.record ~capacity:8 () in
  for i = 0 to 19 do
    Trace.emit (Trace.Mark (string_of_int i))
  done;
  Trace.stop r;
  Alcotest.(check int) "total" 20 (Trace.total r);
  Alcotest.(check int) "dropped" 12 (Trace.dropped r);
  let evs = Trace.events r in
  Alcotest.(check int) "retained" 8 (List.length evs);
  (* Oldest-first, and the survivors are the most recent 8. *)
  Alcotest.(check (list int)) "seq window"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.map (fun e -> e.Trace.seq) evs);
  List.iteri
    (fun i e ->
       Alcotest.(check string)
         (Printf.sprintf "payload %d" i)
         (string_of_int (12 + i))
         (match e.Trace.kind with Trace.Mark s -> s | _ -> "?"))
    evs

let test_no_drop_under_capacity () =
  let r = Trace.record ~capacity:16 () in
  for _ = 1 to 5 do
    Trace.emit Trace.Ev_fired
  done;
  Trace.stop r;
  Alcotest.(check int) "total" 5 (Trace.total r);
  Alcotest.(check int) "dropped" 0 (Trace.dropped r);
  Alcotest.(check int) "events" 5 (List.length (Trace.events r))

let test_clock_stamps () =
  let t = ref 100 in
  Trace.set_clock (fun () -> !t);
  let r = Trace.record () in
  Trace.emit (Trace.Mark "first");
  t := 250;
  Trace.emit (Trace.Mark "second");
  Trace.stop r;
  (match Trace.events r with
   | [ a; b ] ->
     Alcotest.(check int) "ts 1" 100 a.Trace.ts;
     Alcotest.(check int) "ts 2" 250 b.Trace.ts
   | _ -> Alcotest.fail "expected two events")

let test_counters_derived () =
  let r = Trace.record () in
  Trace.emit (Trace.Ash_dispatch { id = 1; vc = 7 });
  Trace.emit (Trace.Ash_commit { id = 1 });
  Trace.emit (Trace.Ash_dispatch { id = 1; vc = 7 });
  Trace.emit (Trace.Ash_abort { id = 1 });
  Trace.emit (Trace.Pkt_drop { nic = "an2"; reason = Trace.Crc });
  Trace.emit (Trace.Dpf_eval { compiled = true; matched = true });
  Trace.emit (Trace.Dpf_eval { compiled = false; matched = false });
  Trace.stop r;
  let m = Trace.metrics r in
  Alcotest.(check int) "dispatch" 2 (Metrics.counter m "ash.dispatch");
  Alcotest.(check int) "commit" 1 (Metrics.counter m "ash.commit");
  Alcotest.(check int) "abort" 1 (Metrics.counter m "ash.abort");
  Alcotest.(check int) "drop" 1 (Metrics.counter m "drops.an2.crc");
  Alcotest.(check int) "dpf compiled" 1 (Metrics.counter m "dpf.eval.compiled");
  Alcotest.(check int) "dpf matched" 1 (Metrics.counter m "dpf.eval.matched");
  Alcotest.(check int) "dpf rejected" 1 (Metrics.counter m "dpf.eval.rejected");
  Alcotest.(check int) "unknown reads 0" 0 (Metrics.counter m "no.such")

let test_histograms_derived () =
  let r = Trace.record () in
  List.iter
    (fun c ->
       Trace.emit
         (Trace.Vm_run
            { name = "h"; outcome = "commit"; insns = 10; check_insns = 0;
              cycles = c }))
    [ 10; 20; 30; 40 ];
  Trace.stop r;
  match Metrics.histogram (Trace.metrics r) "vm.cycles" with
  | None -> Alcotest.fail "vm.cycles histogram missing"
  | Some s ->
    Alcotest.(check int) "count" 4 s.Metrics.count;
    Alcotest.(check (float 1e-9)) "min" 10. s.Metrics.min;
    Alcotest.(check (float 1e-9)) "max" 40. s.Metrics.max;
    Alcotest.(check (float 1e-9)) "mean" 25. s.Metrics.mean

let test_summary_edge_cases () =
  Alcotest.(check bool) "empty is None" true (Metrics.summary_of [] = None);
  (match Metrics.summary_of [ 5. ] with
   | None -> Alcotest.fail "single sample"
   | Some s ->
     Alcotest.(check (float 1e-9)) "p50 = sample" 5. s.Metrics.p50;
     Alcotest.(check (float 1e-9)) "p99 = sample" 5. s.Metrics.p99;
     Alcotest.(check (float 1e-9)) "min = max" s.Metrics.min s.Metrics.max);
  match Metrics.summary_of [ 3.; 3.; 3.; 3. ] with
  | None -> Alcotest.fail "all equal"
  | Some s ->
    Alcotest.(check (float 1e-9)) "p50" 3. s.Metrics.p50;
    Alcotest.(check (float 1e-9)) "p90" 3. s.Metrics.p90;
    Alcotest.(check (float 1e-9)) "mean" 3. s.Metrics.mean

let test_clear () =
  let r = Trace.record () in
  Trace.emit (Trace.Mark "x");
  Trace.clear r;
  Alcotest.(check int) "total reset" 0 (Trace.total r);
  Alcotest.(check bool) "still recording" true (Trace.enabled ());
  Trace.emit (Trace.Mark "y");
  Trace.stop r;
  Alcotest.(check int) "records again" 1 (Trace.total r)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_text_dump () =
  let r = Trace.record () in
  Trace.emit (Trace.Ash_dispatch { id = 3; vc = 9 });
  Trace.emit (Trace.Dilp_run { name = "dilp:test"; len = 64 });
  Trace.stop r;
  let s = Format.asprintf "%a" (Dump.pp_recorder ?max_events:None) r in
  Alcotest.(check bool) "has dispatch" true (contains s "ash.dispatch");
  Alcotest.(check bool) "has dilp" true (contains s "dilp.run");
  Alcotest.(check bool) "has counters" true (contains s "counters")

let test_json_dump () =
  let r = Trace.record () in
  Trace.emit (Trace.Pkt_tx { nic = "an2"; bytes = 128 });
  Trace.emit (Trace.Mark "quote\"me");
  Trace.stop r;
  let s = Dump.to_json r in
  Alcotest.(check bool) "object" true
    (String.length s > 1 && s.[0] = '{' && s.[String.length s - 1] = '}');
  Alcotest.(check bool) "total field" true (contains s "\"total\":2");
  Alcotest.(check bool) "event label" true (contains s "pkt.tx");
  Alcotest.(check bool) "escaped quote" true (contains s "quote\\\"me");
  (* Balanced braces/brackets: a cheap well-formedness proxy. *)
  let bal c o = String.fold_left (fun n ch -> if ch = o then n + 1
                                   else if ch = c then n - 1 else n) 0 s in
  Alcotest.(check int) "braces" 0 (bal '}' '{');
  Alcotest.(check int) "brackets" 0 (bal ']' '[')

let test_labels_stable () =
  Alcotest.(check string) "dispatch" "ash.dispatch"
    (Trace.label (Trace.Ash_dispatch { id = 0; vc = 0 }));
  Alcotest.(check string) "dpf" "dpf.eval"
    (Trace.label (Trace.Dpf_eval { compiled = true; matched = false }));
  Alcotest.(check string) "tcp hit" "tcp.fast.hit" (Trace.label Trace.Tcp_fast_hit)

let test_swap_clock_returns_previous () =
  let a () = 11 and b () = 22 in
  Trace.set_clock a;
  let prev = Trace.swap_clock b in
  Alcotest.(check int) "installed" 22 (Trace.now ());
  Alcotest.(check int) "previous returned" 11 (prev ());
  let prev2 = Trace.swap_clock prev in
  Alcotest.(check int) "restored" 11 (Trace.now ());
  Alcotest.(check int) "swap is symmetric" 22 (prev2 ())

(* Two live engines: each event must be stamped by the engine that is
   actually dispatching, not whichever was created last. Before the
   dispatch-scoped clock, the second [Engine.create] hijacked the global
   clock for good and the first engine's events carried its time. *)
let test_two_engines_stamp_their_own_events () =
  let module Engine = Ash_sim.Engine in
  let e1 = Engine.create () in
  let e2 = Engine.create () in
  let r = Trace.record () in
  (* Distinct schedules: e1 fires at 100 and 300, e2 at 7 and 9. *)
  ignore (Engine.schedule_at e1 ~at:100 (fun () -> Trace.emit (Trace.Mark "e1")));
  ignore (Engine.schedule_at e1 ~at:300 (fun () -> Trace.emit (Trace.Mark "e1")));
  ignore (Engine.schedule_at e2 ~at:7 (fun () -> Trace.emit (Trace.Mark "e2")));
  ignore (Engine.schedule_at e2 ~at:9 (fun () -> Trace.emit (Trace.Mark "e2")));
  (* Run the FIRST-created engine first: under last-created-wins it
     would stamp with e2's clock (still 0). *)
  Engine.run e1;
  Engine.run e2;
  Trace.stop r;
  let stamps tag =
    List.filter_map
      (fun (e : Trace.event) ->
         match e.Trace.kind with
         | Trace.Mark m when m = tag -> Some e.Trace.ts
         | _ -> None)
      (Trace.events r)
  in
  Alcotest.(check (list int)) "e1 events carry e1's clock" [ 100; 300 ]
    (stamps "e1");
  Alcotest.(check (list int)) "e2 events carry e2's clock" [ 7; 9 ]
    (stamps "e2");
  (* After both runs, emission outside dispatch uses the restored
     creation-time clock (the last engine created). *)
  Alcotest.(check int) "outside dispatch: last-created clock" 9 (Trace.now ())

(* -- satellite: wraparound keeps exact counters ---------------------- *)

let test_wraparound_counters_exact () =
  let r = Trace.record ~capacity:4 () in
  for i = 0 to 10 do
    Trace.emit (Trace.Mark (string_of_int i))
  done;
  Trace.stop r;
  Alcotest.(check int) "total counts every emission" 11 (Trace.total r);
  Alcotest.(check int) "dropped = total - capacity" 7 (Trace.dropped r);
  Alcotest.(check (list int)) "ring keeps the most recent capacity"
    [ 7; 8; 9; 10 ]
    (List.map (fun e -> e.Trace.seq) (Trace.events r));
  (* Counters are derived from the full stream, not the ring. *)
  Alcotest.(check int) "counter unaffected by ring eviction" 11
    (Metrics.counter (Trace.metrics r) "mark")

(* -- spans ----------------------------------------------------------- *)

let test_span_pairing () =
  let t = ref 0 in
  Trace.set_clock (fun () -> !t);
  let r = Trace.record () in
  (* Same event time, offsets carry the work clock. *)
  t := 10;
  Span.begin_span ~corr:1 ~off:5 Trace.Ash_run;
  Span.end_span ~corr:1 ~off:25 ~cycles:7 Trace.Ash_run;
  t := 40;
  Span.begin_span ~corr:2 Trace.Wire;
  t := 90;
  Span.end_span ~corr:2 Trace.Wire;
  Trace.stop r;
  let evs = Trace.events r in
  (match Span.intervals evs with
   | [ a; b ] ->
     Alcotest.(check int) "t0 = ts + off" 15 a.Span.t0;
     Alcotest.(check int) "t1 = ts + off" 35 a.Span.t1;
     Alcotest.(check int) "cycles carried" 7 a.Span.cycles;
     Alcotest.(check int) "duration" 20 (Span.duration a);
     Alcotest.(check int) "wire t0" 40 b.Span.t0;
     Alcotest.(check int) "wire t1" 90 b.Span.t1;
     Alcotest.(check bool) "corrs kept" true
       (a.Span.corr = 1 && b.Span.corr = 2)
   | l -> Alcotest.failf "expected 2 intervals, got %d" (List.length l));
  Alcotest.(check int) "nothing unclosed" 0
    (List.length (Span.unclosed evs))

let test_unclosed_span_detection () =
  let t = ref 0 in
  Trace.set_clock (fun () -> !t);
  let r = Trace.record () in
  t := 100;
  Span.begin_span ~corr:3 Trace.Deliver;
  Span.begin_span ~corr:3 Trace.Pipe;
  t := 150;
  Span.end_span ~corr:3 Trace.Pipe;
  (* An end with no begin must not fabricate an interval. *)
  Span.end_span ~corr:9 Trace.Proto;
  Trace.stop r;
  let evs = Trace.events r in
  Alcotest.(check int) "one matched pair" 1
    (List.length (Span.intervals evs));
  (match Span.unclosed evs with
   | [ (corr, stage, t0) ] ->
     Alcotest.(check int) "corr" 3 corr;
     Alcotest.(check string) "stage" "deliver" (Trace.stage_label stage);
     Alcotest.(check int) "open time" 100 t0
   | l -> Alcotest.failf "expected 1 unclosed, got %d" (List.length l))

let test_span_sampling () =
  let r = Trace.record () in
  Trace.set_span_sample 2;
  (* Messages 1, 3, 5... are sampled; 2, 4 are not. *)
  List.iter
    (fun corr ->
      Span.begin_span ~corr Trace.Wire;
      Span.end_span ~corr Trace.Wire)
    [ 1; 2; 3; 4; 5 ];
  Trace.stop r;
  let intervals = Span.intervals (Trace.events r) in
  Alcotest.(check (list int)) "every 2nd message sampled" [ 1; 3; 5 ]
    (List.map (fun i -> i.Span.corr) intervals);
  Alcotest.(check bool) "span_on is exact" true
    (Trace.span_on 3 = false (* sink uninstalled: always off *));
  Alcotest.(check bool) "corr 0 never sampled" false
    (let r2 = Trace.record () in
     let on = Trace.span_on 0 in
     Trace.stop r2;
     on)

(* -- satellite: the numeric test in the JSON dump -------------------- *)

let test_json_field_value_numeric_only () =
  let r = Trace.record () in
  Trace.emit (Trace.Mark "-");
  Trace.emit (Trace.Mark "1-2");
  Trace.emit (Trace.Mark "123");
  Trace.emit (Trace.Mark "-5");
  Trace.stop r;
  let s = Dump.to_json r in
  (* Digit-and-dash strings that aren't numbers must be quoted. *)
  Alcotest.(check bool) "bare dash quoted" true (contains s "\"label\":\"-\"");
  Alcotest.(check bool) "interior dash quoted" true
    (contains s "\"label\":\"1-2\"");
  (* Real integers still pass through bare. *)
  Alcotest.(check bool) "integer bare" true (contains s "\"label\":123");
  Alcotest.(check bool) "negative integer bare" true
    (contains s "\"label\":-5")

(* -- chrome trace export --------------------------------------------- *)

let count_occurrences hay needle =
  let nl = String.length needle in
  let rec go i acc =
    if i + nl > String.length hay then acc
    else if String.sub hay i nl = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* Every "ts":<n> in emission order; the export promises them
   non-decreasing. *)
let ts_values s =
  let out = ref [] in
  let key = "\"ts\":" in
  let n = String.length s in
  let i = ref 0 in
  while !i + String.length key <= n do
    if String.sub s !i (String.length key) = key then begin
      let j = ref (!i + String.length key) in
      let buf = Buffer.create 8 in
      while
        !j < n
        && (match s.[!j] with '0' .. '9' | '.' | '-' -> true | _ -> false)
      do
        Buffer.add_char buf s.[!j];
        incr j
      done;
      out := float_of_string (Buffer.contents buf) :: !out;
      i := !j
    end
    else incr i
  done;
  List.rev !out

let check_chrome_invariants s =
  Alcotest.(check int) "balanced B/E pairs"
    (count_occurrences s "\"ph\":\"B\"")
    (count_occurrences s "\"ph\":\"E\"");
  let bal c o =
    String.fold_left
      (fun n ch -> if ch = o then n + 1 else if ch = c then n - 1 else n)
      0 s
  in
  Alcotest.(check int) "braces" 0 (bal '}' '{');
  Alcotest.(check int) "brackets" 0 (bal ']' '[');
  let rec non_decreasing = function
    | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "ts non-decreasing" true (non_decreasing (ts_values s))

let test_chrome_export_manual () =
  let t = ref 0 in
  Trace.set_clock (fun () -> !t);
  let r = Trace.record () in
  Trace.with_corr 1 (fun () ->
      Span.begin_span ~corr:1 Trace.Reply;
      Trace.emit (Trace.Pkt_tx { nic = "an2"; bytes = 64 });
      t := 100;
      Span.end_span ~corr:1 Trace.Reply;
      Span.begin_span ~corr:1 Trace.Wire;
      t := 300;
      Span.end_span ~corr:1 Trace.Wire);
  Trace.stop r;
  let s = Dump.to_chrome_json r in
  Alcotest.(check int) "two spans" 2 (count_occurrences s "\"ph\":\"B\"");
  Alcotest.(check bool) "instant present" true (contains s "\"ph\":\"i\"");
  Alcotest.(check bool) "process metadata" true (contains s "message 1");
  check_chrome_invariants s

(* -- acceptance property: stage spans cover the round trip ----------- *)

let test_round_trip_attribution () =
  let r = Trace.record () in
  let (_ : Ash_util.Stats.summary) =
    Ash_core.Lab.raw_pingpong ~iters:4 (Ash_core.Lab.Srv_ash { sandbox = true })
  in
  Trace.stop r;
  let p = Profile.of_recorder r in
  Alcotest.(check int) "one correlation id per ping" 4
    (List.length p.Profile.messages);
  Alcotest.(check int) "no unclosed spans" 0 (List.length p.Profile.unclosed);
  (* The paper's accounting property: the union of stage spans explains
     the end-to-end latency (small slack for event-boundary rounding). *)
  List.iter
    (fun m ->
      let slack = max (m.Profile.e2e_ns / 10) 2_000 in
      if abs (m.Profile.e2e_ns - m.Profile.covered_ns) > slack then
        Alcotest.failf
          "message %d: e2e %dns vs covered %dns exceeds slack %dns"
          m.Profile.corr m.Profile.e2e_ns m.Profile.covered_ns slack;
      Alcotest.(check bool)
        (Printf.sprintf "message %d has a dominant stage" m.Profile.corr)
        true
        (m.Profile.dominant <> None))
    p.Profile.messages;
  (* Per-ASH attribution: the echo handler ran once per ping. *)
  (match p.Profile.ashes with
   | [ a ] ->
     Alcotest.(check int) "downloads" 1 a.Profile.downloads;
     Alcotest.(check int) "dispatches" 4 a.Profile.dispatches;
     Alcotest.(check int) "commits" 4 a.Profile.commits;
     Alcotest.(check bool) "handler cycles attributed" true
       (a.Profile.vm_cycles > 0);
     Alcotest.(check bool) "sandbox split sums" true
       (a.Profile.sandbox_cycles_est + a.Profile.payload_cycles_est
        = a.Profile.vm_cycles)
   | l -> Alcotest.failf "expected 1 ash row, got %d" (List.length l));
  (* The same stream exports as a loadable chrome trace. *)
  check_chrome_invariants (Dump.to_chrome_json r);
  (* And the profile renders without raising. *)
  let rendered = Format.asprintf "%a" Profile.pp p in
  Alcotest.(check bool) "profile mentions a stage" true
    (contains rendered "ash-run")

let test_round_trip_sampling_halves_spans () =
  let full = Trace.record () in
  let (_ : Ash_util.Stats.summary) =
    Ash_core.Lab.raw_pingpong ~iters:4 (Ash_core.Lab.Srv_ash { sandbox = true })
  in
  Trace.stop full;
  Trace.set_span_sample 2;
  let sampled = Trace.record () in
  let (_ : Ash_util.Stats.summary) =
    Ash_core.Lab.raw_pingpong ~iters:4 (Ash_core.Lab.Srv_ash { sandbox = true })
  in
  Trace.stop sampled;
  Trace.set_span_sample 1;
  let spans r = List.length (Span.intervals (Trace.events r)) in
  let msgs r = List.length (Profile.of_recorder r).Profile.messages in
  Alcotest.(check int) "sampling halves traced messages" 2 (msgs sampled);
  Alcotest.(check int) "full tracing sees all messages" 4 (msgs full);
  Alcotest.(check bool) "fewer spans under sampling" true
    (spans sampled < spans full);
  (* Exact counters are not sampled. *)
  Alcotest.(check int) "counters stay exact"
    (Metrics.counter (Trace.metrics full) "ash.dispatch")
    (Metrics.counter (Trace.metrics sampled) "ash.dispatch")

(* ------------------------------------------------------------------ *)
(* Shard buffers: per-domain emission contexts                         *)
(* ------------------------------------------------------------------ *)

(* Events emitted inside [with_shard] must land in that shard's buffer
   only — not in the root recorder, not in another shard's buffer — and
   keep their own shard's clock stamps. This is the isolation the
   cluster's epoch merge depends on. *)
let test_shard_buffers_isolated () =
  let r = Trace.record () in
  let sb0 = Trace.shard_buf ~shard:0 ~shards:2 in
  let sb1 = Trace.shard_buf ~shard:1 ~shards:2 in
  Trace.shard_set_clock sb0 (fun () -> 100);
  Trace.shard_set_clock sb1 (fun () -> 200);
  Trace.shard_set_enabled sb0 true;
  Trace.shard_set_enabled sb1 true;
  Trace.with_shard sb0 (fun () ->
      Trace.emit (Trace.Mark "zero");
      Trace.emit Trace.Ev_fired);
  Trace.with_shard sb1 (fun () -> Trace.emit (Trace.Mark "one"));
  Alcotest.(check int) "root recorder saw nothing" 0 (Trace.total r);
  Alcotest.(check int) "shard 0 buffered its two" 2 (Trace.shard_len sb0);
  Alcotest.(check int) "shard 1 buffered its one" 1 (Trace.shard_len sb1);
  let ts0, _, k0 = Trace.shard_get sb0 0 in
  let ts1, _, k1 = Trace.shard_get sb1 0 in
  Alcotest.(check int) "shard 0 clock stamp" 100 ts0;
  Alcotest.(check int) "shard 1 clock stamp" 200 ts1;
  Alcotest.(check bool) "payloads kept" true
    (k0 = Trace.Mark "zero" && k1 = Trace.Mark "one");
  (* Outside with_shard the root context is back. *)
  Trace.emit (Trace.Mark "root");
  Alcotest.(check int) "root context restored" 1 (Trace.total r);
  Trace.stop r

(* Strided correlation ids: shard s of N allocates s+1, s+1+N, ... so
   id assignment is a function of the shard layout alone. *)
let test_shard_corr_strided () =
  let sb0 = Trace.shard_buf ~shard:0 ~shards:2 in
  let sb1 = Trace.shard_buf ~shard:1 ~shards:2 in
  let ids sb n =
    Trace.with_shard sb (fun () -> List.init n (fun _ -> Trace.new_corr ()))
  in
  Alcotest.(check (list int)) "shard 0 stride" [ 1; 3; 5 ] (ids sb0 3);
  Alcotest.(check (list int)) "shard 1 stride" [ 2; 4; 6 ] (ids sb1 3)

(* An exception out of a shard slice must put the root context back and
   leave no slice counted as running; otherwise events after it would
   land in the dead shard's buffer, or every later lookup would pay
   for the domain-local path. *)
let test_shard_exception_restores_root () =
  let r = Trace.record () in
  let sb = Trace.shard_buf ~shard:0 ~shards:1 in
  Trace.shard_set_enabled sb true;
  Alcotest.check_raises "exception escapes the slice" Exit (fun () ->
      Trace.with_shard sb (fun () ->
          Alcotest.(check int) "one slice running" 1 (Trace.active_shards ());
          Trace.emit (Trace.Mark "in shard");
          raise Exit));
  Alcotest.(check int) "no slice running" 0 (Trace.active_shards ());
  Alcotest.(check int) "shard kept its event" 1 (Trace.shard_len sb);
  Trace.emit (Trace.Mark "after");
  Alcotest.(check int) "root recorder gets the next event" 1 (Trace.total r);
  Alcotest.(check bool) "and it is the right one" true
    (List.map (fun (e : Trace.event) -> e.Trace.kind) (Trace.events r)
     = [ Trace.Mark "after" ]);
  Trace.stop r

let test_shard_nested () =
  let r = Trace.record () in
  let sb0 = Trace.shard_buf ~shard:0 ~shards:2 in
  let sb1 = Trace.shard_buf ~shard:1 ~shards:2 in
  Trace.shard_set_enabled sb0 true;
  Trace.shard_set_enabled sb1 true;
  Trace.with_shard sb0 (fun () ->
      Trace.emit (Trace.Mark "outer");
      Trace.with_shard sb1 (fun () ->
          Alcotest.(check int) "two slices" 2 (Trace.active_shards ());
          Trace.emit (Trace.Mark "inner"));
      Alcotest.(check int) "one slice" 1 (Trace.active_shards ());
      Trace.emit (Trace.Mark "outer again"));
  Alcotest.(check int) "none" 0 (Trace.active_shards ());
  Trace.emit (Trace.Mark "root");
  let kinds sb =
    List.init (Trace.shard_len sb) (fun i ->
        let _, _, k = Trace.shard_get sb i in
        k)
  in
  Alcotest.(check bool) "outer buffer" true
    (kinds sb0 = [ Trace.Mark "outer"; Trace.Mark "outer again" ]);
  Alcotest.(check bool) "inner buffer" true (kinds sb1 = [ Trace.Mark "inner" ]);
  Alcotest.(check int) "root saw only its own" 1 (Trace.total r);
  Trace.stop r

(* A recorder on the main domain, around a churn run whose second shard
   executes on a worker domain: the worker emits only inside its shard
   slices, so the merged stream is the one a single domain records. *)
let test_two_domain_run_same_stream () =
  let module Exp_scale = Ash_core.Exp_scale in
  let record ~jobs =
    let r = Trace.record () in
    let res =
      Exp_scale.run_churn
        {
          Exp_scale.default_spec with
          connections = 8;
          client_hosts = 4;
          rounds = 2;
          shards = 2;
          jobs;
        }
    in
    Trace.stop r;
    (res, Trace.total r, Trace.events r)
  in
  let res1, n1, ev1 = record ~jobs:1 in
  let res2, n2, ev2 = record ~jobs:2 in
  Alcotest.(check int) "no slice left running" 0 (Trace.active_shards ());
  Alcotest.(check bool) "run completed" true (res1.Exp_scale.completed = 8);
  Alcotest.(check bool) "same result" true (res1 = res2);
  Alcotest.(check bool) "stream non-trivial" true (n1 > 1000);
  Alcotest.(check int) "same length" n1 n2;
  List.iteri
    (fun i ((a : Trace.event), (b : Trace.event)) ->
       if a <> b then
         Alcotest.failf "event %d diverged: %a vs %a" i Trace.pp_event a
           Trace.pp_event b)
    (List.combine ev1 ev2)

(* ------------------------------------------------------------------ *)
(* Metrics: counter snapshot-vs-reset, histogram edges                 *)
(* ------------------------------------------------------------------ *)

let test_counter_snapshot_vs_reset () =
  let m = Metrics.create () in
  Metrics.incr m "c" ~by:5;
  let r = Metrics.counter_ref m "c" in
  Alcotest.(check int) "interned ref sees prior increments" 5 !r;
  (* A read is a snapshot: it does not consume the count. *)
  Alcotest.(check int) "read leaves value" 5 (Metrics.counter m "c");
  Alcotest.(check int) "second read identical" 5 (Metrics.counter m "c");
  Metrics.clear m;
  Alcotest.(check int) "clear zeroes" 0 (Metrics.counter m "c");
  (* Interned handles must survive a clear and keep counting. *)
  incr r;
  Alcotest.(check int) "interned ref still live after clear" 1
    (Metrics.counter m "c")

let test_histogram_edge_cases () =
  let m = Metrics.create () in
  Alcotest.(check bool) "empty histogram is None" true
    (Metrics.histogram m "h" = None);
  Metrics.observe m "h" 42.;
  (match Metrics.histogram m "h" with
   | None -> Alcotest.fail "single-sample histogram missing"
   | Some s ->
     Alcotest.(check (float 1e-9)) "p50 = the sample" 42. s.Metrics.p50;
     Alcotest.(check (float 1e-9)) "p99 = the sample" 42. s.Metrics.p99);
  Metrics.clear m;
  Alcotest.(check bool) "cleared histogram is None again" true
    (Metrics.histogram m "h" = None)

(* ------------------------------------------------------------------ *)
(* Timeseries: grid sampling, rate deltas, rings, export               *)
(* ------------------------------------------------------------------ *)

module Timeseries = Ash_obs.Timeseries

let one_series name ts =
  match List.filter (fun v -> v.Timeseries.name = name) (Timeseries.series ts) with
  | [ v ] -> v
  | l -> Alcotest.failf "expected one series %S, got %d" name (List.length l)

let test_ts_grid_sampling () =
  let ts = Timeseries.create ~interval_ns:100 ~capacity:8 () in
  let v = ref 1. in
  Timeseries.register_gauge ts "g" (fun () -> !v);
  Timeseries.tick ts ~now:0;
  (* inside the first interval: no grid point crossed *)
  v := 2.;
  Timeseries.tick ts ~now:50;
  (* crossing into the second interval samples AT the grid time *)
  Timeseries.tick ts ~now:149;
  v := 9.;
  Timeseries.tick ts ~now:150;
  let s = one_series "g" ts in
  Alcotest.(check bool) "kind" true (s.Timeseries.kind = Timeseries.Gauge);
  Alcotest.(check (list (pair int (float 1e-9)))) "grid-stamped samples"
    [ (0, 1.); (100, 2.) ]
    s.Timeseries.samples

let test_ts_rate_delta_and_total () =
  let ts = Timeseries.create ~interval_ns:100 ~capacity:2 () in
  let total = ref 5 in
  Timeseries.register_rate ts "r" (fun () -> !total);
  (* Registration baselines at 5: the pre-existing total is not a delta. *)
  Timeseries.tick ts ~now:0;
  total := 12;
  Timeseries.tick ts ~now:100;
  total := 12;
  Timeseries.tick ts ~now:200;
  total := 15;
  Timeseries.tick ts ~now:300;
  let s = one_series "r" ts in
  (* capacity 2: ring keeps the newest two deltas, cum keeps them all *)
  Alcotest.(check (list (pair int (float 1e-9)))) "newest deltas"
    [ (200, 0.); (300, 3.) ]
    s.Timeseries.samples;
  Alcotest.(check int) "cumulative survives wraparound" 10 s.Timeseries.cum

let test_ts_reregister_keeps_ring () =
  let ts = Timeseries.create ~interval_ns:100 ~capacity:8 () in
  Timeseries.register_rate ts "r" (fun () -> 10);
  Timeseries.tick ts ~now:0;
  (* A re-created component restarts its total from a smaller value;
     rebaselining must not produce a negative delta, and the ring is
     kept so the series continues. *)
  Timeseries.register_rate ts "r" (fun () -> 3);
  Timeseries.tick ts ~now:100;
  let s = one_series "r" ts in
  Alcotest.(check (list (pair int (float 1e-9)))) "no negative delta"
    [ (0, 0.); (100, 0.) ]
    s.Timeseries.samples;
  Timeseries.unregister ts "r";
  Alcotest.(check int) "unregister drops the series" 0
    (List.length (Timeseries.series ts))

let test_ts_clock_backwards_realigns () =
  let ts = Timeseries.create ~interval_ns:100 ~capacity:8 () in
  let v = ref 1. in
  Timeseries.register_gauge ts "g" (fun () -> !v);
  (* first tick samples at the pending grid point (0), then advances
     the grid past now (next due: 1_100) *)
  Timeseries.tick ts ~now:1_000;
  (* a new engine in the same process restarts virtual time near 0:
     more than one interval behind the grid, so the grid realigns and
     sampling resumes instead of going silent until t=1_100 *)
  v := 4.;
  Timeseries.tick ts ~now:50;
  let s = one_series "g" ts in
  Alcotest.(check (list (pair int (float 1e-9)))) "realigned grid"
    [ (0, 1.); (0, 4.) ]
    s.Timeseries.samples;
  (* and the realigned grid keeps advancing normally *)
  v := 6.;
  Timeseries.tick ts ~now:100;
  let s = one_series "g" ts in
  Alcotest.(check (list (pair int (float 1e-9)))) "grid resumes"
    [ (0, 1.); (0, 4.); (100, 6.) ]
    s.Timeseries.samples

let test_ts_window_and_export () =
  let mk () =
    let ts = Timeseries.create ~interval_ns:100 ~capacity:8 () in
    let total = ref 0 in
    Timeseries.register_rate ts "msgs" (fun () -> !total);
    Timeseries.register_gauge ts "depth" (fun () -> 2.5);
    Timeseries.register_gauge ts "never-sampled" (fun () -> 0.);
    Timeseries.unregister ts "never-sampled";
    for i = 0 to 4 do
      total := !total + i;
      Timeseries.tick ts ~now:(i * 100)
    done;
    ts
  in
  let ts = mk () in
  (match Timeseries.window ts ~last:2 with
   | [ depth; msgs ] ->
     Alcotest.(check string) "name order deterministic" "depth"
       depth.Timeseries.name;
     Alcotest.(check int) "window truncates" 2
       (List.length msgs.Timeseries.samples);
     Alcotest.(check int) "cum is the full total" 10 msgs.Timeseries.cum
   | l -> Alcotest.failf "expected 2 views, got %d" (List.length l));
  let j = Timeseries.to_json ts in
  Alcotest.(check bool) "schema" true (contains j "ashs-telemetry/1");
  Alcotest.(check bool) "rate total exported" true
    (contains j "\"total\": 10");
  let bal c o =
    String.fold_left
      (fun n ch -> if ch = o then n + 1 else if ch = c then n - 1 else n)
      0 j
  in
  Alcotest.(check int) "braces" 0 (bal '}' '{');
  Alcotest.(check int) "brackets" 0 (bal ']' '[');
  (* Identical construction, identical bytes: the determinism the
     sharded telemetry stream relies on. *)
  Alcotest.(check string) "byte-identical reruns" j
    (Timeseries.to_json (mk ()));
  let p = Timeseries.to_prometheus ts in
  Alcotest.(check bool) "counter line" true
    (contains p "# TYPE ash_msgs counter\nash_msgs 10");
  Alcotest.(check bool) "gauge line has last sample" true
    (contains p "# TYPE ash_depth gauge\nash_depth 2.5")

let test_ts_prometheus_name_sanitization () =
  let ts = Timeseries.create ~interval_ns:100 ~capacity:4 () in
  Timeseries.register_gauge ts "kern.host0.busy-ns" (fun () -> 1.);
  Timeseries.sample ts ~now:0;
  Alcotest.(check bool) "dots and dashes become underscores" true
    (contains (Timeseries.to_prometheus ts) "ash_kern_host0_busy_ns 1")

(* ------------------------------------------------------------------ *)
(* Flight recorder: anomaly triggers and postmortem dumps              *)
(* ------------------------------------------------------------------ *)

module Flight = Ash_obs.Flight

(* Arm, run, always disarm: taps are process-global state. *)
let with_flight ?config ?timeseries f =
  let fl = Flight.arm ?config ?timeseries () in
  Fun.protect ~finally:(fun () -> Flight.disarm fl) (fun () -> f fl)

let flight_cfg =
  { Flight.default_config with
    queue_full_burst = 3;
    retransmit_storm = 3;
    switch_drop_spike = 3;
    burst_window_ns = 1_000;
    stall_ns = 1_000;
    cooldown_ns = 100;
    metric_window = 4 }

let test_flight_quarantine_dump () =
  let t = ref 0 in
  Trace.set_clock (fun () -> !t);
  with_flight ~config:flight_cfg (fun fl ->
      Alcotest.(check bool) "tap makes the stream live" true (Trace.enabled ());
      Trace.with_corr 1 (fun () ->
          Span.begin_span ~corr:1 Trace.Ash_run;
          t := 40;
          Span.end_span ~corr:1 Trace.Ash_run);
      t := 50;
      Trace.emit (Trace.Ash_quarantine { id = 7; kills = 3 });
      Alcotest.(check int) "one dump" 1 (Flight.dump_count fl);
      match Flight.dumps fl with
      | [ d ] ->
        Alcotest.(check string) "trigger" "quarantine"
          (Flight.trigger_label d.Flight.d_trigger);
        Alcotest.(check int) "fired at the event time" 50 d.Flight.d_ts;
        (match d.Flight.d_event with
         | Some e ->
           Alcotest.(check string) "triggering event kept" "ash.quarantine"
             (Trace.label e.Trace.kind)
         | None -> Alcotest.fail "no triggering event");
        Alcotest.(check bool) "ring window non-empty" true
          (d.Flight.d_events <> []);
        Alcotest.(check int) "causal span recovered" 1
          (List.length d.Flight.d_spans);
        let j = Flight.dump_to_json d in
        Alcotest.(check bool) "schema" true (contains j "ashs-flight-dump/1");
        Alcotest.(check bool) "event label in json" true
          (contains j "ash.quarantine");
        let bal c o =
          String.fold_left
            (fun n ch -> if ch = o then n + 1 else if ch = c then n - 1 else n)
            0 j
        in
        Alcotest.(check int) "braces" 0 (bal '}' '{');
        Alcotest.(check int) "brackets" 0 (bal ']' '[')
      | l -> Alcotest.failf "expected 1 dump, got %d" (List.length l))

let test_flight_burst_threshold_and_cooldown () =
  let t = ref 0 in
  Trace.set_clock (fun () -> !t);
  with_flight ~config:flight_cfg (fun fl ->
      let drop () =
        Trace.emit (Trace.Pkt_drop { nic = "eth"; reason = Trace.Queue_full })
      in
      drop ();
      t := 10;
      drop ();
      Alcotest.(check int) "below threshold: quiet" 0 (Flight.dump_count fl);
      t := 20;
      drop ();
      Alcotest.(check int) "third drop in window fires" 1 (Flight.dump_count fl);
      (* Within the cooldown a sustained burst must not re-fire... *)
      t := 40;
      drop (); drop (); drop ();
      Alcotest.(check int) "cooldown suppresses" 1 (Flight.dump_count fl);
      (* ...after it, a fresh burst fires again. *)
      t := 200;
      drop ();
      t := 210;
      drop ();
      t := 220;
      drop ();
      Alcotest.(check int) "re-arms after cooldown" 2 (Flight.dump_count fl);
      match Flight.dumps fl with
      | d :: _ ->
        Alcotest.(check string) "trigger" "queue-full-burst"
          (Flight.trigger_label d.Flight.d_trigger)
      | [] -> Alcotest.fail "no dumps")

let test_flight_burst_window_expires () =
  let t = ref 0 in
  Trace.set_clock (fun () -> !t);
  with_flight ~config:flight_cfg (fun fl ->
      let drop () =
        Trace.emit (Trace.Pkt_drop { nic = "eth"; reason = Trace.Queue_full })
      in
      (* Three drops, but spread wider than burst_window_ns: no anomaly. *)
      drop ();
      t := 1_500;
      drop ();
      t := 3_000;
      drop ();
      Alcotest.(check int) "slow drip never fires" 0 (Flight.dump_count fl))

let test_flight_switch_drop_spike () =
  let t = ref 0 in
  Trace.set_clock (fun () -> !t);
  with_flight ~config:flight_cfg (fun fl ->
      (* Switch tail drops classify by nic, not by reason. *)
      for i = 1 to 3 do
        t := i * 10;
        Trace.emit
          (Trace.Pkt_drop { nic = "switch"; reason = Trace.Queue_full })
      done;
      Alcotest.(check int) "spike fires" 1 (Flight.dump_count fl);
      match Flight.dumps fl with
      | d :: _ ->
        Alcotest.(check string) "classified as switch spike"
          "switch-drop-spike"
          (Flight.trigger_label d.Flight.d_trigger)
      | [] -> Alcotest.fail "no dumps")

let test_flight_stall_watchdog () =
  let t = ref 0 in
  Trace.set_clock (fun () -> !t);
  with_flight ~config:flight_cfg (fun fl ->
      (* Progress at t=0, then only epoch heartbeats landing inside the
         stall window: a stall. *)
      Trace.emit (Trace.Pkt_rx { nic = "eth"; bytes = 64 });
      Flight.heartbeat fl ~now:500;
      Alcotest.(check int) "within budget: quiet" 0 (Flight.dump_count fl);
      Flight.heartbeat_all ~now:1_000;
      Alcotest.(check int) "starved progress fires" 1 (Flight.dump_count fl);
      match Flight.dumps fl with
      | [ d ] ->
        Alcotest.(check string) "trigger" "stalled-epoch"
          (Flight.trigger_label d.Flight.d_trigger);
        Alcotest.(check bool) "heartbeat stall has no event" true
          (d.Flight.d_event = None)
      | l -> Alcotest.failf "expected 1 dump, got %d" (List.length l))

let test_flight_stall_idle_fast_forward () =
  let t = ref 0 in
  Trace.set_clock (fun () -> !t);
  with_flight ~config:flight_cfg (fun fl ->
      (* Progress at t=0, then the clock jumps straight over several
         stall windows (an RTO backoff / TIME_WAIT fast-forward): the
         recorder saw nothing inside the window, so this is idle time,
         not a stall — for both the event path and the heartbeat path. *)
      Trace.emit (Trace.Pkt_rx { nic = "eth"; bytes = 64 });
      t := 5_000;
      Trace.emit (Trace.Mark "timer-after-idle");
      Alcotest.(check int) "event after idle gap: no dump" 0
        (Flight.dump_count fl);
      Flight.heartbeat fl ~now:20_000;
      Alcotest.(check int) "heartbeat after idle gap: no dump" 0
        (Flight.dump_count fl);
      (* The watchdog re-anchored, not died: dense activity with no
         progress still fires from the new anchor. *)
      Flight.heartbeat fl ~now:20_500;
      Flight.heartbeat fl ~now:21_000;
      Alcotest.(check int) "still armed after re-anchor" 1
        (Flight.dump_count fl))

let test_flight_metric_window_in_dump () =
  let t = ref 0 in
  Trace.set_clock (fun () -> !t);
  let ts = Timeseries.create ~interval_ns:100 ~capacity:64 () in
  let total = ref 0 in
  Timeseries.register_rate ts "drops" (fun () -> !total);
  for i = 0 to 9 do
    total := !total + 1;
    Timeseries.tick ts ~now:(i * 100)
  done;
  with_flight ~config:flight_cfg ~timeseries:ts (fun fl ->
      t := 1_000;
      Trace.emit (Trace.Ash_quarantine { id = 1; kills = 9 });
      match Flight.dumps fl with
      | [ d ] ->
        (match d.Flight.d_metrics with
         | [ v ] ->
           Alcotest.(check string) "series name" "drops" v.Timeseries.name;
           Alcotest.(check int) "trailing window truncated to config" 4
             (List.length v.Timeseries.samples)
         | l -> Alcotest.failf "expected 1 metric view, got %d" (List.length l));
        Alcotest.(check int) "grid pitch recorded" 100 d.Flight.d_interval_ns
      | l -> Alcotest.failf "expected 1 dump, got %d" (List.length l))

let test_flight_write_dumps () =
  let t = ref 0 in
  Trace.set_clock (fun () -> !t);
  with_flight ~config:flight_cfg (fun fl ->
      Trace.emit (Trace.Ash_quarantine { id = 2; kills = 1 });
      let prefix =
        Filename.concat (Filename.get_temp_dir_name ()) "ash-flight-test"
      in
      let paths = Flight.write_dumps fl ~prefix in
      Fun.protect
        ~finally:(fun () -> List.iter (fun p -> try Sys.remove p with _ -> ()) paths)
        (fun () ->
           match paths with
           | [ p ] ->
             let ic = open_in p in
             let n = in_channel_length ic in
             let s = really_input_string ic n in
             close_in ic;
             Alcotest.(check bool) "file holds the dump json" true
               (contains s "ashs-flight-dump/1")
           | l -> Alcotest.failf "expected 1 path, got %d" (List.length l)))

let () =
  Alcotest.run "ash_obs"
    [
      ( "sink",
        [
          Alcotest.test_case "null sink" `Quick (isolated test_null_sink_is_off);
          Alcotest.test_case "record/stop" `Quick (isolated test_record_enables);
          Alcotest.test_case "clock stamps" `Quick (isolated test_clock_stamps);
          Alcotest.test_case "swap clock" `Quick
            (isolated test_swap_clock_returns_previous);
          Alcotest.test_case "two engines" `Quick
            (isolated test_two_engines_stamp_their_own_events);
        ] );
      ( "ring",
        [
          Alcotest.test_case "bounded" `Quick (isolated test_ring_bounds);
          Alcotest.test_case "under capacity" `Quick
            (isolated test_no_drop_under_capacity);
          Alcotest.test_case "clear" `Quick (isolated test_clear);
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick (isolated test_counters_derived);
          Alcotest.test_case "histograms" `Quick
            (isolated test_histograms_derived);
          Alcotest.test_case "summary edges" `Quick
            (isolated test_summary_edge_cases);
        ] );
      ( "dump",
        [
          Alcotest.test_case "text" `Quick (isolated test_text_dump);
          Alcotest.test_case "json" `Quick (isolated test_json_dump);
          Alcotest.test_case "labels" `Quick (isolated test_labels_stable);
          Alcotest.test_case "numeric fields" `Quick
            (isolated test_json_field_value_numeric_only);
          Alcotest.test_case "chrome export" `Quick
            (isolated test_chrome_export_manual);
        ] );
      ( "span",
        [
          Alcotest.test_case "wraparound counters" `Quick
            (isolated test_wraparound_counters_exact);
          Alcotest.test_case "pairing" `Quick (isolated test_span_pairing);
          Alcotest.test_case "unclosed" `Quick
            (isolated test_unclosed_span_detection);
          Alcotest.test_case "sampling" `Quick (isolated test_span_sampling);
        ] );
      ( "profile",
        [
          Alcotest.test_case "round-trip attribution" `Quick
            (isolated test_round_trip_attribution);
          Alcotest.test_case "sampling halves spans" `Quick
            (isolated test_round_trip_sampling_halves_spans);
        ] );
      ( "shard-buf",
        [
          Alcotest.test_case "contexts isolated" `Quick
            (isolated test_shard_buffers_isolated);
          Alcotest.test_case "strided correlation ids" `Quick
            (isolated test_shard_corr_strided);
          Alcotest.test_case "exception restores root" `Quick
            (isolated test_shard_exception_restores_root);
          Alcotest.test_case "nested slices" `Quick
            (isolated test_shard_nested);
          Alcotest.test_case "two-domain run, same stream" `Quick
            (isolated test_two_domain_run_same_stream);
        ] );
      ( "gauges",
        [
          Alcotest.test_case "snapshot vs reset" `Quick
            (isolated test_counter_snapshot_vs_reset);
          Alcotest.test_case "histogram edges" `Quick
            (isolated test_histogram_edge_cases);
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "grid sampling" `Quick
            (isolated test_ts_grid_sampling);
          Alcotest.test_case "rate deltas" `Quick
            (isolated test_ts_rate_delta_and_total);
          Alcotest.test_case "re-register keeps ring" `Quick
            (isolated test_ts_reregister_keeps_ring);
          Alcotest.test_case "clock backwards" `Quick
            (isolated test_ts_clock_backwards_realigns);
          Alcotest.test_case "window + export" `Quick
            (isolated test_ts_window_and_export);
          Alcotest.test_case "prometheus names" `Quick
            (isolated test_ts_prometheus_name_sanitization);
        ] );
      ( "flight",
        [
          Alcotest.test_case "quarantine dump" `Quick
            (isolated test_flight_quarantine_dump);
          Alcotest.test_case "burst threshold + cooldown" `Quick
            (isolated test_flight_burst_threshold_and_cooldown);
          Alcotest.test_case "burst window expires" `Quick
            (isolated test_flight_burst_window_expires);
          Alcotest.test_case "switch drop spike" `Quick
            (isolated test_flight_switch_drop_spike);
          Alcotest.test_case "stall watchdog" `Quick
            (isolated test_flight_stall_watchdog);
          Alcotest.test_case "stall ignores idle fast-forward" `Quick
            (isolated test_flight_stall_idle_fast_forward);
          Alcotest.test_case "metric window in dump" `Quick
            (isolated test_flight_metric_window_in_dump);
          Alcotest.test_case "write dumps" `Quick
            (isolated test_flight_write_dumps);
        ] );
    ]

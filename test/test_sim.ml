(* Tests for Ash_sim: event engine ordering, cache behaviour, memory
   protection, machine cycle accounting, and the Table-III copy
   calibration. *)

module Engine = Ash_sim.Engine
module Cache = Ash_sim.Cache
module Memory = Ash_sim.Memory
module Machine = Ash_sim.Machine
module Costs = Ash_sim.Costs
module Time = Ash_sim.Time

let costs = Costs.decstation

(* ------------------------------------------------------------------ *)
(* Time                                                                *)
(* ------------------------------------------------------------------ *)

let test_time_conversions () =
  Alcotest.(check int) "us->ns" 1500 (Time.ns_of_us 1.5);
  Alcotest.(check (float 1e-9)) "ns->us" 1.5 (Time.us_of_ns 1500);
  Alcotest.(check int) "cycles" 250 (Time.ns_of_cycles ~cycle_ns:25.0 10);
  (* 4096 bytes in 204.8 us = 20 MB/s *)
  Alcotest.(check (float 0.01)) "throughput" 20.0
    (Time.mbytes_per_sec ~bytes:4096 204_800)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  let mark tag () = log := tag :: !log in
  ignore (Engine.schedule e ~delay:300 (mark "c"));
  ignore (Engine.schedule e ~delay:100 (mark "a"));
  ignore (Engine.schedule e ~delay:200 (mark "b"));
  Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ]
    (List.rev !log);
  Alcotest.(check int) "clock at last event" 300 (Engine.now e)

let test_engine_fifo_same_instant () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore
      (Engine.schedule e ~delay:50 (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let id = Engine.schedule e ~delay:10 (fun () -> fired := true) in
  Engine.cancel e id;
  Engine.run e;
  Alcotest.(check bool) "cancelled event did not fire" false !fired;
  Alcotest.(check int) "no pending" 0 (Engine.pending e)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let result = ref 0 in
  ignore
    (Engine.schedule e ~delay:10 (fun () ->
         ignore
           (Engine.schedule e ~delay:5 (fun () -> result := Engine.now e))));
  Engine.run e;
  Alcotest.(check int) "nested fires at 15" 15 !result

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule e ~delay:10 (fun () -> fired := 10 :: !fired));
  ignore (Engine.schedule e ~delay:30 (fun () -> fired := 30 :: !fired));
  Engine.run_until e 20;
  Alcotest.(check (list int)) "only <=20" [ 10 ] !fired;
  Alcotest.(check int) "clock at deadline" 20 (Engine.now e);
  Engine.run e;
  Alcotest.(check (list int)) "rest fired" [ 30; 10 ] !fired

let test_engine_rejects_past () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:10 ignore);
  Engine.run e;
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      ignore (Engine.schedule e ~delay:(-1) ignore));
  Alcotest.check_raises "past absolute"
    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      ignore (Engine.schedule_at e ~at:5 ignore))

(* A cancelled event leaves the queue at once: nothing the engine holds
   keeps its action, or what the action captured, alive. *)
let test_engine_cancel_releases_action () =
  let e = Engine.create () in
  let w = Weak.create 1 in
  let[@inline never] schedule_and_cancel () =
    let v = Bytes.make 64 'x' in
    Weak.set w 0 (Some v);
    let id =
      Engine.schedule e ~delay:1_000_000_000 (fun () ->
          ignore (Bytes.length v))
    in
    Engine.cancel e id
  in
  schedule_and_cancel ();
  ignore (Engine.schedule e ~delay:10 ignore);
  Gc.full_major ();
  Alcotest.(check bool) "captured value collected" false (Weak.check w 0);
  Alcotest.(check int) "one pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "clock never reached the cancelled time" 10
    (Engine.now e)

let test_engine_cancel_foreign_event () =
  let a = Engine.create () and b = Engine.create () in
  let id = Engine.schedule a ~delay:10 ignore in
  ignore (Engine.schedule b ~delay:10 ignore);
  Alcotest.check_raises "cancel on the wrong engine"
    (Invalid_argument "Engine.cancel: event belongs to another engine")
    (fun () -> Engine.cancel b id);
  Alcotest.(check int) "a keeps its event" 1 (Engine.pending a);
  Alcotest.(check int) "b keeps its event" 1 (Engine.pending b)

(* One exception frame covers a whole run. When an action raises, the
   exception leaves [run] with the trace clock and the ambient
   correlation id as they were before the call, and the events still
   queued fire on the next run. *)
let test_engine_raising_action () =
  let module Trace = Ash_obs.Trace in
  let e = Engine.create () in
  let log = ref [] in
  Fun.protect
    ~finally:(fun () ->
      Trace.set_corr 0;
      Trace.set_clock (fun () -> 0))
    (fun () ->
      Trace.set_corr 5;
      ignore
        (Engine.schedule e ~delay:10 (fun () ->
             log := (10, Trace.current_corr ()) :: !log;
             Trace.set_corr 6;
             raise Exit));
      ignore
        (Engine.schedule e ~delay:20 (fun () ->
             log := (20, Trace.current_corr ()) :: !log));
      Trace.set_corr 77;
      Trace.set_clock (fun () -> -7);
      Alcotest.check_raises "exception leaves run" Exit (fun () ->
          Engine.run e);
      Alcotest.(check int) "ambient corr restored" 77 (Trace.current_corr ());
      Alcotest.(check int) "trace clock restored" (-7) (Trace.now ());
      Alcotest.(check int) "clock on the raising event" 10 (Engine.now e);
      Alcotest.(check int) "one event left" 1 (Engine.pending e);
      Engine.run e;
      Alcotest.(check (list (pair int int)))
        "each action ran under its scheduling corr" [ (10, 5); (20, 5) ]
        (List.rev !log);
      Alcotest.(check int) "corr after the second run" 77
        (Trace.current_corr ());
      Alcotest.(check int) "drained" 0 (Engine.pending e))

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let test_cache_miss_then_hit () =
  let c = Cache.create costs in
  let miss_cost = Cache.load c ~addr:0x1000 ~size:4 in
  let hit_cost = Cache.load c ~addr:0x1004 ~size:4 in
  Alcotest.(check int) "miss pays penalty"
    (costs.Costs.load_extra_cycles + costs.Costs.miss_penalty_cycles)
    miss_cost;
  Alcotest.(check int) "hit is cheap" costs.Costs.load_extra_cycles hit_cost;
  Alcotest.(check bool) "probe hit" true (Cache.probe c ~addr:0x1000 = Cache.Hit)

let test_cache_direct_mapped_conflict () =
  let c = Cache.create costs in
  ignore (Cache.load c ~addr:0x1000 ~size:4);
  (* Same index, different tag: 64 KB away. *)
  ignore (Cache.load c ~addr:(0x1000 + costs.Costs.cache_size) ~size:4);
  Alcotest.(check bool) "evicted" true (Cache.probe c ~addr:0x1000 = Cache.Miss)

let test_cache_flush_all () =
  let c = Cache.create costs in
  ignore (Cache.load c ~addr:0x2000 ~size:4);
  Cache.flush_all c;
  Alcotest.(check bool) "flushed" true (Cache.probe c ~addr:0x2000 = Cache.Miss)

let test_cache_flush_range () =
  let c = Cache.create costs in
  ignore (Cache.load c ~addr:0x2000 ~size:64);
  Cache.flush_range c ~addr:0x2000 ~len:32;
  Alcotest.(check bool) "flushed prefix" true
    (Cache.probe c ~addr:0x2000 = Cache.Miss);
  Alcotest.(check bool) "suffix survives" true
    (Cache.probe c ~addr:0x2030 = Cache.Hit)

let test_cache_store_no_allocate () =
  let c = Cache.create costs in
  let cost = Cache.store c ~addr:0x3000 ~size:4 in
  Alcotest.(check int) "store cost" costs.Costs.store_extra_cycles cost;
  Alcotest.(check bool) "no allocate on store miss" true
    (Cache.probe c ~addr:0x3000 = Cache.Miss)

let test_cache_spanning_access () =
  let c = Cache.create costs in
  (* A 4-byte access straddling a line boundary touches two lines. *)
  let cost = Cache.load c ~addr:(0x1000 + costs.Costs.cache_line - 2) ~size:4 in
  Alcotest.(check int) "two misses"
    (2 * (costs.Costs.load_extra_cycles + costs.Costs.miss_penalty_cycles))
    cost

let test_cache_warm_range () =
  let c = Cache.create costs in
  Cache.warm_range c ~addr:0x4000 ~len:4096;
  let cost = Cache.load c ~addr:0x4000 ~size:4 in
  Alcotest.(check int) "warm = hit" costs.Costs.load_extra_cycles cost

(* Each run function rejects a size that is not a power of two up to a
   line, and names itself. *)
let test_cache_run_sizes () =
  let c = Cache.create costs in
  List.iter
    (fun (name, run) ->
       List.iter
         (fun size ->
            Alcotest.check_raises
              (Printf.sprintf "%s, size %d" name size)
              (Invalid_argument
                 (name ^ ": size must be a power of two up to a line"))
              (fun () -> ignore (run c ~addr:0x1000 ~size ~count:4)))
         [ 0; 3; 2 * costs.Costs.cache_line ])
    [ ("Cache.load_run", Cache.load_run); ("Cache.store_run", Cache.store_run);
      ("Cache.load_run_worst", Cache.load_run_worst) ]

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

let test_memory_rw () =
  let m = Memory.create () in
  let r = Memory.alloc m 64 in
  Memory.store32 m r.Memory.base 0xdeadbeef;
  Alcotest.(check int) "32-bit rw" 0xdeadbeef (Memory.load32 m r.Memory.base);
  Alcotest.(check int) "byte view (big-endian)" 0xde
    (Memory.load8 m r.Memory.base);
  Memory.store16 m (r.Memory.base + 4) 0xcafe;
  Alcotest.(check int) "16-bit rw" 0xcafe (Memory.load16 m (r.Memory.base + 4))

let test_memory_unmapped_faults () =
  let m = Memory.create () in
  let r = Memory.alloc m 16 in
  (match Memory.load32 m (r.Memory.base + 16) with
   | _ -> Alcotest.fail "expected fault"
   | exception Memory.Fault { reason; _ } ->
     Alcotest.(check string) "reason" "unmapped" reason);
  match Memory.load8 m 0 with
  | _ -> Alcotest.fail "expected fault at null"
  | exception Memory.Fault _ -> ()

let test_memory_nonresident_faults () =
  let m = Memory.create () in
  let r = Memory.alloc m 16 in
  Memory.set_resident r false;
  (match Memory.load8 m r.Memory.base with
   | _ -> Alcotest.fail "expected fault"
   | exception Memory.Fault { reason; _ } ->
     Alcotest.(check string) "reason" "non-resident page" reason);
  Memory.set_resident r true;
  Alcotest.(check int) "readable again" 0 (Memory.load8 m r.Memory.base)

let test_memory_guard_gap () =
  let m = Memory.create () in
  let a = Memory.alloc m 32 in
  let b = Memory.alloc m 32 in
  Alcotest.(check bool) "gap between regions" true
    (b.Memory.base >= a.Memory.base + a.Memory.len + 64)

let test_memory_blit () =
  let m = Memory.create () in
  let a = Memory.alloc m 32 and b = Memory.alloc m 32 in
  Memory.blit_from_bytes m ~src:(Bytes.of_string "hello world.....") ~src_off:0
    ~dst:a.Memory.base ~len:16;
  Memory.blit m ~src:a.Memory.base ~dst:b.Memory.base ~len:16;
  Alcotest.(check string) "copied" "hello world"
    (Memory.read_string m ~addr:b.Memory.base ~len:11)

let test_memory_many_regions_lookup () =
  let m = Memory.create () in
  let regions = List.init 100 (fun i -> (i, Memory.alloc m (8 + i))) in
  List.iter
    (fun (i, (r : Memory.region)) ->
       Memory.store8 m r.Memory.base i;
       Alcotest.(check int) "lookup" (i land 0xff) (Memory.load8 m r.Memory.base))
    regions

let fault_reason f =
  match f () with
  | _ -> "no fault"
  | exception Memory.Fault { reason; _ } -> reason

(* Lay out [a] and [b] so their bases are 256 KiB apart: with 1024
   slots of a 256-byte granule, they share one region-cache slot. The
   pad between them takes the rest of the span, after two guard gaps of
   256 bytes. *)
let cache_reach = 256 * 1024

let aliased_pair mem len =
  let a = Memory.alloc mem len in
  ignore (Memory.alloc mem (cache_reach - len - (2 * 256)));
  let b = Memory.alloc mem len in
  Alcotest.(check int) "bases one cache reach apart" cache_reach
    (b.Memory.base - a.Memory.base);
  (a, b)

(* Taking a region away (freeing it or paging it out) right after it
   was accessed must fault at the very next load, store, [resident_at]
   and [Machine.copy], with the same reason, and leave the other region
   serving. The two regions sit in slots of their own, or share one
   slot when their bases are a cache reach apart; either the region
   accessed last or the one before is taken away. *)
let test_memory_cache_invalidation () =
  List.iter
    (fun ((pair, aliased), which, action) ->
       let m = Machine.create costs in
       let mem = Machine.mem m in
       let a, b =
         if aliased then aliased_pair mem 64
         else
           let a = Memory.alloc mem 64 in
           (a, Memory.alloc mem 64)
       in
       for _ = 1 to 3 do
         ignore (Memory.load8 mem a.Memory.base);
         ignore (Memory.load8 mem b.Memory.base)
       done;
       let target, other = if which = "last" then (b, a) else (a, b) in
       let expected =
         match action with
         | `Free ->
           Memory.free mem target;
           "unmapped"
         | `Page_out ->
           Memory.set_resident target false;
           "non-resident page"
       in
       let what = Printf.sprintf "%s, %s accessed, %s" pair which expected in
       Alcotest.(check string) (what ^ ": load") expected
         (fault_reason (fun () -> Memory.load32 mem (target.Memory.base + 4)));
       Alcotest.(check string) (what ^ ": store") expected
         (fault_reason (fun () -> Memory.store8 mem target.Memory.base 1));
       Alcotest.(check bool) (what ^ ": resident_at") false
         (Memory.resident_at mem ~addr:target.Memory.base ~size:1);
       Alcotest.(check string) (what ^ ": copy from") expected
         (fault_reason (fun () ->
              Machine.copy m ~src:target.Memory.base ~dst:other.Memory.base
                ~len:16));
       Alcotest.(check string) (what ^ ": copy to") expected
         (fault_reason (fun () ->
              Machine.copy m ~src:other.Memory.base ~dst:target.Memory.base
                ~len:16));
       Memory.store8 mem other.Memory.base 7;
       Alcotest.(check int) (what ^ ": other region serves") 7
         (Memory.load8 mem other.Memory.base);
       Alcotest.(check bool) (what ^ ": other region resident") true
         (Memory.resident_at mem ~addr:other.Memory.base ~size:64);
       Alcotest.(check string) (what ^ ": still faults after the other")
         expected
         (fault_reason (fun () -> Memory.load8 mem target.Memory.base)))
    (List.concat_map
       (fun pair ->
          List.concat_map
            (fun which ->
               List.map (fun action -> (pair, which, action))
                 [ `Free; `Page_out ])
            [ "last"; "earlier" ])
       [ ("own slots", false); ("one shared slot", true) ])

(* [addr + size] wraps negative near [max_int]: a span that runs past
   it lies in no region, the highest one included. *)
let test_memory_wrapping_spans_fault () =
  let m = Memory.create () in
  ignore (Memory.alloc m 64);
  let top = Memory.alloc m 4096 in
  ignore (Memory.load8 m top.Memory.base);
  let unmapped addr size = Ok (addr, size, "unmapped") in
  let fault f =
    match f () with
    | () -> Error "no fault"
    | exception Memory.Fault { addr; size; reason } -> Ok (addr, size, reason)
  in
  let faults = Alcotest.(result (triple int int string) string) in
  List.iter
    (fun k ->
       let addr = max_int - k in
       let what op = Printf.sprintf "%s at max_int - %d" op k in
       Alcotest.check faults (what "load8") (unmapped addr 1)
         (fault (fun () -> ignore (Memory.load8 m addr)));
       Alcotest.check faults (what "load16") (unmapped addr 2)
         (fault (fun () -> ignore (Memory.load16 m addr)));
       Alcotest.check faults (what "load32") (unmapped addr 4)
         (fault (fun () -> ignore (Memory.load32 m addr)));
       Alcotest.check faults (what "store32") (unmapped addr 4)
         (fault (fun () -> Memory.store32 m addr 1));
       Alcotest.(check bool) (what "resident_at") false
         (Memory.resident_at m ~addr ~size:4);
       Alcotest.check faults (what "blit_to_bytes") (unmapped addr 16)
         (fault (fun () ->
              Memory.blit_to_bytes m ~src:addr ~dst:(Bytes.create 16)
                ~dst_off:0 ~len:16)))
    [ 0; 1; 3 ]

(* Allocate a region, touch it in every granule so it sits in every
   region-cache slot, and free it, in a frame of its own so nothing on
   the test's stack keeps it alive. *)
let[@inline never] alloc_touch_free m weak =
  let r = Memory.alloc m (1 lsl 20) in
  for g = 0 to (r.Memory.len / 256) - 1 do
    ignore (Memory.load8 m (r.Memory.base + (g * 256)))
  done;
  Weak.set weak 0 (Some r);
  Memory.free m r

let test_memory_free_releases_region () =
  let m = Memory.create () in
  let keep = Memory.alloc m 64 in
  let weak = Weak.create 1 in
  alloc_touch_free m weak;
  Gc.full_major ();
  Alcotest.(check bool) "freed region collected" false (Weak.check weak 0);
  Alcotest.(check int) "live regions" 1 (Memory.region_count m);
  Alcotest.(check int) "survivor readable" 0 (Memory.load8 m keep.Memory.base);
  Alcotest.(check bool) "double free raises" true
    (match Memory.free m keep; Memory.free m keep with
     | () -> false
     | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Machine: cycle accounting and Table III calibration                 *)
(* ------------------------------------------------------------------ *)

let mk_machine () = Machine.create costs

let throughput_of_copy ~warm_second m src dst1 dst2 len =
  (* Mirrors §V-A1: time one or two copies of [len] bytes, starting cold. *)
  Machine.flush_cache m;
  ignore (Machine.take_ns m);
  Machine.copy m ~src ~dst:dst1 ~len;
  (match dst2 with
   | None -> ()
   | Some d2 ->
     (* Our write-through cache does not allocate on stores, so "data in
        the cache for the second copy" (Table III) is set up explicitly;
        the uncached variant flushes instead. *)
     if warm_second then Machine.warm_range m ~addr:dst1 ~len
     else Machine.flush_cache m;
     Machine.copy m ~src:dst1 ~dst:d2 ~len);
  Time.mbytes_per_sec ~bytes:len (Machine.take_ns m)

let test_copy_moves_data () =
  let m = mk_machine () in
  let mem = Machine.mem m in
  let a = Memory.alloc mem 4096 and b = Memory.alloc mem 4096 in
  let payload = Bytes.create 4096 in
  Ash_util.Rng.fill_bytes (Ash_util.Rng.create 11) payload;
  Memory.blit_from_bytes mem ~src:payload ~src_off:0 ~dst:a.Memory.base
    ~len:4096;
  Machine.copy m ~src:a.Memory.base ~dst:b.Memory.base ~len:4096;
  Alcotest.(check string) "content equal" (Bytes.to_string payload)
    (Memory.read_string mem ~addr:b.Memory.base ~len:4096)

let test_copy_odd_length () =
  let m = mk_machine () in
  let mem = Machine.mem m in
  let a = Memory.alloc mem 64 and b = Memory.alloc mem 64 in
  Memory.blit_from_bytes mem ~src:(Bytes.of_string "0123456789abcdefg")
    ~src_off:0 ~dst:a.Memory.base ~len:17;
  Machine.copy m ~src:a.Memory.base ~dst:b.Memory.base ~len:17;
  Alcotest.(check string) "17 bytes copied" "0123456789abcdefg"
    (Memory.read_string mem ~addr:b.Memory.base ~len:17)

(* Exact sums from the checksum pass: zero words, a halfword and an odd
   byte; a lone halfword; a word whose halfwords carry out of 16 bits;
   and a segment of ones, whose every word carries. *)
let test_cksum_pass_values () =
  let m = mk_machine () in
  let mem = Machine.mem m in
  List.iter
    (fun (name, data, expect) ->
       let len = String.length data in
       let a = (Memory.alloc mem len).Memory.base in
       Memory.blit_from_bytes mem ~src:(Bytes.of_string data) ~src_off:0
         ~dst:a ~len;
       Alcotest.(check int) name expect
         (Ash_pipes.Baseline.cksum16_pass m ~addr:a ~len))
    [ ("3071 zero bytes", String.make 3071 '\000', 0);
      ("ff ff", "\xff\xff", 0xffff);
      ("80 00 80 00", "\x80\x00\x80\x00", 1);
      ("3072 x ff", String.make 3072 '\xff', 0xffff) ]

let test_table3_calibration () =
  (* Table III: single 20 MB/s, double (cached) 14, double (uncached) 11.
     We assert the calibrated model lands within 20% of each and that the
     ordering/ratios hold. *)
  let m = mk_machine () in
  let mem = Machine.mem m in
  let src = (Memory.alloc mem 4096).Memory.base in
  let d1 = (Memory.alloc mem 4096).Memory.base in
  let d2 = (Memory.alloc mem 4096).Memory.base in
  let single = throughput_of_copy ~warm_second:false m src d1 None 4096 in
  let double_cached =
    throughput_of_copy ~warm_second:true m src d1 (Some d2) 4096
  in
  let double_uncached =
    throughput_of_copy ~warm_second:false m src d1 (Some d2) 4096
  in
  let close paper v = abs_float (v -. paper) /. paper < 0.20 in
  Alcotest.(check bool)
    (Printf.sprintf "single ~20 (got %.1f)" single)
    true (close 20. single);
  Alcotest.(check bool)
    (Printf.sprintf "double cached ~14 (got %.1f)" double_cached)
    true (close 14. double_cached);
  Alcotest.(check bool)
    (Printf.sprintf "double uncached ~11 (got %.1f)" double_uncached)
    true (close 11. double_uncached);
  Alcotest.(check bool) "ordering" true
    (single > double_cached && double_cached > double_uncached)

let test_meter_drain () =
  let m = mk_machine () in
  Machine.charge_cycles m 40; (* = 1000 ns at 25 ns/cycle *)
  Machine.charge_ns m 500;
  Alcotest.(check int) "drain" 1500 (Machine.take_ns m);
  Alcotest.(check int) "reset" 0 (Machine.take_ns m);
  Alcotest.(check int) "monotonic total" 40 (Machine.consumed_cycles m)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_engine_monotonic_clock =
  QCheck.Test.make ~name:"event clock is monotonic" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 50) (int_bound 10_000))
    (fun delays ->
       let e = Engine.create () in
       let ok = ref true in
       let last = ref 0 in
       List.iter
         (fun d ->
            ignore
              (Engine.schedule e ~delay:d (fun () ->
                   if Engine.now e < !last then ok := false;
                   last := Engine.now e)))
         delays;
       Engine.run e;
       !ok)

(* The engine against a sorted-list model. A case is a sequence of
   operations from outside the engine: schedule (with many time ties),
   cancel any handle made so far (live, fired or already cancelled),
   and run to a deadline. Scheduled actions may themselves schedule a
   child or cancel another event. The model fires the least
   (time, schedule order) entry; the engine must fire the same events
   in the same order, and [pending] must equal the model's size after
   every operation. *)
type ev_act = Plain | Spawn of int | Kill of int
type ev_op = Sched of int * ev_act | Cancel of int | Run_until of int

let print_ev_op =
  let act = function
    | Plain -> "plain"
    | Spawn d -> Printf.sprintf "spawn+%d" d
    | Kill k -> Printf.sprintf "kill#%d" k
  in
  function
  | Sched (d, a) -> Printf.sprintf "sched+%d(%s)" d (act a)
  | Cancel k -> Printf.sprintf "cancel#%d" k
  | Run_until d -> Printf.sprintf "run_until+%d" d

let gen_ev_op =
  let open QCheck.Gen in
  let act =
    frequency
      [
        (3, return Plain);
        (1, map (fun d -> Spawn d) (int_bound 6));
        (1, map (fun k -> Kill k) (int_bound 1000));
      ]
  in
  frequency
    [
      (5, map2 (fun d a -> Sched (d, a)) (int_bound 8) act);
      (2, map (fun k -> Cancel k) (int_bound 1000));
      (2, map (fun d -> Run_until d) (int_bound 12));
    ]

type model_ev = { m_time : int; m_seq : int; m_act : ev_act }

let engine_matches_model ops =
  let e = Engine.create () in
  let handles = ref [||] and fired = ref [] in
  (* The model: a list of queued events sorted on (time, seq), where
     seq is the schedule order, which is also the event's id. *)
  let m_queue = ref [] and m_clock = ref 0 and m_fired = ref [] in
  let m_next = ref 0 in
  let ids () = Array.length !handles in
  let rec engine_sched ~at act =
    let id = ids () in
    (* Register the handle before the action can run. *)
    handles := Array.append !handles [| None |];
    let h =
      Engine.schedule_at e ~at (fun () ->
          fired := id :: !fired;
          match act with
          | Plain -> ()
          | Spawn d -> engine_sched ~at:(Engine.now e + d) Plain
          | Kill k -> Option.iter (Engine.cancel e) !handles.(k mod ids ()))
    in
    !handles.(id) <- Some h
  in
  let m_sched ~at act =
    let ev = { m_time = at; m_seq = !m_next; m_act = act } in
    incr m_next;
    m_queue :=
      List.merge
        (fun a b -> compare (a.m_time, a.m_seq) (b.m_time, b.m_seq))
        !m_queue [ ev ]
  in
  let m_cancel id = m_queue := List.filter (fun ev -> ev.m_seq <> id) !m_queue in
  let rec m_run_until deadline =
    match !m_queue with
    | ev :: rest when ev.m_time <= deadline ->
      m_queue := rest;
      m_clock := ev.m_time;
      m_fired := ev.m_seq :: !m_fired;
      (match ev.m_act with
       | Plain -> ()
       | Spawn d -> m_sched ~at:(!m_clock + d) Plain
       | Kill k -> m_cancel (k mod !m_next));
      m_run_until deadline
    | _ -> ()
  in
  let ok = ref true in
  let check () =
    if !fired <> !m_fired || Engine.pending e <> List.length !m_queue then
      ok := false
  in
  List.iter
    (fun op ->
       (match op with
        | Sched (d, act) ->
          let at = Engine.now e + d in
          engine_sched ~at act;
          m_sched ~at act
        | Cancel k ->
          if ids () > 0 then begin
            let id = k mod ids () in
            Option.iter (Engine.cancel e) !handles.(id);
            m_cancel id
          end
        | Run_until d ->
          let deadline = Engine.now e + d in
          Engine.run_until e deadline;
          m_run_until deadline;
          m_clock := max !m_clock deadline);
       check ())
    ops;
  Engine.run e;
  m_run_until max_int;
  check ();
  !ok && Engine.now e = !m_clock

let prop_engine_matches_model =
  QCheck.Test.make ~name:"engine = sorted-list model (schedule/cancel/run)"
    ~count:300 ~long_factor:20
    QCheck.(
      make
        ~print:(Print.list print_ev_op)
        ~shrink:Shrink.list
        Gen.(list_size (int_range 1 60) gen_ev_op))
    engine_matches_model

let prop_copy_preserves_content =
  QCheck.Test.make ~name:"machine copy preserves content" ~count:50
    QCheck.(string_of_size (Gen.int_range 1 2048))
    (fun s ->
       let m = mk_machine () in
       let mem = Machine.mem m in
       let len = String.length s in
       let a = Memory.alloc mem len and b = Memory.alloc mem len in
       Memory.blit_from_bytes mem ~src:(Bytes.of_string s) ~src_off:0
         ~dst:a.Memory.base ~len;
       Machine.copy m ~src:a.Memory.base ~dst:b.Memory.base ~len;
       Memory.read_string mem ~addr:b.Memory.base ~len = s)

let prop_cache_load_cost_bounded =
  QCheck.Test.make ~name:"load cost bounded by full-miss cost" ~count:200
    QCheck.(pair (int_bound 100_000) (int_range 1 64))
    (fun (addr, size) ->
       let c = Cache.create costs in
       let cost = Cache.load c ~addr:(0x1000 + addr) ~size in
       let lines = (size + (2 * costs.Costs.cache_line) - 1)
                   / costs.Costs.cache_line in
       cost
       <= lines
          * (costs.Costs.load_extra_cycles + costs.Costs.miss_penalty_cycles))

(* ------------------------------------------------------------------ *)
(* Differential: the allocation-free memory path vs a reference        *)
(* ------------------------------------------------------------------ *)

(* The reference keeps the implementation the allocation-free path
   replaced: an option-returning region lookup over a list, a
   closure-based line fold for cache costs, byte-wise big-endian
   accessors, and the per-word copy loop. It owns its own memory image,
   cache tags and cycle meter; regions are allocated in the same order
   on both sides, so their addresses agree. *)
module Ref = struct
  type t = {
    mem : Memory.t;
    mutable live : Memory.region list;
    tags : int array;
    mutable hits : int;
    mutable misses : int;
    mutable cycles : int;
  }

  let line = costs.Costs.cache_line
  let nlines = costs.Costs.cache_size / line

  let shift =
    let rec go acc n = if n = 1 then acc else go (acc + 1) (n lsr 1) in
    go 0 line

  let index la = (la lsr shift) land (nlines - 1)

  let create () =
    { mem = Memory.create (); live = []; tags = Array.make nlines (-1);
      hits = 0; misses = 0; cycles = 0 }

  let alloc t ~resident len =
    let r = Memory.alloc t.mem ~resident len in
    t.live <- r :: t.live;
    r

  let free t r =
    Memory.free t.mem r;
    t.live <- List.filter (fun x -> x != r) t.live

  let find t ~addr ~size =
    List.find_opt
      (fun (r : Memory.region) ->
         addr >= r.Memory.base && addr + size <= r.Memory.base + r.Memory.len)
      t.live

  let resident_at t ~addr ~size =
    match find t ~addr ~size with
    | None -> false
    | Some r -> r.Memory.resident

  let locate t addr size =
    match find t ~addr ~size with
    | None -> raise (Memory.Fault { addr; size; reason = "unmapped" })
    | Some r when not r.Memory.resident ->
      raise (Memory.Fault { addr; size; reason = "non-resident page" })
    | Some r -> (r.Memory.data, addr - r.Memory.base)

  let fold_lines ~addr ~size f init =
    if size <= 0 then init
    else begin
      let first = addr land lnot (line - 1) in
      let last = (addr + size - 1) land lnot (line - 1) in
      let acc = ref init and la = ref first in
      while !la <= last do
        acc := f !acc !la;
        la := !la + line
      done;
      !acc
    end

  let cache_load t ~addr ~size =
    fold_lines ~addr ~size
      (fun cost la ->
         let i = index la in
         if t.tags.(i) = la then begin
           t.hits <- t.hits + 1;
           cost + costs.Costs.load_extra_cycles
         end
         else begin
           t.misses <- t.misses + 1;
           t.tags.(i) <- la;
           cost + costs.Costs.load_extra_cycles
           + costs.Costs.miss_penalty_cycles
         end)
      0

  let cache_store ~addr ~size =
    fold_lines ~addr ~size
      (fun cost _ -> cost + costs.Costs.store_extra_cycles)
      0

  let charge t c = t.cycles <- t.cycles + c

  let load t size addr =
    charge t (costs.Costs.insn_cycles + cache_load t ~addr ~size);
    let data, off = locate t addr size in
    let v = ref 0 in
    for i = 0 to size - 1 do
      v := (!v lsl 8) lor Char.code (Bytes.get data (off + i))
    done;
    !v

  let store t size addr v =
    charge t (costs.Costs.insn_cycles + cache_store ~addr ~size);
    let data, off = locate t addr size in
    for i = 0 to size - 1 do
      Bytes.set data (off + i)
        (Char.chr ((v lsr (8 * (size - 1 - i))) land 0xff))
    done

  let copy t ~src ~dst ~len =
    charge t (5 * costs.Costs.insn_cycles);
    let words = len / 4 in
    let i = ref 0 in
    while !i < words do
      let group = min 4 (words - !i) in
      for k = 0 to group - 1 do
        let o = (!i + k) * 4 in
        store t 4 (dst + o) (load t 4 (src + o))
      done;
      charge t costs.Costs.insn_cycles;
      i := !i + group
    done;
    for o = words * 4 to len - 1 do
      store t 1 (dst + o) (load t 1 (src + o));
      charge t costs.Costs.insn_cycles
    done

  (* The separate checksum pass, one accounted halfword load at a
     time. *)
  let cksum16 t ~addr ~len =
    charge t 5;
    let sum = ref 0 in
    let i = ref 0 in
    while !i + 1 < len do
      sum := !sum + load t 2 (addr + !i);
      charge t 2;
      if !sum > 0xffff_ffff then sum := (!sum land 0xffff_ffff) + 1;
      i := !i + 2
    done;
    if len land 1 = 1 then begin
      sum := !sum + (load t 1 (addr + len - 1) lsl 8);
      charge t 2
    end;
    Ash_util.Checksum.fold16 !sum
end

(* Region lengths and residency: region 2 is paged out and region 3 is
   freed after allocation. Offsets past either end reach the guard gap,
   and odd lengths end regions mid-line. *)
let layout =
  [| (64, true); (37, true); (200, false); (16, true); (130, true);
     (48, true) |]

let freed = 3

(* The checksum property's world adds a region that holds a pass of up
   to 4 KiB. *)
let cksum_layout = Array.append layout [| (4111, true) |]

type world = {
  m : Machine.t;
  rf : Ref.t;
  real : Memory.region array;
  refr : Memory.region array;
}

let make_world ?(layout = layout) () =
  let m = Machine.create costs and rf = Ref.create () in
  let real =
    Array.map
      (fun (len, resident) -> Memory.alloc (Machine.mem m) ~resident len)
      layout
  in
  let refr =
    Array.map (fun (len, resident) -> Ref.alloc rf ~resident len) layout
  in
  Array.iteri
    (fun i (r : Memory.region) ->
       for j = 0 to r.Memory.len - 1 do
         let c = Char.chr (((i * 31) + (j * 7)) land 0xff) in
         Bytes.set r.Memory.data j c;
         Bytes.set refr.(i).Memory.data j c
       done)
    real;
  Memory.free (Machine.mem m) real.(freed);
  Ref.free rf refr.(freed);
  { m; rf; real; refr }

(* An address near a region (from 8 bytes before it to 8 bytes past its
   end), or anywhere in the whole span the regions occupy. *)
let gen_addr_in layout =
  let open QCheck.Gen in
  let probe = make_world ~layout () in
  let first = probe.real.(0) in
  let last = probe.real.(Array.length layout - 1) in
  frequency
    [
      ( 4,
        int_bound (Array.length layout - 1) >>= fun i ->
        let r = probe.real.(i) in
        map (fun d -> r.Memory.base + d) (int_range (-8) (r.Memory.len + 8)) );
      ( 1,
        int_range (first.Memory.base - 64)
          (last.Memory.base + last.Memory.len + 64) );
    ]

let gen_addr = gen_addr_in layout

type access = Load of int * int | Store of int * int * int

let gen_access =
  let open QCheck.Gen in
  let size = oneofl [ 1; 2; 4 ] in
  frequency
    [
      (1, map2 (fun s a -> Load (s, a)) size gen_addr);
      (1, map3 (fun s a v -> Store (s, a, v)) size gen_addr int);
    ]

let print_access = function
  | Load (s, a) -> Printf.sprintf "load%d 0x%x" (8 * s) a
  | Store (s, a, v) -> Printf.sprintf "store%d 0x%x %d" (8 * s) a v

let outcome f =
  match f () with
  | v -> Ok v
  | exception Memory.Fault { addr; size; reason } -> Error (addr, size, reason)

(* Everything observable: the meter, hit/miss counts, the tag of every
   line the test touched, and the contents of every region. *)
let same_state w touched =
  Machine.consumed_cycles w.m = w.rf.Ref.cycles
  && Cache.stats (Machine.cache w.m) = (w.rf.Ref.hits, w.rf.Ref.misses)
  && List.for_all
       (fun la ->
          Cache.probe (Machine.cache w.m) ~addr:la = Cache.Hit
          = (w.rf.Ref.tags.(Ref.index la) = la))
       touched
  && Array.for_all2
       (fun (a : Memory.region) (b : Memory.region) ->
          Bytes.equal a.Memory.data b.Memory.data)
       w.real w.refr

let lines_of ~addr ~len =
  List.init
    ((len + (2 * Ref.line)) / Ref.line)
    (fun k -> (addr land lnot (Ref.line - 1)) + (k * Ref.line))

(* One access on both sides: same value or fault, and the lines it
   touched recorded for [same_state]. *)
let access_agrees w touched op =
  let real, expect, addr, size =
    match op with
    | Load (s, a) ->
      let ld =
        match s with
        | 1 -> Machine.load8
        | 2 -> Machine.load16
        | _ -> Machine.load32
      in
      ( outcome (fun () -> ld w.m a),
        outcome (fun () -> Ref.load w.rf s a),
        a,
        s )
    | Store (s, a, v) ->
      let st =
        match s with
        | 1 -> Machine.store8
        | 2 -> Machine.store16
        | _ -> Machine.store32
      in
      ( outcome (fun () -> st w.m a v; 0),
        outcome (fun () -> Ref.store w.rf s a v; 0),
        a,
        s )
  in
  touched := lines_of ~addr ~len:size @ !touched;
  real = expect

let prop_accesses_match_reference =
  QCheck.Test.make ~name:"loads/stores = closure/option reference" ~count:300
    QCheck.(
      make ~print:(Print.list print_access)
        Gen.(list_size (int_range 1 40) gen_access))
    (fun ops ->
       let w = make_world () in
       let touched = ref [] in
       List.for_all (access_agrees w touched) ops && same_state w !touched)

(* Interleavings over two or three regions: a DILP loop's source and
   destination, a handler's message and TCB, and a third region between
   them. Regions are paged in and out and freed between accesses, while
   the region cache holds them. *)
type step = Access of access | Set_resident of int * bool | Free of int

let print_step = function
  | Access a -> print_access a
  | Set_resident (i, b) -> Printf.sprintf "set_resident r%d %b" i b
  | Free i -> Printf.sprintf "free r%d" i

let gen_interleaving =
  let open QCheck.Gen in
  let probe = make_world () in
  let nregions = Array.length layout in
  int_range 2 3 >>= fun k ->
  shuffle_l (List.init nregions Fun.id) >>= fun order ->
  let picks = Array.of_list (List.filteri (fun i _ -> i < k) order) in
  let pick = map (fun i -> picks.(i)) (int_bound (k - 1)) in
  let addr_in i =
    let r = probe.real.(i) in
    map (fun d -> r.Memory.base + d) (int_range (-4) (r.Memory.len + 4))
  in
  let size = oneofl [ 1; 2; 4 ] in
  let access =
    pick >>= fun i ->
    addr_in i >>= fun a ->
    size >>= fun s ->
    map
      (fun v -> Access (if v = 0 then Load (s, a) else Store (s, a, v)))
      (int_bound 3)
  in
  list_size (int_range 2 60)
    (frequency
       [
         (16, access);
         (2, map2 (fun i b -> Set_resident (i, b)) pick bool);
         (1, map (fun i -> Free i) pick);
       ])

let prop_interleavings_match_reference =
  QCheck.Test.make ~name:"2-3 region interleavings = reference" ~count:300
    QCheck.(make ~print:(Print.list print_step) gen_interleaving)
    (fun steps ->
       let w = make_world () in
       let live = Array.init (Array.length layout) (fun i -> i <> freed) in
       let touched = ref [] in
       List.for_all
         (function
           | Set_resident (i, b) ->
             Memory.set_resident w.real.(i) b;
             Memory.set_resident w.refr.(i) b;
             true
           | Free i ->
             if live.(i) then begin
               live.(i) <- false;
               Memory.free (Machine.mem w.m) w.real.(i);
               Ref.free w.rf w.refr.(i)
             end;
             true
           | Access op -> access_agrees w touched op)
         steps
       && same_state w !touched)

(* Many regions: 40-400 of 1 B-4 KiB and two to four of 64-300 KiB, so
   the span runs well past the region cache's 256 KiB reach and slots
   alias. Steps interleave loads and stores (inside a region, across
   its ends, in its guard gap, and a cache reach from the last access),
   [resident_at] at the same kinds of addresses, paging live and freed
   regions in and out, frees, double frees, and new allocations. Frees
   outnumber allocations, so most cases free more than half their
   regions at least twice, and the table is rebuilt each time. Values
   and faults are checked at every step, [Memory.region_count] after
   every free, and the whole state at the end. *)
let prop_many_regions_match_reference =
  QCheck.Test.make ~name:"many-region churn = reference" ~count:40
    ~long_factor:10 (QCheck.int_bound 1_000_000_000) (fun seed ->
      let module Rng = Ash_util.Rng in
      let rng = Rng.create (seed + 409) in
      let w = { m = Machine.create costs; rf = Ref.create (); real = [||];
                refr = [||] } in
      let mem = Machine.mem w.m in
      let fail fmt = QCheck.Test.fail_reportf ("step %d: " ^^ fmt) in
      (* Region [i] is [real.(i)] here and [refr.(i)] in the model, live
         while [live_at.(i)] is its position in [live.(0 .. nlive-1)]. *)
      let n = ref 0 and real = ref [||] and refr = ref [||] in
      let live = ref [||] and live_at = ref [||] and nlive = ref 0 in
      let alloc len =
        let resident = Rng.int rng 8 <> 0 in
        let r = Memory.alloc mem ~resident len in
        let r' = Ref.alloc w.rf ~resident len in
        Rng.fill_bytes rng r.Memory.data;
        Bytes.blit r.Memory.data 0 r'.Memory.data 0 len;
        if !n = Array.length !real then begin
          let grow a x = Array.append a (Array.make (Int.max 16 !n) x) in
          real := grow !real r;
          refr := grow !refr r';
          live := grow !live 0;
          live_at := grow !live_at (-1)
        end;
        !real.(!n) <- r;
        !refr.(!n) <- r';
        !live.(!nlive) <- !n;
        !live_at.(!n) <- !nlive;
        incr n;
        incr nlive
      in
      let small () =
        if Rng.int rng 2 = 0 then 1 + Rng.int rng 64 else 1 + Rng.int rng 4096
      in
      let n0 = 40 + Rng.int rng 361 in
      let large = 2 + Rng.int rng 3 in
      for i = 0 to n0 + large - 1 do
        if i mod (n0 / large) = 0 && i / (n0 / large) < large then
          alloc ((64 + Rng.int rng 237) * 1024)
        else alloc (small ())
      done;
      (* Three accesses in four go to a recently picked region, so the
         cache hits as well as misses. *)
      let recent = Array.init 4 (fun _ -> Rng.int rng !n) in
      let last_addr = ref 0 in
      let addr () =
        let a =
          if Rng.int rng 8 = 0 then
            !last_addr + if Rng.int rng 2 = 0 then cache_reach else - cache_reach
          else begin
            let i =
              if Rng.int rng 4 = 0 then begin
                let i = Rng.int rng !n in
                recent.(Rng.int rng 4) <- i;
                i
              end
              else recent.(Rng.int rng 4)
            in
            let r = !real.(i) in
            let len = r.Memory.len in
            r.Memory.base
            + match Rng.int rng 8 with
            | 0 -> -1 - Rng.int rng 4
            | 1 -> len - 4 + Rng.int rng 8
            | 2 -> len + Rng.int rng 300
            | _ -> Rng.int rng len
          end
        in
        last_addr := a;
        a
      in
      let touched = ref [] in
      for step = 1 to 4 * n0 do
        match Rng.int rng 20 with
        | k when k < 7 ->
          let size = [| 1; 2; 4 |].(Rng.int rng 3) in
          let a = addr () in
          let op =
            if Rng.int rng 2 = 0 then Load (size, a)
            else Store (size, a, Rng.next rng)
          in
          if not (access_agrees w touched op) then
            fail "%s disagrees with the model" step (print_access op)
        | k when k < 10 ->
          let size = [| 1; 2; 4; 16; 300 |].(Rng.int rng 5) in
          let a = addr () in
          let got = Memory.resident_at mem ~addr:a ~size in
          if got <> Ref.resident_at w.rf ~addr:a ~size then
            fail "resident_at 0x%x %d = %b, the model disagrees" step a size
              got
        | 10 ->
          let i = Rng.int rng !n and b = Rng.int rng 3 <> 0 in
          Memory.set_resident !real.(i) b;
          Memory.set_resident !refr.(i) b
        | k when k < 18 ->
          if !nlive < !n && Rng.int rng 8 = 0 then begin
            let i = ref (Rng.int rng !n) in
            while !live_at.(!i) >= 0 do
              i := (!i + 1) mod !n
            done;
            match Memory.free mem !real.(!i) with
            | () -> fail "double free of r%d did not raise" step !i
            | exception Invalid_argument _ -> ()
          end
          else if !nlive > 0 then begin
            let p = Rng.int rng !nlive in
            let i = !live.(p) in
            let moved = !live.(!nlive - 1) in
            !live.(p) <- moved;
            !live_at.(moved) <- p;
            !live_at.(i) <- -1;
            decr nlive;
            Memory.free mem !real.(i);
            Ref.free w.rf !refr.(i);
            let model = List.length w.rf.Ref.live in
            if Memory.region_count mem <> model then
              fail "region_count %d after freeing r%d, the model has %d" step
                (Memory.region_count mem) i model
          end
        | _ -> alloc (small ())
      done;
      same_state
        { w with real = Array.sub !real 0 !n; refr = Array.sub !refr 0 !n }
        !touched)

type copy = { src : int; dst : int; len : int }

let gen_copy =
  let open QCheck.Gen in
  gen_addr >>= fun src ->
  frequency [ (3, gen_addr); (1, map (fun d -> src + d) (int_range (-9) 9)) ]
  >>= fun dst -> map (fun len -> { src; dst; len }) (int_range 0 300)

let prop_copy_matches_reference =
  QCheck.Test.make ~name:"Machine.copy = per-word reference" ~count:300
    QCheck.(
      make
        ~print:
          (Print.list (fun c ->
               Printf.sprintf "copy 0x%x -> 0x%x, %d" c.src c.dst c.len))
        Gen.(list_size (int_range 1 4) gen_copy))
    (fun copies ->
       let w = make_world () in
       let touched = ref [] in
       List.for_all
         (fun { src; dst; len } ->
            touched := lines_of ~addr:src ~len @ !touched;
            outcome (fun () -> Machine.copy w.m ~src ~dst ~len)
            = outcome (fun () -> Ref.copy w.rf ~src ~dst ~len))
         copies
       && same_state w !touched)

(* A run charge equals the loop of single accesses it replaces: same
   total cost, same hit/miss counts, same tag on every line either side
   touched. Tags are pre-warmed at random near the run and one cache
   size away (the same index, another tag), so runs start on a mix of
   hits, misses and conflicts. One run in eight spans more than the
   cache, so its walk wraps the index space and its later lines evict
   its earlier ones. The worst-case load charge, taken first so a tag
   it wrote would show, bounds the run and is what the run costs on a
   cold cache. *)
type run = { r_addr : int; r_size : int; r_count : int; r_warm : int list }

let gen_run =
  let open QCheck.Gen in
  int_range 0 200_000 >>= fun r_addr ->
  oneofl [ 1; 2; 4 ] >>= fun r_size ->
  let wraps = costs.Costs.cache_size / r_size in
  frequency [ (7, int_range 0 300); (1, int_range (wraps + 1) (wraps + 300)) ]
  >>= fun r_count ->
  let near = int_range (r_addr - 64) (r_addr + (r_size * r_count) + 64) in
  let alias = map (fun a -> a + costs.Costs.cache_size) near in
  list_size (int_range 0 40) (frequency [ (3, near); (1, alias) ])
  >>= fun r_warm -> return { r_addr; r_size; r_count; r_warm }

let print_run r =
  Printf.sprintf "%d x %d bytes at %d, warm [%s]" r.r_count r.r_size r.r_addr
    (String.concat "; " (List.map string_of_int r.r_warm))

let prop_runs_match_single_accesses =
  QCheck.Test.make ~name:"Cache load/store runs = single accesses" ~count:500
    ~long_factor:20
    (QCheck.make ~print:print_run gen_run)
    (fun { r_addr = addr; r_size = size; r_count = count; r_warm } ->
       let run = Cache.create costs and single = Cache.create costs in
       List.iter
         (fun a ->
            Cache.warm_range run ~addr:a ~len:1;
            Cache.warm_range single ~addr:a ~len:1)
         r_warm;
       let worst = Cache.load_run_worst run ~addr ~size ~count in
       let load_cost = Cache.load_run run ~addr ~size ~count in
       let store_cost = Cache.store_run run ~addr ~size ~count in
       let load_sum = ref 0 and store_sum = ref 0 in
       for k = 0 to count - 1 do
         let a = addr + (k * size) in
         load_sum := !load_sum + Cache.load single ~addr:a ~size;
         store_sum := !store_sum + Cache.store single ~addr:a ~size
       done;
       let touched =
         lines_of ~addr ~len:(size * count)
         @ List.concat_map
             (fun a ->
                [ a; a + costs.Costs.cache_size; a - costs.Costs.cache_size ])
             r_warm
       in
       load_cost = !load_sum && store_cost = !store_sum
       && load_cost <= worst
       && worst = Cache.load_run (Cache.create costs) ~addr ~size ~count
       && Cache.stats run = Cache.stats single
       && List.for_all
            (fun la ->
               Cache.probe run ~addr:la = Cache.probe single ~addr:la)
            touched)

(* [flush_range] and [warm_range] leave the tags a per-line loop over
   the range's lines leaves on a plain tag array. Both sides first load
   the same lines: half the time every line of the range, then
   stretches of lines near it and one cache size away, so a flush meets
   lines whose tag it owns and lines another tag holds. One range in
   four is longer than the cache, so the walk wraps the index space and
   a later line takes an earlier line's index. Every line from one
   before the range to one after it, and every line loaded, must probe
   the same on both sides, and neither walk may move the hit/miss
   counts. *)
type walk = {
  w_flush : bool;
  w_addr : int;
  w_len : int;
  w_warm : bool;
  w_loads : int list;
}

let gen_walk =
  let open QCheck.Gen in
  let size = costs.Costs.cache_size in
  bool >>= fun w_flush ->
  int_range 0 200_000 >>= fun w_addr ->
  frequency [ (3, int_range 0 600); (1, int_range (size + 1) (2 * size)) ]
  >>= fun w_len ->
  bool >>= fun w_warm ->
  let near = int_range (w_addr - 64) (w_addr + w_len + 64) in
  let start = frequency [ (3, near); (1, map (fun a -> a + size) near) ] in
  let stretch =
    map2
      (fun a k -> List.init k (fun j -> a + (j * Ref.line)))
      start (int_range 1 64)
  in
  map List.concat (list_size (int_range 0 20) stretch) >>= fun w_loads ->
  return { w_flush; w_addr; w_len; w_warm; w_loads }

let print_walk w =
  Printf.sprintf "%s %d bytes at %d, warm %b, loads [%s]"
    (if w.w_flush then "flush" else "warm") w.w_len w.w_addr w.w_warm
    (String.concat "; " (List.map string_of_int w.w_loads))

let prop_range_walks_match_lines =
  QCheck.Test.make ~name:"Cache flush/warm ranges = per-line loop" ~count:300
    ~long_factor:20
    (QCheck.make ~print:print_walk gen_walk)
    (fun { w_flush; w_addr = addr; w_len = len; w_warm; w_loads } ->
       let c = Cache.create costs and tags = Array.make Ref.nlines (-1) in
       let line a = a land lnot (Ref.line - 1) in
       let range =
         if len <= 0 then []
         else List.filter (fun la -> la < addr + len) (lines_of ~addr ~len)
       in
       let loads = (if w_warm then range else []) @ w_loads in
       List.iter
         (fun a ->
            ignore (Cache.load c ~addr:a ~size:1);
            tags.(Ref.index (line a)) <- line a)
         loads;
       let stats = Cache.stats c in
       if w_flush then begin
         Cache.flush_range c ~addr ~len;
         List.iter
           (fun la ->
              let i = Ref.index la in
              if tags.(i) = la then tags.(i) <- -1)
           range
       end
       else begin
         Cache.warm_range c ~addr ~len;
         List.iter (fun la -> tags.(Ref.index la) <- la) range
       end;
       Cache.stats c = stats
       && List.for_all
            (fun a ->
               let la = line a in
               Cache.probe c ~addr:la
               = if tags.(Ref.index la) = la then Cache.Hit else Cache.Miss)
            (lines_of ~addr:(addr - Ref.line) ~len:(len + Ref.line) @ loads))

let prop_cksum_matches_reference =
  QCheck.Test.make ~name:"Baseline.cksum16_pass = per-halfword reference"
    ~count:300 ~long_factor:20
    QCheck.(
      make
        ~print:(Print.list (fun (a, l) -> Printf.sprintf "cksum 0x%x, %d" a l))
        Gen.(
          list_size (int_range 1 4)
            (pair (gen_addr_in cksum_layout) (int_range 0 4096))))
    (fun passes ->
       let w = make_world ~layout:cksum_layout () in
       let touched = ref [] in
       List.for_all
         (fun (addr, len) ->
            touched := lines_of ~addr ~len @ !touched;
            outcome (fun () -> Ash_pipes.Baseline.cksum16_pass w.m ~addr ~len)
            = outcome (fun () -> Ref.cksum16 w.rf ~addr ~len))
         passes
       && same_state w !touched)

(* The copy property never wraps the cache (len <= 300): a copy longer
   than the 64 KiB cache evicts its own first lines, twice over on the
   second pass. *)
let test_copy_longer_than_cache () =
  let m = Machine.create costs and rf = Ref.create () in
  let len = 70 * 1024 in
  let alloc () =
    let r = Memory.alloc (Machine.mem m) (len + 64)
    and r' = Ref.alloc rf ~resident:true (len + 64) in
    for j = 0 to r.Memory.len - 1 do
      let c = Char.chr ((j * 13) land 0xff) in
      Bytes.set r.Memory.data j c;
      Bytes.set r'.Memory.data j c
    done;
    (r, r')
  in
  let a, a' = alloc () and b, b' = alloc () in
  let w = { m; rf; real = [| a; b |]; refr = [| a'; b' |] } in
  List.iter
    (fun (src, dst) ->
       Machine.copy m ~src ~dst ~len;
       Ref.copy rf ~src ~dst ~len)
    [ (a.Memory.base + 3, b.Memory.base + 1);
      (a.Memory.base, b.Memory.base + 7) ];
  Alcotest.(check bool) "cycles, stats, tags and data agree" true
    (same_state w
       (lines_of ~addr:a.Memory.base ~len:(len + 64)
        @ lines_of ~addr:b.Memory.base ~len:(len + 64)))

type destripe = { d_src : int; d_dst : int; d_len : int; d_stripe : int }

let prop_destripe_matches_copies =
  QCheck.Test.make ~name:"Machine.destripe = one copy per stripe" ~count:300
    ~long_factor:20
    QCheck.(
      make
        ~print:
          (Print.list (fun d ->
               Printf.sprintf "destripe 0x%x -> 0x%x, %d by %d" d.d_src d.d_dst
                 d.d_len d.d_stripe))
        Gen.(
          list_size (int_range 1 4)
            ( gen_addr >>= fun d_src ->
              gen_addr >>= fun d_dst ->
              frequency [ (3, int_range 0 80); (1, int_range 0 300) ]
              >>= fun d_len ->
              oneofl [ 1; 3; 4; 8; 16; 16; 16 ] >>= fun d_stripe ->
              return { d_src; d_dst; d_len; d_stripe } )))
    (fun ds ->
       let w = make_world () and w' = make_world () in
       let touched = ref [] in
       List.for_all
         (fun { d_src = src; d_dst = dst; d_len = len; d_stripe = stripe } ->
            touched := lines_of ~addr:src ~len:(2 * len) @ !touched;
            outcome (fun () -> Machine.destripe w.m ~src ~dst ~len ~stripe)
            = outcome (fun () ->
                let off = ref 0 in
                while !off < len do
                  Machine.copy w'.m ~src:(src + (2 * !off)) ~dst:(dst + !off)
                    ~len:(min stripe (len - !off));
                  off := !off + stripe
                done))
         ds
       && Machine.consumed_cycles w.m = Machine.consumed_cycles w'.m
       && Cache.stats (Machine.cache w.m) = Cache.stats (Machine.cache w'.m)
       && List.for_all
            (fun la ->
               Cache.probe (Machine.cache w.m) ~addr:la
               = Cache.probe (Machine.cache w'.m) ~addr:la)
            !touched
       && Array.for_all2
            (fun (a : Memory.region) (b : Memory.region) ->
               Bytes.equal a.Memory.data b.Memory.data)
            w.real w'.real)

(* ------------------------------------------------------------------ *)
(* The simulated memory path allocates nothing                         *)
(* ------------------------------------------------------------------ *)

let minor_words_over_10k f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    f ()
  done;
  int_of_float (Gc.minor_words () -. before)

let test_memory_path_allocation_free () =
  let m = mk_machine () in
  let mem = Machine.mem m in
  let a = (Memory.alloc mem 4096).Memory.base in
  let b = (Memory.alloc mem 4096).Memory.base in
  let c = Machine.cache m in
  let zero name f =
    Alcotest.(check int) (name ^ ": minor words over 10k calls") 0
      (minor_words_over_10k f)
  in
  zero "harness" (fun () -> ());
  zero "Machine.load8" (fun () -> ignore (Machine.load8 m (a + 5)));
  zero "Machine.load16" (fun () -> ignore (Machine.load16 m (a + 14)));
  zero "Machine.load32" (fun () -> ignore (Machine.load32 m (a + 30)));
  zero "Machine.store8" (fun () -> Machine.store8 m (b + 5) 0x1ff);
  zero "Machine.store16" (fun () -> Machine.store16 m (b + 14) 0x1_2345);
  zero "Machine.store32" (fun () -> Machine.store32 m (b + 30) 0xdead_beef);
  zero "Cache.load" (fun () -> ignore (Cache.load c ~addr:(a + 13) ~size:4));
  zero "Cache.store" (fun () -> ignore (Cache.store c ~addr:(b + 13) ~size:4));
  zero "Cache.load_run 3 KiB" (fun () ->
      ignore (Cache.load_run c ~addr:a ~size:4 ~count:768));
  zero "Cache.flush_range 3 KiB" (fun () ->
      Cache.flush_range c ~addr:a ~len:3072);
  zero "Memory.resident_at" (fun () ->
      ignore (Memory.resident_at mem ~addr:(a + 100) ~size:64));
  zero "Memory.locate" (fun () -> ignore (Memory.locate mem (a + 100) 64));
  (* Two or three regions in turn each keep their own cache slot. *)
  let d = (Memory.alloc mem 4096).Memory.base in
  zero "alternating Machine.load32/store32" (fun () ->
      Machine.store32 m (b + 40) (Machine.load32 m (a + 40)));
  zero "alternating Memory.resident_at" (fun () ->
      ignore (Memory.resident_at mem ~addr:(a + 8) ~size:4);
      ignore (Memory.resident_at mem ~addr:(b + 8) ~size:4));
  zero "three-region Machine.load32/store32" (fun () ->
      Machine.store32 m (b + 40) (Machine.load32 m (a + 40));
      Machine.store32 m (d + 40) (Machine.load32 m (a + 44)));
  zero "three-region Memory.resident_at" (fun () ->
      ignore (Memory.resident_at mem ~addr:(a + 8) ~size:4);
      ignore (Memory.resident_at mem ~addr:(b + 8) ~size:4);
      ignore (Memory.resident_at mem ~addr:(d + 8) ~size:4));
  zero "Machine.copy 3 KiB" (fun () -> Machine.copy m ~src:a ~dst:b ~len:3072);
  (* Two regions a cache reach apart share one slot, so each access
     misses and refills it. *)
  let a2, b2 = aliased_pair mem 3072 in
  let a2 = a2.Memory.base and b2 = b2.Memory.base in
  zero "aliased Memory.locate" (fun () ->
      ignore (Memory.locate mem (a2 + 8) 4);
      ignore (Memory.locate mem (b2 + 8) 4));
  zero "aliased Memory.resident_at" (fun () ->
      ignore (Memory.resident_at mem ~addr:(a2 + 8) ~size:4);
      ignore (Memory.resident_at mem ~addr:(b2 + 8) ~size:4));
  zero "aliased Machine.copy 3 KiB" (fun () ->
      Machine.copy m ~src:a2 ~dst:b2 ~len:3072);
  (* A first touch finds its slot empty, so it runs once per region:
     one pass over fresh regions, not the repeated calls above. *)
  let first_touch name f =
    let fresh = Array.init 200 (fun _ -> (Memory.alloc mem 3072).Memory.base) in
    let before = Gc.minor_words () in
    for i = 0 to Array.length fresh - 1 do
      f fresh.(i)
    done;
    Alcotest.(check int) (name ^ ": minor words over 200 first touches") 0
      (int_of_float (Gc.minor_words () -. before))
  in
  first_touch "first-touch Memory.locate" (fun x ->
      ignore (Memory.locate mem (x + 8) 4));
  first_touch "first-touch Memory.resident_at" (fun x ->
      ignore (Memory.resident_at mem ~addr:(x + 8) ~size:4));
  first_touch "first-touch Machine.copy 3 KiB" (fun x ->
      Machine.copy m ~src:x ~dst:x ~len:3072);
  zero "Baseline.cksum16_pass 3 KiB" (fun () ->
      ignore (Ash_pipes.Baseline.cksum16_pass m ~addr:a ~len:3072));
  zero "Machine.destripe 1500 B" (fun () ->
      Machine.destripe m ~src:a ~dst:b ~len:1500 ~stripe:16);
  (* The digest's only allocation is its boxed [int32] result. *)
  let frame = Bytes.make 1500 'x' in
  let words =
    minor_words_over_10k (fun () ->
        ignore (Ash_util.Crc32.digest frame ~off:0 ~len:1500))
  in
  Alcotest.(check bool)
    (Printf.sprintf "Crc32.digest: %d minor words over 10k calls, at most 3 \
                     per call" words)
    true (words <= 30_000)

(* Every frame bumps a hop counter on its way in and out, and every
   drop one more: with tracing off, none of it allocates. *)
let test_hop_counting_allocation_free () =
  let module Hop = Ash_obs.Hop in
  let hop = Hop.create "eth" in
  let zero name f =
    Alcotest.(check int) (name ^ ": minor words over 10k calls") 0
      (minor_words_over_10k f)
  in
  zero "Hop.frame_in" (fun () -> Hop.frame_in hop);
  zero "Hop.frame_out" (fun () -> Hop.frame_out hop);
  zero "Hop.drop" (fun () -> Hop.drop hop Ash_obs.Trace.No_buffer);
  Alcotest.(check (list int)) "every call counted" [ 10_001; 10_001; 10_001 ]
    [ Hop.frames_in hop; Hop.frames_out hop;
      Hop.dropped hop Ash_obs.Trace.No_buffer ]

(* One [Dilp.execute] of TCP's checksumming Write transfer, the bulk
   benchmark's per-segment call, with [init] built per call as the
   kernel builds it. The word kernel allocates its register file and
   result whatever the length, so a 3 KiB segment costs what a 4-byte
   one does: 52 words. The VM run it replaced allocated 91 words per
   call. *)
let test_dilp_transfer_allocation () =
  let module Dilp = Ash_pipes.Dilp in
  let m = mk_machine () in
  let mem = Machine.mem m in
  let src = (Memory.alloc mem 3072).Memory.base in
  let dst = (Memory.alloc mem 3072).Memory.base in
  let pl = Ash_pipes.Pipe.Pipelist.create () in
  let _, acc = Ash_pipes.Pipelib.cksum32 pl in
  let c = Dilp.compile pl Dilp.Write in
  let words len =
    minor_words_over_10k (fun () ->
        ignore (Dilp.execute ~init:[ (acc, 0) ] m c ~src ~dst ~len))
  in
  let short = words 4 and long = words 3072 in
  Alcotest.(check int) "minor words over 10k calls: 4 B = 3 KiB" short long;
  Alcotest.(check bool)
    (Printf.sprintf "%d minor words over 10k calls, at most 91 per call" long)
    true (long <= 910_000)

(* One run of the sandboxed TCP fast-path handler (§V-B) on a data
   segment and on a pure acknowledgment, straight through [Exec.run]:
   the per-message VM cost the rpc benchmark pays. The per-instruction
   executor this one replaced allocated 89 words per data-segment run
   and 60 per pure-ack run (the register file, context and result, the
   run's closures, and on data the ACK frame [K_send] hands the
   kernel); block dispatch must not add to that. *)
let test_fastpath_run_allocation () =
  let module Tcb = Ash_proto.Tcb in
  let module Tcp_hdr = Ash_proto.Packet.Tcp in
  let module Interp = Ash_vm.Interp in
  let m = mk_machine () in
  let mem = Machine.mem m in
  let tcb = (Memory.alloc mem ~name:"tcb" Tcb.size).Memory.base in
  let ack_buf = Memory.alloc mem ~name:"ack" 64 in
  let rcv_buf = Memory.alloc mem ~name:"rcv" 4096 in
  let msg = (Memory.alloc mem ~name:"msg" 64).Memory.base in
  let set off v = Tcb.set mem ~base:tcb off v in
  set Tcb.off_state Tcb.st_established;
  set Tcb.off_snd_nxt 1000;
  set Tcb.off_snd_una 900;
  set Tcb.off_rcv_buf_addr rcv_buf.Memory.base;
  set Tcb.off_rcv_buf_size rcv_buf.Memory.len;
  set Tcb.off_local_port 80;
  set Tcb.off_remote_port 1234;
  set Tcb.off_ack_buf_addr ack_buf.Memory.base;
  let tcp = msg + Ash_proto.Packet.ip_header_len in
  Memory.store16 mem (tcp + Tcp_hdr.off_src_port) 1234;
  Memory.store16 mem (tcp + Tcp_hdr.off_dst_port) 80;
  Memory.store32 mem (tcp + Tcp_hdr.off_seq) 5000;
  Memory.store32 mem (tcp + Tcp_hdr.off_ack) 1000;
  Memory.store16 mem (tcp + Tcp_hdr.off_dataoff_flags) 0x5010;
  let program =
    Ash_proto.Tcp_fastpath.program
      { Ash_proto.Tcp_fastpath.tcb_addr = tcb; checksum = true; dilp_id = 0;
        cksum_acc_reg = 20 }
  in
  let prepared = Ash_vm.Exec.prepare (fst (Ash_vm.Sandbox.apply program)) in
  let env msg_len =
    {
      Interp.machine = m;
      msg_addr = msg;
      msg_len;
      allowed_calls = Ash_vm.Isa.[ K_dilp; K_send ];
      (* The copy succeeds and leaves the checksum accumulator at 0,
         which matches the segment's zero checksum field. *)
      dilp = (fun ~id:_ ~src:_ ~dst:_ ~len:_ ~regs:_ -> true);
      send = ignore;
      gas_cycles = Interp.default_gas;
    }
  in
  let words_per_run ~msg_len =
    let env = env msg_len in
    let runs = 1000 and total = ref 0. in
    for _ = 1 to runs do
      set Tcb.off_rcv_nxt 5000;
      set Tcb.off_rcv_off 0;
      let before = Gc.minor_words () in
      let r = Ash_vm.Exec.run env prepared in
      total := !total +. (Gc.minor_words () -. before);
      if r.Interp.outcome <> Interp.Committed then
        Alcotest.fail "fast path did not commit"
    done;
    int_of_float !total / runs
  in
  List.iter
    (fun (what, msg_len, bound) ->
       let words = words_per_run ~msg_len in
       Alcotest.(check bool)
         (Printf.sprintf "%s: %d words per run, at most %d" what words bound)
         true (words <= bound))
    [ ("data segment", 44, 89); ("pure ack", 40, 60) ]

let () =
  Alcotest.run "ash_sim"
    [
      ("time", [ Alcotest.test_case "conversions" `Quick test_time_conversions ]);
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "fifo same instant" `Quick
            test_engine_fifo_same_instant;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "nested" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "run_until" `Quick test_engine_run_until;
          Alcotest.test_case "rejects past" `Quick test_engine_rejects_past;
          Alcotest.test_case "cancel releases the action" `Quick
            test_engine_cancel_releases_action;
          Alcotest.test_case "cancel on another engine" `Quick
            test_engine_cancel_foreign_event;
          Alcotest.test_case "raising action" `Quick
            test_engine_raising_action;
        ] );
      ( "cache",
        [
          Alcotest.test_case "miss then hit" `Quick test_cache_miss_then_hit;
          Alcotest.test_case "direct-mapped conflict" `Quick
            test_cache_direct_mapped_conflict;
          Alcotest.test_case "flush all" `Quick test_cache_flush_all;
          Alcotest.test_case "flush range" `Quick test_cache_flush_range;
          Alcotest.test_case "store no-allocate" `Quick
            test_cache_store_no_allocate;
          Alcotest.test_case "spanning access" `Quick test_cache_spanning_access;
          Alcotest.test_case "warm range" `Quick test_cache_warm_range;
          Alcotest.test_case "run sizes rejected" `Quick test_cache_run_sizes;
        ] );
      ( "memory",
        [
          Alcotest.test_case "read/write" `Quick test_memory_rw;
          Alcotest.test_case "unmapped faults" `Quick
            test_memory_unmapped_faults;
          Alcotest.test_case "non-resident faults" `Quick
            test_memory_nonresident_faults;
          Alcotest.test_case "guard gap" `Quick test_memory_guard_gap;
          Alcotest.test_case "blit" `Quick test_memory_blit;
          Alcotest.test_case "many regions" `Quick
            test_memory_many_regions_lookup;
          Alcotest.test_case "cached region invalidated" `Quick
            test_memory_cache_invalidation;
          Alcotest.test_case "spans that wrap fault" `Quick
            test_memory_wrapping_spans_fault;
          Alcotest.test_case "free releases region" `Quick
            test_memory_free_releases_region;
        ] );
      ( "machine",
        [
          Alcotest.test_case "copy moves data" `Quick test_copy_moves_data;
          Alcotest.test_case "copy odd length" `Quick test_copy_odd_length;
          Alcotest.test_case "checksum pass values" `Quick
            test_cksum_pass_values;
          Alcotest.test_case "Table III calibration" `Quick
            test_table3_calibration;
          Alcotest.test_case "meter drain" `Quick test_meter_drain;
          Alcotest.test_case "copy longer than the cache" `Quick
            test_copy_longer_than_cache;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_engine_monotonic_clock;
          QCheck_alcotest.to_alcotest prop_copy_preserves_content;
          QCheck_alcotest.to_alcotest prop_cache_load_cost_bounded;
          QCheck_alcotest.to_alcotest prop_accesses_match_reference;
          QCheck_alcotest.to_alcotest prop_interleavings_match_reference;
          QCheck_alcotest.to_alcotest prop_many_regions_match_reference;
          QCheck_alcotest.to_alcotest prop_copy_matches_reference;
          QCheck_alcotest.to_alcotest prop_engine_matches_model;
          QCheck_alcotest.to_alcotest prop_runs_match_single_accesses;
          QCheck_alcotest.to_alcotest prop_range_walks_match_lines;
          QCheck_alcotest.to_alcotest prop_cksum_matches_reference;
          QCheck_alcotest.to_alcotest prop_destripe_matches_copies;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "memory path allocation-free" `Quick
            test_memory_path_allocation_free;
          Alcotest.test_case "fast-path run allocation" `Quick
            test_fastpath_run_allocation;
          Alcotest.test_case "dilp transfer allocation" `Quick
            test_dilp_transfer_allocation;
          Alcotest.test_case "hop counting allocation-free" `Quick
            test_hop_counting_allocation_free;
        ] );
    ]

(* Telemetry overhead: host wall time of the table6 TCP kernel with the
   time-series sampler off and on. Takes no arguments; prints to stdout.

   The paper's tables are regenerated and gated exactly by the golden
   test ([dune runtest]); host throughput is measured by [bench/e2e].
   This harness keeps the one host-cost ratio e2e does not report yet.

   Usage: dune exec bench/main.exe *)

module Lab = Ash_core.Lab
module Tcp = Ash_proto.Tcp
module Timeseries = Ash_obs.Timeseries

(* Mean host wall time of one run over 20 back-to-back runs, starting
   from a collected heap. *)
let timed f =
  let reps = 20 in
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    f ()
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int reps *. 1e9

(* The table6 TCP kernel, the handler-heaviest networked workload.
   "off" runs it with no ambient Timeseries; "sampled" installs one at
   the default grid pitch, so every engine step pays the tick check and
   each crossed grid point snapshots every registered source. The
   acceptance bar is sampled <= 1.10x off. *)
let kernel () =
  ignore
    (Lab.tcp_latency
       ~mode:(Tcp.Fast_ash { sandbox = true })
       ~checksum:true ~iters:16 ())

let () =
  let sampled () =
    let ts = Timeseries.create () in
    Timeseries.set_current ts;
    let ns = timed kernel in
    Timeseries.clear_current ();
    ns
  in
  kernel (); (* warm up *)
  let off_ns = ref infinity in
  let sampled_ns = ref infinity in
  (* Interleaved rounds, min per mode: host-load phases hit both modes
     equally instead of biasing whichever ran last. *)
  for _ = 1 to 5 do
    off_ns := min !off_ns (timed kernel);
    sampled_ns := min !sampled_ns (sampled ())
  done;
  let off_ns = !off_ns and sampled_ns = !sampled_ns in
  Printf.printf
    "=== Telemetry overhead (host wall time per run, table6 kernel) ===\n";
  Printf.printf "  %-32s %10.0f ns\n" "sampling off" off_ns;
  Printf.printf "  %-32s %10.0f ns   x%.2f vs off\n" "sampling on" sampled_ns
    (sampled_ns /. off_ns)

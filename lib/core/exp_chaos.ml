(* Goodput under seeded loss: the chaos experiment behind `ashbench
   chaos`. Not a paper table — the paper's testbed had a reliable ATM
   switch — but the robustness counterpart to Table VI: the same TCP
   stack, driven over a deterministically faulty link, comparing the
   historical fixed 20 ms retransmission timer against the adaptive
   (Jacobson/Karn + fast retransmit) policy at increasing loss rates. *)

module Memory = Ash_sim.Memory
module Fault = Ash_sim.Fault
module Kernel = Ash_kern.Kernel
module An2 = Ash_nic.An2
module Tcp = Ash_proto.Tcp

let loss_rates = [ 0.0; 0.01; 0.05; 0.2 ]

type run = {
  rate : float;
  goodput_mbs : float;   (* application bytes / virtual elapsed time *)
  retransmits : int;
  fast_retransmits : int;
}

(* One bulk transfer over a lossy client->server direction. The fault
   plan is installed after the handshake so every run starts from an
   established connection; [seed] fixes the loss pattern, so the two
   policies face the identical sequence of lost frames. *)
let transfer ?(seed = 42) ?(total = 262_144) ?(chunk = 8192) ~rate ~rto
    ~fast_retransmit () =
  let tb = Fabric.pair () in
  (* mss 1024 keeps ~8 segments in flight (vs ~2 at the default 3072),
     so dup-ack fast retransmit can actually trigger, and the ~256-frame
     transfer sees losses even at the 1% rate. *)
  let c, s =
    Lab.tcp_pair ~mode:Tcp.Library ~checksum:true ~in_place:false ~mss:1024
      ~rto ~fast_retransmit tb
  in
  let client = Fabric.host tb 1 in
  if rate > 0.0 then
    An2.set_fault_plan (Kernel.an2 client.Fabric.kernel)
      (Some (Fault.create (Fault.lossy ~seed rate)));
  Tcp.set_reader s (fun ~addr:_ ~len:_ -> ());
  let src = Fabric.alloc_filled client ~seed:1 chunk in
  let start = Fabric.now tb in
  let sent = ref 0 in
  let rec send_chunk () =
    if !sent < total then begin
      sent := !sent + chunk;
      Tcp.write c ~addr:src.Memory.base ~len:chunk ~on_complete:send_chunk
    end
  in
  send_chunk ();
  Fabric.run tb;
  let dt = Fabric.now tb - start in
  let st = Tcp.stats c in
  {
    rate;
    goodput_mbs = float_of_int total /. (float_of_int dt /. 1e9) /. 1e6;
    retransmits = st.Tcp.retransmits;
    fast_retransmits = st.Tcp.fast_retransmits;
  }

let policies =
  [
    ("fixed 20ms", Tcp.Rto_fixed 20_000_000, false);
    ("adaptive+fr", Tcp.default_rto, true);
  ]

let curves ?seed ?total ?chunk () =
  List.map
    (fun (label, rto, fast_retransmit) ->
       ( label,
         List.map
           (fun rate -> transfer ?seed ?total ?chunk ~rate ~rto
               ~fast_retransmit ())
           loss_rates ))
    policies

let chaos ?seed ?(total = 262_144) ?chunk () =
  let by_policy = curves ?seed ~total ?chunk () in
  let rows =
    List.concat_map
      (fun (label, runs) ->
         List.map
           (fun r ->
              Report.row
                ~label:
                  (Printf.sprintf "goodput @ %2.0f%% loss | %s"
                     (100. *. r.rate) label)
                ~measured:r.goodput_mbs ~unit_:"MB/s" ())
           runs)
      by_policy
  in
  (* A short transfer may lose no frames at the 1% rate, in which case
     the two policies run identically: require strict dominance only
     where the fixed policy actually had to retransmit. *)
  let dominated =
    match by_policy with
    | [ (_, fixed); (_, adaptive) ] ->
      List.for_all2
        (fun (f : run) (a : run) ->
           if f.retransmits = 0 then a.goodput_mbs >= f.goodput_mbs
           else a.goodput_mbs > f.goodput_mbs)
        fixed adaptive
    | _ -> false
  in
  {
    Report.id = "chaos";
    title = "TCP goodput vs seeded loss rate (fixed vs adaptive RTO)";
    rows;
    notes =
      [
        Printf.sprintf
          "%d KB transfer, 8 KB writes, 1 KB mss, library TCP with \
           end-to-end checksums; loss injected on the data direction \
           only, after the handshake, from one seeded plan per run"
          (total / 1024);
        Printf.sprintf
          "adaptive RTO + fast retransmit %s the fixed 20 ms timer at \
           every loss rate where frames were actually lost"
          (if dominated then "strictly dominates" else
             "FAILED to dominate");
      ];
  }

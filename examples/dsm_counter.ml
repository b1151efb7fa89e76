(* A lock-protected distributed counter over the CRL-style DSM (§VII):
   the client performs lock / read / increment / write / unlock rounds
   against a segment exported by a server whose application is suspended
   the whole time — every DSM action executes inside the server's kernel
   as a sandboxed ASH.

   Run with:  dune exec examples/dsm_counter.exe *)

module Fabric = Ash_core.Fabric
module Dsm = Ash_core.Dsm
module Kernel = Ash_kern.Kernel
module Bytesx = Ash_util.Bytesx

let rounds = 5

let () =
  let tb = Fabric.pair () in
  let host0 = Fabric.host tb 0 in
  let server = Dsm.serve host0 ~vc:8 ~segments:1 ~segment_size:64 in
  Kernel.set_app_state host0.Fabric.kernel Kernel.Suspended;
  let client = Dsm.connect (Fabric.host tb 1) ~vc:8 in

  let t0 = Fabric.now tb in
  let rec round n =
    if n > rounds then begin
      Dsm.read client ~seg:0 ~off:0 ~len:4 (fun r ->
          match r with
          | Some b ->
            Format.printf "@.final counter value: %d (after %d rounds)@."
              (Bytesx.get_u32 b 0) rounds;
            Format.printf "total simulated time: %.1f us (%.1f us/round)@."
              (float_of_int (Fabric.now tb - t0) /. 1000.)
              (float_of_int (Fabric.now tb - t0)
               /. 1000. /. float_of_int rounds)
          | None -> Format.printf "final read failed@.")
    end
    else
      Dsm.lock client ~seg:0 ~owner:n (fun ok ->
          if not ok then Format.printf "round %d: lock refused?!@." n
          else
            Dsm.read client ~seg:0 ~off:0 ~len:4 (fun r ->
                let v =
                  match r with Some b -> Bytesx.get_u32 b 0 | None -> 0
                in
                Format.printf "round %d: holder=%d read %d, writing %d@." n
                  (Dsm.lock_holder server ~seg:0)
                  v (v + 1);
                let next = Bytes.create 4 in
                Bytesx.set_u32 next 0 (v + 1);
                Dsm.write client ~seg:0 ~off:0 ~data:next (fun _ ->
                    Dsm.unlock client ~seg:0 (fun _ -> round (n + 1)))))
  in
  round 1;
  Fabric.run tb;
  let k = host0.Fabric.kernel in
  Format.printf
    "server kernel: %d DSM operations handled by the handler, %d reached \
     the (suspended) application@."
    (Kernel.stats k).Kernel.ash_committed
    (Ash_obs.Hop.frames_out (Kernel.an2_hops k).Kernel.notify)

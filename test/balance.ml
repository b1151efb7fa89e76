(* Hop balance: every hop accounts for each frame it saw, so once its
   frames have moved on, frames in = frames out + frames dropped. A
   switch port holds frames in its egress queue until the fabric has
   run to completion, so [fabric] is for the end of such a run. *)

module Hop = Ash_obs.Hop
module Kernel = Ash_kern.Kernel
module Fabric = Ash_core.Fabric
module Switch = Ash_nic.Switch

(* Fails at the first hop that does not balance, naming it. *)
let check hops =
  List.iter
    (fun (name, hop) ->
       let i = Hop.frames_in hop
       and o = Hop.frames_out hop
       and d = Hop.drops hop in
       if i <> o + d then
         Alcotest.failf "hop %s does not balance: %d in, %d out, %d dropped"
           name i o d)
    hops

(* A kernel's hops for each attached medium, NIC first. *)
let kernel_hops name k =
  let medium label nic_hop hops =
    [ (Printf.sprintf "%s %s nic rx" name label, nic_hop);
      (Printf.sprintf "%s %s kernel rx" name label, hops.Kernel.rx);
      (Printf.sprintf "%s %s kernel notify" name label, hops.Kernel.notify) ]
  in
  (match Kernel.an2 k with
   | exception Invalid_argument _ -> []
   | nic -> medium "an2" (Ash_nic.An2.rx_hop nic) (Kernel.an2_hops k))
  @
  match Kernel.ethernet k with
  | exception Invalid_argument _ -> []
  | nic -> medium "eth" (Ash_nic.Ethernet.rx_hop nic) (Kernel.eth_hops k)

(* Every host kernel, host 0's further RSS cores, and every switch
   port. *)
let fabric_hops fab =
  let hosts =
    List.init (Fabric.hosts fab) (fun h ->
        kernel_hops (Printf.sprintf "host %d" h)
          (Fabric.host fab h).Fabric.kernel)
  in
  let cores =
    Array.to_list (Fabric.cores fab)
    |> List.filter (fun c -> c.Fabric.core_idx > 0)
    |> List.map (fun c ->
        kernel_hops
          (Printf.sprintf "host 0 core %d" c.Fabric.core_idx)
          c.Fabric.core_kernel)
  in
  let ports =
    match Fabric.switch fab with
    | exception Invalid_argument _ -> []
    | sw ->
      List.init (Switch.num_ports sw) (fun port ->
          (Printf.sprintf "switch port %d" port, Switch.port_hop sw ~port))
  in
  List.concat (hosts @ cores) @ ports

let fabric fab = check (fabric_hops fab)

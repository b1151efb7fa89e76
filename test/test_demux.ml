(* Ethernet demultiplexing semantics: the merged DPF trie must be an
   invisible optimisation. The reference throughout is the obvious one,
   [Dpf.matches] applied to the filters in install order, first match
   wins. Overlapping filters resolve as the reference says
   (kernel-level), unbind removes exactly the one binding it names, and
   the trie's machine-charged lookup agrees with the reference on random
   filter sets, after inserts and removes alike. *)

module Machine = Ash_sim.Machine
module Memory = Ash_sim.Memory
module Costs = Ash_sim.Costs
module Dpf = Ash_kern.Dpf
module Dpf_trie = Ash_kern.Dpf_trie
module Kernel = Ash_kern.Kernel
module Rng = Ash_util.Rng
module Bytesx = Ash_util.Bytesx
module Fabric = Ash_core.Fabric

(* ------------------------------------------------------------------ *)
(* The reference and the walk under test                               *)
(* ------------------------------------------------------------------ *)

(* First match in install order over [(filter, payload)] pairs. *)
let first_match filters pkt =
  List.find_opt (fun (f, _) -> Dpf.matches pkt f) filters |> Option.map snd

(* [Dpf_trie.lookup] over [pkt], copied into a fresh machine's memory:
   the walk the kernel runs on every Ethernet frame. *)
let lookup trie pkt =
  let machine = Machine.create Costs.decstation in
  let mem = Machine.mem machine in
  let len = Bytes.length pkt in
  let buf = Memory.alloc mem ~name:"pkt" len in
  Memory.blit_from_bytes mem ~src:pkt ~src_off:0 ~dst:buf.Memory.base ~len;
  Dpf_trie.lookup trie machine ~msg_addr:buf.Memory.base ~msg_len:len

(* ------------------------------------------------------------------ *)
(* Kernel-level: overlapping filters                                   *)
(* ------------------------------------------------------------------ *)

(* Three mutually overlapping filters; [0xAA; 0xBB] frames match all
   three, so the kernel must pick the first installed. *)
let overlap_filters =
  [
    ("f1", [ Dpf.atom ~offset:0 ~width:1 0xAA ]);
    ("f2", [ Dpf.atom ~offset:0 ~width:1 0xAA; Dpf.atom ~offset:1 ~width:1 0xBB ]);
    ("f3", [ Dpf.atom ~offset:1 ~width:1 0xBB ]);
  ]

let frame b0 b1 =
  let b = Bytes.make 32 '\000' in
  Bytes.set b 0 (Char.chr b0);
  Bytes.set b 1 (Char.chr b1);
  b

let trial_frames =
  [ frame 0xAA 0xBB; frame 0xAA 0x00; frame 0x00 0xBB; frame 0x00 0x00 ]

(* Install [filters] in order, send every trial frame, and return the
   sequence of filter names that handled them (one entry per delivered
   frame; drops don't appear). *)
let run_demux filters =
  let tb = Fabric.pair ~ethernet:true () in
  let srv = (Fabric.host tb 0).Fabric.kernel in
  let hits = ref [] in
  List.iter
    (fun (name, filter) ->
       let pvc = Kernel.bind_eth_filter srv filter Kernel.Deliver_user in
       Kernel.set_user_handler srv ~vc:pvc (fun ~addr:_ ~len:_ ->
           hits := name :: !hits))
    filters;
  List.iter
    (fun f -> Kernel.eth_kernel_send (Fabric.host tb 1).Fabric.kernel f)
    trial_frames;
  Fabric.run tb;
  List.rev !hits

let test_overlap_matches_first_match_reference () =
  List.iter
    (fun filters ->
       let reference =
         List.filter_map
           (first_match (List.map (fun (name, f) -> (f, name)) filters))
           trial_frames
       in
       Alcotest.(check (list string)) "kernel winners = first match"
         reference (run_demux filters))
    (* Both install orders: the specific-first order makes f3 win the
       doubly-matching frame, the general-first order makes f1 win. *)
    [ overlap_filters; List.rev overlap_filters ];
  (* And pin the install-order-wins semantics explicitly. *)
  Alcotest.(check (list string)) "first installed wins"
    [ "f1"; "f1"; "f3" ]
    (run_demux overlap_filters);
  Alcotest.(check (list string)) "specific first wins when installed first"
    [ "f3"; "f1"; "f3" ]
    (run_demux (List.rev overlap_filters))

let test_unbind_removes_exactly_one () =
  let tb = Fabric.pair ~ethernet:true () in
  let srv = (Fabric.host tb 0).Fabric.kernel in
  let hits = ref [] in
  let bind name filter =
    let pvc = Kernel.bind_eth_filter srv filter Kernel.Deliver_user in
    Kernel.set_user_handler srv ~vc:pvc (fun ~addr:_ ~len:_ ->
        hits := name :: !hits);
    pvc
  in
  let vc1 = bind "f1" [ Dpf.atom ~offset:0 ~width:1 0xAA ] in
  let _vc2 = bind "f2" [ Dpf.atom ~offset:0 ~width:1 0xAA ] in
  let send () =
    Kernel.eth_kernel_send (Fabric.host tb 1).Fabric.kernel (frame 0xAA 0);
    Fabric.run tb
  in
  send ();
  Alcotest.(check (list string)) "first binding wins" [ "f1" ] !hits;
  hits := [];
  Kernel.unbind_eth_filter srv ~vc:vc1;
  send ();
  Alcotest.(check (list string)) "second binding takes over" [ "f2" ] !hits;
  (* Unbinding again, or unbinding a VC that isn't an Ethernet filter
     binding, is a caller error. *)
  Alcotest.(check bool) "double unbind rejected" true
    (match Kernel.unbind_eth_filter srv ~vc:vc1 with
     | () -> false
     | exception Invalid_argument _ -> true);
  Kernel.bind_vc srv ~vc:77 Kernel.Deliver_user;
  Alcotest.(check bool) "non-eth binding rejected" true
    (match Kernel.unbind_eth_filter srv ~vc:77 with
     | () -> false
     | exception Invalid_argument _ -> true)

let test_unbind_leaves_dpf_miss () =
  let tb = Fabric.pair ~ethernet:true () in
  let srv = (Fabric.host tb 0).Fabric.kernel in
  let hits = ref 0 in
  let vcs =
    List.map
      (fun (_, filter) ->
         let pvc = Kernel.bind_eth_filter srv filter Kernel.Deliver_user in
         Kernel.set_user_handler srv ~vc:pvc (fun ~addr:_ ~len:_ ->
             incr hits);
         pvc)
      overlap_filters
  in
  List.iter (fun vc -> Kernel.unbind_eth_filter srv ~vc) vcs;
  Alcotest.(check int) "trie empty" 0 (Kernel.eth_filter_count srv);
  Kernel.eth_kernel_send (Fabric.host tb 1).Fabric.kernel (frame 0xAA 0xBB);
  Fabric.run tb;
  Alcotest.(check int) "all bindings gone: frame dropped" 0 !hits;
  Alcotest.(check int) "counted as a DPF miss" 1
    (Ash_obs.Hop.dropped (Kernel.eth_hops srv).Kernel.rx
       Ash_obs.Trace.Dpf_miss)

(* ------------------------------------------------------------------ *)
(* Trie vs first-match reference on random filter sets                 *)
(* ------------------------------------------------------------------ *)

let pkt_len = 16

(* Small offsets and tiny value alphabets make overlaps and shared
   prefixes common — the interesting cases for a merged trie. *)
let gen_filter rng =
  List.init
    (1 + Rng.int rng 3)
    (fun _ ->
       let width = [| 1; 2 |].(Rng.int rng 2) in
       let offset = Rng.int rng 4 in
       let value = Rng.int rng 3 in
       let mask = if Rng.int rng 4 = 0 then 1 else (1 lsl (8 * width)) - 1 in
       { Dpf.offset; width; mask; value = value land mask })

let gen_packet rng =
  let b = Bytes.create pkt_len in
  for i = 0 to pkt_len - 1 do
    Bytes.set b i (Char.chr (Rng.int rng 3))
  done;
  b

let prop_trie_find_equals_reference =
  QCheck.Test.make ~name:"trie find = first-match reference" ~count:300
    ~long_factor:10 (QCheck.int_bound 1_000_000_000) (fun seed ->
      let rng = Rng.create (seed + 101) in
      let nfilters = 1 + Rng.int rng 8 in
      let filters = List.init nfilters (fun i -> (gen_filter rng, i)) in
      let trie = Dpf_trie.create () in
      List.iter (fun (f, p) -> Dpf_trie.insert trie ~prio:p f p) filters;
      (* Remove a random subset, so incremental remove is part of the
         property, not just insert. *)
      let removed, kept =
        List.partition (fun _ -> Rng.int rng 3 = 0) filters
      in
      List.iter (fun (f, p) -> Dpf_trie.remove trie ~prio:p f) removed;
      if Dpf_trie.size trie <> List.length kept then
        QCheck.Test.fail_reportf "size %d after removals, expected %d"
          (Dpf_trie.size trie) (List.length kept);
      for _ = 1 to 16 do
        let pkt = gen_packet rng in
        let got = lookup trie pkt and expected = first_match kept pkt in
        if got <> expected then
          let show = function None -> "miss" | Some p -> string_of_int p in
          QCheck.Test.fail_reportf "lookup %s, first match %s" (show got)
            (show expected)
      done;
      true)

(* The charged walk reads machine memory and stops at [msg_len]; the
   pure find is [Dpf.matches] over the message's bytes alone. A short
   [msg_len] over a longer buffer must kill a branch whose field runs
   past it, as a packet of that length would. *)
let prop_trie_lookup_equals_find =
  QCheck.Test.make ~name:"machine-charged lookup = pure find" ~count:200
    ~long_factor:10 (QCheck.int_bound 1_000_000_000) (fun seed ->
      let rng = Rng.create (seed + 211) in
      let nfilters = 1 + Rng.int rng 6 in
      let filters = List.init nfilters (fun i -> (gen_filter rng, i)) in
      let trie = Dpf_trie.create () in
      List.iter (fun (f, p) -> Dpf_trie.insert trie ~prio:p f p) filters;
      let pkt = gen_packet rng in
      (* Atoms end by byte 5: lengths below 6 cut some of them off. *)
      let msg_len = if Rng.int rng 2 = 0 then pkt_len else Rng.int rng 6 in
      let machine = Machine.create Costs.decstation in
      let mem = Machine.mem machine in
      let buf = Memory.alloc mem ~name:"pkt" pkt_len in
      Memory.blit_from_bytes mem ~src:pkt ~src_off:0 ~dst:buf.Memory.base
        ~len:pkt_len;
      let got =
        Dpf_trie.lookup trie machine ~msg_addr:buf.Memory.base ~msg_len
      and expected = first_match filters (Bytes.sub pkt 0 msg_len) in
      if got <> expected then
        let show = function None -> "miss" | Some p -> string_of_int p in
        QCheck.Test.fail_reportf "msg_len %d: lookup %s, pure find %s" msg_len
          (show got) (show expected)
      else true)

(* Removing a filter that is not there, under another [prio] or along
   atoms never installed, must leave the count and every answer as they
   were: [size] is the churn audit's leaked-filter count. *)
let test_absent_remove_changes_nothing () =
  let trie = Dpf_trie.create () in
  List.iteri
    (fun p (_, f) -> Dpf_trie.insert trie ~prio:p f p)
    overlap_filters;
  let answers () = List.map (lookup trie) trial_frames in
  let before = answers () in
  let check what =
    Alcotest.(check int) (what ^ ": size") 3 (Dpf_trie.size trie);
    Alcotest.(check (list (option int))) (what ^ ": lookups") before
      (answers ())
  in
  Dpf_trie.remove trie ~prio:7 (List.assoc "f1" overlap_filters);
  check "wrong prio";
  (* f2's path up to its last atom, then a value no filter tests. *)
  Dpf_trie.remove trie ~prio:1
    [ Dpf.atom ~offset:0 ~width:1 0xAA; Dpf.atom ~offset:1 ~width:1 0xCC ];
  check "atoms never installed"

let test_trie_single_filter_costs_match_compiled () =
  (* The whole point of the cost model: a lone filter charges exactly
     what its compiled program charges, so merging is invisible in
     simulated time. *)
  let filter =
    [ Dpf.atom ~offset:9 ~width:1 17; Dpf.atom ~offset:22 ~width:2 7001 ]
  in
  let pkt = Bytes.make 64 '\000' in
  Bytesx.set_u8 pkt 9 17;
  Bytesx.set_u16 pkt 22 7001;
  let charge_of run =
    let machine = Machine.create Costs.decstation in
    let mem = Machine.mem machine in
    let buf = Memory.alloc mem ~name:"pkt" 64 in
    Memory.blit_from_bytes mem ~src:pkt ~src_off:0 ~dst:buf.Memory.base ~len:64;
    ignore (Machine.take_ns machine);
    run machine buf;
    Machine.take_ns machine
  in
  let compiled_ns =
    charge_of (fun machine buf ->
        ignore
          (Dpf.run_compiled machine (Dpf.compile filter)
             ~msg_addr:buf.Memory.base ~msg_len:64))
  in
  let trie_ns =
    charge_of (fun machine buf ->
        let trie = Dpf_trie.create () in
        Dpf_trie.insert trie ~prio:0 filter ();
        Alcotest.(check bool) "matched" true
          (Dpf_trie.lookup trie machine ~msg_addr:buf.Memory.base ~msg_len:64
           <> None))
  in
  Alcotest.(check int) "identical simulated charge" compiled_ns trie_ns

let () =
  Alcotest.run "demux"
    [
      ( "kernel",
        [
          Alcotest.test_case "overlap: trie = first-match reference" `Quick
            test_overlap_matches_first_match_reference;
          Alcotest.test_case "unbind removes one" `Quick
            test_unbind_removes_exactly_one;
          Alcotest.test_case "unbind leaves a dpf-miss" `Quick
            test_unbind_leaves_dpf_miss;
        ] );
      ( "trie",
        [
          QCheck_alcotest.to_alcotest prop_trie_find_equals_reference;
          QCheck_alcotest.to_alcotest prop_trie_lookup_equals_find;
          Alcotest.test_case "absent remove changes nothing" `Quick
            test_absent_remove_changes_nothing;
          Alcotest.test_case "lone filter cost = compiled" `Quick
            test_trie_single_filter_costs_match_compiled;
        ] );
    ]

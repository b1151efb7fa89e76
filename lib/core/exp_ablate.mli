(** Ablations: DPF compilation (A1) and interface-specific DILP back
    ends (A3). *)

val demux_cycles_trie : nfilters:int -> Ash_sim.Time.ns
(** Same worst case through the merged filter trie ({!Ash_kern.Dpf_trie}). *)

val dpf : unit -> Report.table

val demux_scaling : unit -> Report.table
(** Ablation A4: linear-scan vs merged-trie demux as installed filters
    grow. *)

val striped : unit -> Report.table

val absint : unit -> Report.table
(** Ablation A5: sandbox cost with download-time abstract
    interpretation off vs on (and with the §V-D exit code
    specialized away). *)

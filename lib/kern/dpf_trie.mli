(** Merged DPF demultiplexing trie (§IV-A; DPF [19]).

    All installed filters coalesce into one structure: filters whose
    next atom reads the same [(offset, width, mask)] share a test node
    and dispatch on the comparison value, so demultiplexing walks the
    message once instead of running every filter's program in turn —
    per-message cost, not per-filter. This is the kernel's only
    Ethernet demux engine: a binding keeps just its atom list, which
    {!remove} needs.

    Overlapping filters keep install-order priority: {!lookup} returns
    the payload inserted with the lowest [prio] among all matches, the
    same answer as applying {!Dpf.matches} to the filters in install
    order and taking the first match. Subtrees that cannot contain a
    better-priority match than one already found are pruned without
    cost.

    Cost model: the walk charges the owning machine exactly what the
    equivalent compiled filter code (see {!Dpf.compile}) charges per
    atom tested — including the cache-modelled field loads — so merging
    never changes simulated numbers for a lone filter, it only removes
    the redundant work between filters. *)

type 'a t

val create : unit -> 'a t

val size : 'a t -> int
(** Number of installed filters: inserts minus the entries {!remove}
    actually removed. *)

val insert : 'a t -> prio:int -> Dpf.t -> 'a -> unit
(** Install a filter. [prio] orders overlapping matches (lower wins);
    the kernel uses install order. Incremental: no rebuild. *)

val remove : 'a t -> prio:int -> Dpf.t -> unit
(** Remove the filter installed with exactly this [prio] along this
    atom list; emptied branches are pruned, and every node on the path
    refolds its children's priority summaries (O(children) per node).
    {!size} falls by the number of entries removed: removing an absent
    filter (another [prio], or atoms never installed) changes
    nothing. *)

val lookup :
  'a t -> Ash_sim.Machine.t -> msg_addr:int -> msg_len:int -> 'a option
(** Demultiplex a message in machine memory, charging the walk to the
    machine (see the cost model above). Fields beyond [msg_len] reject
    the branch, mirroring the compiled filter's bound-check kill. *)

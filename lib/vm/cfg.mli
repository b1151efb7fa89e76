(** Basic-block control-flow graph over a handler program.

    The download-time analyses (abstract interpretation, dominance,
    loop/bound extraction) all work on this graph rather than on the
    raw instruction array. Blocks are maximal straight-line runs; an
    edge exists for every way control can move between blocks.

    Indirect jumps ([Jr]) make every instruction a potential entry
    point, so a program containing one is built with single-instruction
    blocks and the [Jr] block gets every block as a successor — maximally
    conservative, which is what the analyses need to stay sound. *)

type block = {
  first : int;  (** Index of the block's first instruction. *)
  last : int;   (** Index of its last instruction (inclusive). *)
  succs : int list;  (** Successor block ids. *)
  preds : int list;  (** Predecessor block ids. *)
}

type t = {
  program : Program.t;
  blocks : block array;   (** Sorted by [first]; block 0 is the entry. *)
  block_of : int array;   (** Instruction index -> block id. *)
  has_indirect : bool;    (** Program contains a [Jr]. *)
  rpo : int array;        (** Reachable blocks in reverse postorder. *)
  idom : int array;
  (** Immediate dominator per block; [-1] for the entry and for blocks
      unreachable from it. *)
}

val build : Program.t -> t
(** Raises [Invalid_argument] on an empty program. Branch targets
    outside the program (which {!Verify.check} rejects) are treated as
    missing edges, so [build] is total on verifier-accepted programs. *)

val reachable : t -> int -> bool
(** Is the block reachable from the entry? *)

val dominates : t -> int -> int -> bool
(** [dominates t a b]: every path from the entry to block [b] passes
    through block [a]. False if either block is unreachable. *)

val back_edges : t -> (int * int) list
(** Edges [(tail, head)] where [head] dominates [tail] — one per
    natural loop in a reducible graph. *)

val natural_loop : t -> tail:int -> head:int -> int list
(** Blocks of the natural loop of a back edge: [head] plus every block
    that reaches [tail] without passing through [head]. *)

(** Static worst-case execution bound (§III-B3).

    The paper prefers a download-time bound on handler run time over
    dynamic gas probes: "the TLB-miss handler is statically bounded" —
    probes are only needed "for ASHs that contain loops" whose trip
    counts cannot be established. This module computes that bound from
    the {!Cfg} and the {!Absint} facts:

    - every instruction is priced at its worst case (base cycles, plus
      worst-case cache behaviour for memory accesses, plus the cycles
      of the sandbox checks that will be emitted in front of it);
    - an acyclic CFG is bounded by its longest path;
    - a loop contributes [trips * body] where the trip count comes from
      a counted-loop pattern: a single [addi i, i, step] (step >= 1)
      per loop that runs every iteration, and an exit test [i < lim]
      with [lim] a known constant at the test;
    - anything else — indirect jumps, nested or irreducible loops,
      unrecognized exit conditions, calls whose cost depends on a
      runtime length ([copy]/[dilp]/[send]) — yields [Unbounded] with
      the reason, and the sandboxer falls back to gas probes (the
      paper's exact static/dynamic split).

    The bound covers handler cycles as metered by the interpreter; it
    is an over-approximation, never an under-approximation, so a
    handler admitted with [Bounded b <= budget] can never trip the
    dynamic gas check. *)

type result = Bounded of int | Unbounded of string

val compute :
  costs:Ash_sim.Costs.t ->
  check_cycles:(int -> int) ->
  overhead:int ->
  Absint.t ->
  result
(** [check_cycles i] is the total cycle cost of the check instructions
    the sandboxer will emit in front of original instruction [i];
    [overhead] is the flat worst-case cost of the prologue and exit
    code. *)

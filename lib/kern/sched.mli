(** Process scheduling model (Fig. 4, Table V).

    We do not run arbitrary user programs; what the experiments need is
    the {e queueing} behaviour of the CPU: given [n] runnable processes
    and a scheduling policy, how long until a particular process next
    holds the CPU after a message arrives for it?

    - [Oblivious_rr] is Aegis' round-robin scheduler: "the scheduler is
      not integrated with the communication system, and does not know to
      increase the priority of a process that has a message waiting".
    - [Priority_boost] is the Ultrix-style scheduler "that raises the
      priority of a process immediately after a network interrupt": the
      wait collapses to interrupt + context-switch time, independent of
      the queue length (plus a small per-process cache/queue penalty). *)

type policy = Oblivious_rr | Priority_boost

type t

type proc

val create :
  Ash_sim.Engine.t -> Ash_sim.Costs.t -> policy:policy -> t
(** The quantum comes from the cost profile. The scheduler begins
    rotating at the engine's current time. *)

val policy : t -> policy

val add_proc : t -> name:string -> proc
(** Add a runnable process to the rotation. *)

val is_current : t -> proc -> bool
(** Whether the process holds the CPU right now. *)

val wait_until_scheduled : t -> proc -> Ash_sim.Time.ns
(** Time from now until the process next holds the CPU under the
    scheduler's policy, for a message that has just arrived for it:

    - current process: 0;
    - [Oblivious_rr]: remainder of the current quantum plus a full
      quantum for each process ahead in the ready queue;
    - [Priority_boost]: interrupt + context switch, plus a small
      per-runnable-process penalty (run-queue scan and cache pollution),
      independent of queue position. *)

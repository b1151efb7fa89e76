type event = {
  time : Time.ns;
  seq : int;
  corr : int; (* correlation id ambient when the event was scheduled *)
  action : unit -> unit;
  mutable slot : int; (* index in the heap; -1 once fired or cancelled *)
}

type event_id = event

module Heap = struct
  (* Binary min-heap on (time, seq) that keeps every queued event's
     [slot] equal to its index, so [remove_at] can take an event out
     from the middle. The key is unique (seq never repeats), so any valid
     heap pops events in the same order: the layout of the array never
     shows in a run. Events move by the hole method, one array store
     per level. *)
  type t = { mutable arr : event array; mutable len : int }

  let dummy =
    { time = 0; seq = 0; corr = 0; action = (fun () -> ()); slot = -1 }

  let create () = { arr = Array.make 64 dummy; len = 0 }

  let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let[@inline] place h i e =
    h.arr.(i) <- e;
    e.slot <- i

  (* Settle [e] into the hole at [i], moving up past later parents. *)
  let sift_up h i e =
    let i = ref i in
    while !i > 0 && before e h.arr.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      place h !i h.arr.(p);
      i := p
    done;
    place h !i e

  (* Settle [e] into the hole at [i], moving down past earlier
     children. *)
  let sift_down h i e =
    let i = ref i in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= h.len then continue := false
      else begin
        let c =
          if l + 1 < h.len && before h.arr.(l + 1) h.arr.(l) then l + 1 else l
        in
        if before h.arr.(c) e then begin
          place h !i h.arr.(c);
          i := c
        end
        else continue := false
      end
    done;
    place h !i e

  let push h e =
    if h.len = Array.length h.arr then begin
      let bigger = Array.make (2 * h.len) dummy in
      Array.blit h.arr 0 bigger 0 h.len;
      h.arr <- bigger
    end;
    h.len <- h.len + 1;
    sift_up h (h.len - 1) e

  (* Take out the event at index [i]: the last event fills the hole and
     settles up or down from there. *)
  let remove_at h i =
    let e = h.arr.(i) in
    e.slot <- -1;
    h.len <- h.len - 1;
    let last = h.arr.(h.len) in
    h.arr.(h.len) <- dummy;
    if i < h.len then begin
      if i > 0 && before last h.arr.((i - 1) / 2) then sift_up h i last
      else sift_down h i last
    end;
    e

  (* The earliest event. The heap must not be empty. *)
  let pop h = remove_at h 0
end

type t = {
  heap : Heap.t;
  mutable clock : Time.ns;
  mutable next_seq : int;
  (* Under a multi-shard cluster the per-step telemetry tick is
     suppressed: shards run on worker domains and at racy per-event
     points, so the cluster ticks once per epoch barrier instead (main
     domain, deterministic deadline). *)
  mutable barrier_telemetry : bool;
}

let create () =
  let t =
    {
      heap = Heap.create ();
      clock = 0;
      next_seq = 0;
      barrier_telemetry = false;
    }
  in
  (* Trace events are stamped with this engine's virtual clock. The
     registration here covers emission outside event dispatch (e.g.
     scheduling before the first run); while an engine is stepping, it
     scopes the clock to itself and restores the previous one after, so
     multiple live engines cannot mis-stamp each other's events. *)
  Ash_obs.Trace.set_clock (fun () -> t.clock);
  t

let now t = t.clock

let schedule_at t ~at action =
  if at < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  if Ash_obs.Trace.enabled () then
    Ash_obs.Trace.emit (Ash_obs.Trace.Ev_scheduled { at });
  let e =
    {
      time = at;
      seq = t.next_seq;
      corr = Ash_obs.Trace.current_corr ();
      action;
      slot = -1;
    }
  in
  t.next_seq <- t.next_seq + 1;
  Heap.push t.heap e;
  e

let schedule t ~delay action =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~at:(t.clock + delay) action

let cancel t e =
  if e.slot >= 0 then begin
    if e.slot >= t.heap.len || t.heap.arr.(e.slot) != e then
      invalid_arg "Engine.cancel: event belongs to another engine";
    ignore (Heap.remove_at t.heap e.slot : event)
  end

let pending t = t.heap.len

(* The one exception frame of a run: bracket dispatch with this
   engine's clock so concurrent engines stamp their own events, and
   put back the ambient correlation id that an action raising out of
   [step_unscoped] leaves installed. *)
let with_clock t f =
  let prev = Ash_obs.Trace.swap_clock (fun () -> t.clock) in
  let corr = Ash_obs.Trace.current_corr () in
  Fun.protect
    ~finally:(fun () ->
      let (_ : unit -> int) = Ash_obs.Trace.swap_clock prev in
      Ash_obs.Trace.set_corr corr)
    f

(* Fire the earliest event; the heap must not be empty. *)
let step_unscoped t =
  let e = Heap.pop t.heap in
  t.clock <- e.time;
  if Ash_obs.Trace.enabled () then Ash_obs.Trace.emit Ash_obs.Trace.Ev_fired;
  (* Asynchronous continuations inherit the correlation id of the
     message that scheduled them. *)
  let prev = Ash_obs.Trace.current_corr () in
  Ash_obs.Trace.set_corr e.corr;
  e.action ();
  Ash_obs.Trace.set_corr prev;
  (* Sample the ambient timeseries on the event grid: one option
     read per step when telemetry is off. *)
  if not t.barrier_telemetry then
    Ash_obs.Timeseries.tick_current ~now:t.clock

let run t =
  with_clock t (fun () ->
      while t.heap.len > 0 do
        step_unscoped t
      done)

let run_due t deadline =
  let h = t.heap in
  while h.len > 0 && h.arr.(0).time <= deadline do
    step_unscoped t
  done

let run_until t deadline =
  with_clock t (fun () ->
      run_due t deadline;
      if t.clock < deadline then t.clock <- deadline)

(* ---------------------------------------------------------------- *)
(* Sharded execution                                                 *)
(* ---------------------------------------------------------------- *)

type exec = at:Time.ns -> (unit -> unit) -> unit

(* Run events with timestamps <= deadline but do NOT jump the clock to
   the deadline afterwards: an epoch slice must leave the clock on the
   last executed event, exactly as [run] would, so the epoch-driven
   cluster produces the same final clocks as an unsharded run. *)
let run_epoch t deadline = with_clock t (fun () -> run_due t deadline)

(* Enqueue without emitting Ev_scheduled and with an explicit
   correlation id: the epoch barrier uses this to transfer cross-shard
   posts, whose Ev_scheduled was already emitted on the source shard at
   post time. *)
let schedule_quiet t ~at ~corr action =
  let e = { time = at; seq = t.next_seq; corr; action; slot = -1 } in
  t.next_seq <- t.next_seq + 1;
  Heap.push t.heap e

(* Which shard the current domain is executing, if any. Cross-shard
   executors consult this to tell "scheduling from inside shard s" apart
   from "scheduling during setup on the main domain". *)
let cur_shard_key : int option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

type engine = t

let run_one = run
let run_until_one = run_until

module Cluster = struct
  (* N per-shard engines advancing in lockstep through virtual-time
     epochs [t_min, t_min + epoch_ns). Within an epoch every shard
     executes only its own events (on its own domain when jobs > 1);
     cross-shard work is posted into per-(src,dst) outboxes and only
     transferred at the epoch barrier, in fixed src-major order, so the
     heap contents — and therefore the whole simulation — are a pure
     function of the inputs, whatever the domain count.

     This is conservative parallel discrete-event simulation: it is
     only correct when every cross-shard interaction carries at least
     [epoch_ns] of virtual latency (here: the fabric's fixed one-way
     wire latency), which [exec] enforces with a lookahead check. *)

  type post_cell = { p_at : Time.ns; p_corr : int; p_act : unit -> unit }

  let dummy_cell = { p_at = 0; p_corr = 0; p_act = (fun () -> ()) }

  type outbox = { mutable o_items : post_cell array; mutable o_len : int }

  type t = {
    engines : engine array;
    bufs : Ash_obs.Trace.shard_buf array;
    epoch_ns : Time.ns;
    out : outbox array array; (* [src].[dst] *)
    mutable epoch_end : Time.ns; (* cross-shard posts must land >= this *)
    mutable running : bool;
  }

  let create ?(epoch_ns = 25_000) ~shards () =
    if shards < 1 then invalid_arg "Engine.Cluster.create: shards must be >= 1";
    if epoch_ns < 1 then
      invalid_arg "Engine.Cluster.create: epoch_ns must be >= 1";
    let engines = Array.init shards (fun _ -> create ()) in
    let bufs =
      Array.init shards (fun i -> Ash_obs.Trace.shard_buf ~shard:i ~shards)
    in
    Array.iteri
      (fun i b ->
        let e = engines.(i) in
        Ash_obs.Trace.shard_set_clock b (fun () -> e.clock))
      bufs;
    let out =
      Array.init shards (fun _ ->
          Array.init shards (fun _ ->
              { o_items = Array.make 16 dummy_cell; o_len = 0 }))
    in
    (* Multi-shard: telemetry samples are taken at the epoch barrier
       (below), never inside a shard slice — the per-step tick would
       run on worker domains at domain-interleaving-dependent points. *)
    if shards > 1 then
      Array.iter (fun e -> e.barrier_telemetry <- true) engines;
    { engines; bufs; epoch_ns; out; epoch_end = 0; running = false }

  let shards c = Array.length c.engines
  let engine c i = c.engines.(i)

  let now c =
    Array.fold_left (fun acc e -> max acc e.clock) c.engines.(0).clock c.engines

  let out_push ob cell =
    if ob.o_len = Array.length ob.o_items then begin
      let bigger = Array.make (2 * ob.o_len) dummy_cell in
      Array.blit ob.o_items 0 bigger 0 ob.o_len;
      ob.o_items <- bigger
    end;
    ob.o_items.(ob.o_len) <- cell;
    ob.o_len <- ob.o_len + 1

  let exec c dst : exec =
    if dst < 0 || dst >= Array.length c.engines then
      invalid_arg "Engine.Cluster.exec: shard out of range";
    fun ~at action ->
      match Domain.DLS.get cur_shard_key with
      | Some src when src <> dst && c.running ->
        if at < c.epoch_end then
          invalid_arg
            "Engine.Cluster.exec: cross-shard event lands inside the \
             current epoch (lookahead violation)";
        if Ash_obs.Trace.enabled () then
          Ash_obs.Trace.emit (Ash_obs.Trace.Ev_scheduled { at });
        let corr = Ash_obs.Trace.current_corr () in
        out_push c.out.(src).(dst) { p_at = at; p_corr = corr; p_act = action }
      | _ -> ignore (schedule_at c.engines.(dst) ~at action : event_id)

  (* Merge all shard buffers into the root recorder in (ts, shard)
     order, preserving each shard's append order. Runs on the main
     domain at the barrier, so recorder sequence numbers and metric
     accounting stay single-threaded and deterministic. *)
  let flush_traces c =
    let n = Array.length c.bufs in
    let idx = Array.make n 0 in
    let continue = ref true in
    while !continue do
      let best = ref (-1) in
      let best_ts = ref max_int in
      for s = 0 to n - 1 do
        if idx.(s) < Ash_obs.Trace.shard_len c.bufs.(s) then begin
          let ts, _, _ = Ash_obs.Trace.shard_get c.bufs.(s) idx.(s) in
          if ts < !best_ts then begin
            best_ts := ts;
            best := s
          end
        end
      done;
      if !best < 0 then continue := false
      else begin
        let ts, corr, kind = Ash_obs.Trace.shard_get c.bufs.(!best) idx.(!best) in
        idx.(!best) <- idx.(!best) + 1;
        Ash_obs.Trace.emit_at ~ts ~corr kind
      end
    done;
    Array.iter Ash_obs.Trace.shard_clear c.bufs

  (* Transfer cross-shard posts into destination heaps in fixed
     src-major order: destination sequence numbers are a function of
     the posts alone, not of domain scheduling. *)
  let drain_posts c =
    let n = Array.length c.engines in
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        let ob = c.out.(src).(dst) in
        for i = 0 to ob.o_len - 1 do
          let cell = ob.o_items.(i) in
          ob.o_items.(i) <- dummy_cell;
          schedule_quiet c.engines.(dst) ~at:cell.p_at ~corr:cell.p_corr
            cell.p_act
        done;
        ob.o_len <- 0
      done
    done

  (* The earliest queued event over all shards. Cancelled events have
     left their heaps, so no epoch opens just to discard one. *)
  let next_time c =
    let best = ref max_int in
    Array.iter
      (fun e ->
        let h = e.heap in
        if h.len > 0 && h.arr.(0).time < !best then best := h.arr.(0).time)
      c.engines;
    if !best = max_int then None else Some !best

  let run_slice c s ~deadline =
    Ash_obs.Trace.with_shard c.bufs.(s) (fun () ->
        Domain.DLS.set cur_shard_key (Some s);
        Fun.protect
          ~finally:(fun () -> Domain.DLS.set cur_shard_key None)
          (fun () -> run_epoch c.engines.(s) deadline))

  (* One deterministic telemetry point per epoch: every shard has
     executed through [deadline] (a pure function of the event times
     and the epoch pitch), all shard events are merged, and the worker
     domains are parked — so gauge reads see a quiescent, job-count-
     independent state. *)
  let barrier_tick ~deadline =
    Ash_obs.Timeseries.tick_current ~now:deadline;
    Ash_obs.Flight.heartbeat_all ~now:deadline

  let begin_epoch c tmin ~until =
    let e_end = tmin + c.epoch_ns in
    let deadline = Int.min (e_end - 1) until in
    c.epoch_end <- e_end;
    let on = Ash_obs.Trace.enabled () in
    Array.iter (fun b -> Ash_obs.Trace.shard_set_enabled b on) c.bufs;
    deadline

  let run_epochs_seq c ~until =
    let continue = ref true in
    while !continue do
      match next_time c with
      | None -> continue := false
      | Some tmin when tmin > until -> continue := false
      | Some tmin ->
        let deadline = begin_epoch c tmin ~until in
        for s = 0 to Array.length c.engines - 1 do
          run_slice c s ~deadline
        done;
        flush_traces c;
        drain_posts c;
        barrier_tick ~deadline
    done

  (* Persistent worker pool: shard s runs on worker (s mod jobs); the
     main domain doubles as worker 0. A generation counter under a
     mutex forms the epoch barrier and provides the happens-before
     edges that publish each shard's mutations to whichever domain
     reads them next. *)
  type pool = {
    mutex : Mutex.t;
    cond : Condition.t;
    mutable gen : int;
    mutable deadline : Time.ns;
    mutable done_count : int;
    mutable stop : bool;
    mutable failure : exn option;
  }

  let run_epochs_par c ~jobs ~until =
    let n = Array.length c.engines in
    let p =
      {
        mutex = Mutex.create ();
        cond = Condition.create ();
        gen = 0;
        deadline = 0;
        done_count = 0;
        stop = false;
        failure = None;
      }
    in
    let worker w () =
      let seen = ref 0 in
      let live = ref true in
      while !live do
        Mutex.lock p.mutex;
        while p.gen = !seen && not p.stop do
          Condition.wait p.cond p.mutex
        done;
        if p.stop then begin
          Mutex.unlock p.mutex;
          live := false
        end
        else begin
          seen := p.gen;
          let dl = p.deadline in
          Mutex.unlock p.mutex;
          (try
             let s = ref w in
             while !s < n do
               run_slice c !s ~deadline:dl;
               s := !s + jobs
             done
           with e ->
             Mutex.lock p.mutex;
             if p.failure = None then p.failure <- Some e;
             Mutex.unlock p.mutex);
          Mutex.lock p.mutex;
          p.done_count <- p.done_count + 1;
          Condition.broadcast p.cond;
          Mutex.unlock p.mutex
        end
      done
    in
    let doms = Array.init (jobs - 1) (fun i -> Domain.spawn (worker (i + 1))) in
    let finish () =
      Mutex.lock p.mutex;
      p.stop <- true;
      Condition.broadcast p.cond;
      Mutex.unlock p.mutex;
      Array.iter Domain.join doms
    in
    Fun.protect ~finally:finish (fun () ->
        let continue = ref true in
        while !continue do
          match next_time c with
          | None -> continue := false
          | Some tmin when tmin > until -> continue := false
          | Some tmin ->
            let deadline = begin_epoch c tmin ~until in
            Mutex.lock p.mutex;
            p.deadline <- deadline;
            p.done_count <- 0;
            p.gen <- p.gen + 1;
            Condition.broadcast p.cond;
            Mutex.unlock p.mutex;
            let s = ref 0 in
            while !s < n do
              run_slice c !s ~deadline;
              s := !s + jobs
            done;
            Mutex.lock p.mutex;
            while p.done_count < jobs - 1 do
              Condition.wait p.cond p.mutex
            done;
            Mutex.unlock p.mutex;
            (match p.failure with
            | Some e ->
              p.failure <- None;
              raise e
            | None -> ());
            flush_traces c;
            drain_posts c;
            barrier_tick ~deadline
        done)

  let run_epochs c ~jobs ~until =
    if c.running then invalid_arg "Engine.Cluster: already running";
    let jobs = max 1 (min jobs (Array.length c.engines)) in
    c.running <- true;
    Fun.protect
      ~finally:(fun () ->
        c.running <- false;
        c.epoch_end <- 0)
      (fun () ->
        if jobs = 1 then run_epochs_seq c ~until
        else run_epochs_par c ~jobs ~until)

  let run ?(jobs = 1) c =
    if Array.length c.engines = 1 then run_one c.engines.(0)
    else run_epochs c ~jobs ~until:max_int

  let run_until ?(jobs = 1) c deadline =
    if Array.length c.engines = 1 then run_until_one c.engines.(0) deadline
    else begin
      run_epochs c ~jobs ~until:deadline;
      (* All events <= deadline have fired; this only advances clocks
         that stopped short, mirroring single-engine [run_until]. *)
      Array.iter (fun e -> run_until_one e deadline) c.engines
    end
end

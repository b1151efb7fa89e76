(* A fresh handle per [prepare], around a possibly shared artifact. *)
type prepared = { compiled : Compile.t }

(* Process-wide artifact memo. Translation is a pure function of the
   program, so distinct kernels (each with its own per-kernel handler
   cache) still share one closure artifact per distinct program. Reset
   when it grows past [memo_cap] — property tests churn through
   thousands of one-shot random programs. Downloads can run on shard
   domains (an MQ broker re-installs its handlers when it heals), so
   the shared table is mutex-protected; compilation itself happens
   outside the lock on a miss (a duplicate compile is harmless — both
   artifacts are equivalent and one wins the table). *)
let memo_cap = 1024
let artifacts : (string, Compile.t) Hashtbl.t = Hashtbl.create 64
let artifacts_mutex = Mutex.create ()

let memo_add digest c =
  match Hashtbl.find_opt artifacts digest with
  | Some existing -> existing
  | None ->
    if Hashtbl.length artifacts >= memo_cap then Hashtbl.reset artifacts;
    Hashtbl.add artifacts digest c;
    c

let prepare program =
  let digest = Program.digest program in
  let locked f = Mutex.protect artifacts_mutex f in
  let compiled =
    match locked (fun () -> Hashtbl.find_opt artifacts digest) with
    | Some c -> c
    | None ->
      let c = Compile.compile program in
      locked (fun () -> memo_add digest c)
  in
  { compiled }

let run env ?regs_init p = Compile.run env ?regs_init p.compiled

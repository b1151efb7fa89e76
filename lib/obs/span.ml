(* Stage spans over the trace stream.

   Virtual time does not advance while an engine event runs, so raw
   event timestamps would collapse every span opened and closed inside
   one dispatch to zero length. Emission sites therefore pass [off],
   the work already charged but not yet reflected in the clock (kernel
   horizon backlog plus undrained machine-meter nanoseconds); the span
   clock is [event ts + off], which counts each charge exactly once. *)

type interval = {
  corr : int;
  stage : Trace.stage;
  t0 : int;
  t1 : int;
  cycles : int;
}

let begin_span ~corr ?(off = 0) stage =
  if Trace.span_on corr then Trace.emit (Trace.Span_begin { corr; stage; off })

let end_span ~corr ?(off = 0) ?(cycles = 0) stage =
  if Trace.span_on corr then
    Trace.emit (Trace.Span_end { corr; stage; off; cycles })

(* Pair begins with ends per (corr, stage). Nested same-stage spans pop
   LIFO; an end without a begin is dropped; leftover begins are
   reported by [unclosed]. *)
let fold evs =
  let open Trace in
  let stacks : (int * stage, int list) Hashtbl.t = Hashtbl.create 64 in
  let push key v =
    let prev = Option.value ~default:[] (Hashtbl.find_opt stacks key) in
    Hashtbl.replace stacks key (v :: prev)
  in
  let pop key =
    match Hashtbl.find_opt stacks key with
    | None | Some [] -> None
    | Some (v :: rest) ->
      Hashtbl.replace stacks key rest;
      Some v
  in
  let intervals = ref [] in
  List.iter
    (fun e ->
      match e.kind with
      | Span_begin { corr; stage; off } -> push (corr, stage) (e.ts + off)
      | Span_end { corr; stage; off; cycles } -> (
        match pop (corr, stage) with
        | None -> ()
        | Some t0 ->
          let t1 = max t0 (e.ts + off) in
          intervals := { corr; stage; t0; t1; cycles } :: !intervals)
      | _ -> ())
    evs;
  let leftover =
    Hashtbl.fold
      (fun (corr, stage) ts acc ->
        List.fold_left (fun acc t0 -> (corr, stage, t0) :: acc) acc ts)
      stacks []
  in
  (List.rev !intervals, List.sort compare leftover)

let intervals events = fst (fold events)
let unclosed events = snd (fold events)

let duration i = i.t1 - i.t0

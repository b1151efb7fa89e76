type histo = { mutable samples : float list; mutable count : int }

type t = {
  counters : (string, int ref) Hashtbl.t;
  histos : (string, histo) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 32; histos = Hashtbl.create 16 }

(* Hot path: called once per traced event. [Hashtbl.find] + handler
   avoids the option allocation of [find_opt]; the raise only happens
   the first time a counter is seen. *)
let incr t ?(by = 1) name =
  match Hashtbl.find t.counters name with
  | r -> r := !r + by
  | exception Not_found -> Hashtbl.add t.counters name (ref by)

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let counter_ref t name =
  match Hashtbl.find t.counters name with
  | r -> r
  | exception Not_found ->
    let r = ref 0 in
    Hashtbl.add t.counters name r;
    r

let histo_ref t name =
  match Hashtbl.find t.histos name with
  | h -> h
  | exception Not_found ->
    let h = { samples = []; count = 0 } in
    Hashtbl.add t.histos name h;
    h

let observe_ref h v =
  h.samples <- v :: h.samples;
  h.count <- h.count + 1

(* Zero-valued cells (interned but never bumped, or zeroed by [clear])
   are not observations; keep them out of dumps. *)
let counters t =
  Hashtbl.fold
    (fun name r acc -> if !r = 0 then acc else (name, !r) :: acc)
    t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let observe t name v =
  match Hashtbl.find t.histos name with
  | h ->
    h.samples <- v :: h.samples;
    h.count <- h.count + 1
  | exception Not_found ->
    Hashtbl.add t.histos name { samples = [ v ]; count = 1 }

type summary = {
  count : int;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let summary_of = function
  | [] -> None
  | samples ->
    let s = Ash_util.Stats.summarize samples in
    let p q = Ash_util.Stats.percentile q samples in
    Some
      {
        count = s.Ash_util.Stats.n;
        min = s.Ash_util.Stats.min;
        max = s.Ash_util.Stats.max;
        mean = s.Ash_util.Stats.mean;
        p50 = p 50.;
        p90 = p 90.;
        p99 = p 99.;
      }

let histogram t name =
  match Hashtbl.find_opt t.histos name with
  | None -> None
  | Some h -> summary_of h.samples

let histograms t =
  Hashtbl.fold
    (fun name h acc ->
       match summary_of h.samples with
       | Some s -> (name, s) :: acc
       | None -> acc)
    t.histos []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Zero in place rather than resetting the tables: emission paths may
   hold interned {!counter_ref}/{!histo_ref} handles, which must stay
   live across a clear. *)
let clear t =
  Hashtbl.iter (fun _ r -> r := 0) t.counters;
  Hashtbl.iter
    (fun _ h ->
       h.samples <- [];
       h.count <- 0)
    t.histos

let pp_summary ppf s =
  Format.fprintf ppf
    "n=%d min=%.0f mean=%.1f p50=%.0f p90=%.0f p99=%.0f max=%.0f" s.count
    s.min s.mean s.p50 s.p90 s.p99 s.max

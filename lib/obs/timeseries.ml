type src = G of (unit -> float) | R of (unit -> int)

type series = {
  mutable src : src;
  mutable last_total : int;  (* rates: reading at the previous sample *)
  mutable cum : int;  (* rates: sum of all deltas ever sampled *)
  ts : int array;
  vs : float array;
  mutable head : int;  (* next write slot *)
  mutable len : int;
}

type t = {
  interval_ns : int;
  capacity : int;
  registry : (string, series) Hashtbl.t;
  mutable next_due : int;
}

let default_interval_ns = 100_000 (* 100 us of virtual time *)
let default_capacity = 512

let create ?(interval_ns = default_interval_ns) ?(capacity = default_capacity)
    () =
  if interval_ns < 1 then invalid_arg "Timeseries.create: interval_ns < 1";
  if capacity < 1 then invalid_arg "Timeseries.create: capacity < 1";
  { interval_ns; capacity; registry = Hashtbl.create 32; next_due = 0 }

let interval_ns t = t.interval_ns

let fresh_series t src =
  {
    src;
    last_total = 0;
    cum = 0;
    ts = Array.make t.capacity 0;
    vs = Array.make t.capacity 0.;
    head = 0;
    len = 0;
  }

(* Last-wins: replacing a source keeps the ring so a component
   re-created under the same name continues its series. Rates
   rebaseline on the new total so a restart-from-zero never yields a
   negative delta. *)
let register t name src =
  match Hashtbl.find_opt t.registry name with
  | Some s ->
    s.src <- src;
    (match src with R f -> s.last_total <- f () | G _ -> ())
  | None ->
    let s = fresh_series t src in
    (match src with R f -> s.last_total <- f () | G _ -> ());
    Hashtbl.add t.registry name s

let register_gauge t name f = register t name (G f)
let register_rate t name f = register t name (R f)
let unregister t name = Hashtbl.remove t.registry name

let push s ~at v =
  let cap = Array.length s.ts in
  s.ts.(s.head) <- at;
  s.vs.(s.head) <- v;
  s.head <- (s.head + 1) mod cap;
  if s.len < cap then s.len <- s.len + 1

let sample_series s ~at =
  match s.src with
  | G f -> push s ~at (f ())
  | R f ->
    let total = f () in
    let delta = total - s.last_total in
    s.last_total <- total;
    s.cum <- s.cum + delta;
    push s ~at (float_of_int delta)

let sample t ~now =
  Hashtbl.iter (fun _ s -> sample_series s ~at:now) t.registry

let tick t ~now =
  (* A clock more than one interval behind the grid means a new engine
     started in this process: realign rather than going silent until
     virtual time catches back up. *)
  if now + t.interval_ns < t.next_due then
    t.next_due <- now / t.interval_ns * t.interval_ns;
  if now >= t.next_due then begin
    sample t ~now:t.next_due;
    t.next_due <- ((now / t.interval_ns) + 1) * t.interval_ns
  end

(* Ambient instance: root domain only. The engine's per-step hook and
   the cluster's barrier hook read this ref, so it never matters
   whether the engine or the telemetry instance was created first. *)
let current_ref : t option ref = ref None
let set_current t = current_ref := Some t
let clear_current () = current_ref := None
let current () = !current_ref

let tick_current ~now =
  match !current_ref with None -> () | Some t -> tick t ~now

(* ------------------------------------------------------------------ *)
(* Reading and export                                                  *)
(* ------------------------------------------------------------------ *)

type kind = Gauge | Rate

type view = {
  name : string;
  kind : kind;
  cum : int;
  samples : (int * float) list;
}

let view_of name s ~last =
  let cap = Array.length s.ts in
  let n = min last s.len in
  let samples = ref [] in
  for i = 0 to n - 1 do
    (* newest-first index walk, consed to oldest-first *)
    let idx = (s.head - 1 - i + (2 * cap)) mod cap in
    samples := (s.ts.(idx), s.vs.(idx)) :: !samples
  done;
  {
    name;
    kind = (match s.src with G _ -> Gauge | R _ -> Rate);
    cum = s.cum;
    samples = !samples;
  }

let views t ~last =
  Hashtbl.fold (fun name s acc -> view_of name s ~last :: acc) t.registry []
  |> List.sort (fun a b -> String.compare a.name b.name)

let series t = views t ~last:max_int
let window t ~last = views t ~last

(* Deterministic number rendering: rate deltas are exact ints; gauge
   values print via %.6g (integral floats render bare, e.g. "3"). *)
let render_value kind v =
  match kind with
  | Rate -> string_of_int (int_of_float v)
  | Gauge -> Printf.sprintf "%.6g" v

let json_escape = Ash_util.Minijson.escape

let views_to_json ?(meta = []) ~interval_ns views =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"schema\": \"ashs-telemetry/1\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"interval_ns\": %d,\n" interval_ns);
  if meta <> [] then begin
    Buffer.add_string b "  \"meta\": {";
    List.iteri
      (fun i (k, v) ->
         if i > 0 then Buffer.add_string b ", ";
         Buffer.add_string b
           (Printf.sprintf "\"%s\": \"%s\"" (json_escape k) (json_escape v)))
      meta;
    Buffer.add_string b "},\n"
  end;
  Buffer.add_string b "  \"series\": [";
  List.iteri
    (fun i v ->
       if i > 0 then Buffer.add_char b ',';
       Buffer.add_string b "\n    {";
       Buffer.add_string b
         (Printf.sprintf "\"name\": \"%s\", \"kind\": \"%s\", "
            (json_escape v.name)
            (match v.kind with Gauge -> "gauge" | Rate -> "rate"));
       if v.kind = Rate then
         Buffer.add_string b (Printf.sprintf "\"total\": %d, " v.cum);
       Buffer.add_string b "\"samples\": [";
       List.iteri
         (fun j (ts, x) ->
            if j > 0 then Buffer.add_string b ", ";
            Buffer.add_string b
              (Printf.sprintf "[%d, %s]" ts (render_value v.kind x)))
         v.samples;
       Buffer.add_string b "]}")
    views;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

let to_json ?meta t =
  views_to_json ?meta ~interval_ns:t.interval_ns (series t)

(* Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Our dotted/dashed
   names map '.' and '-' to '_'; anything else unexpected likewise. *)
let prom_name name =
  let b = Buffer.create (String.length name + 4) in
  Buffer.add_string b "ash_";
  String.iter
    (fun c ->
       match c with
       | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
       | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let to_prometheus t =
  let b = Buffer.create 2048 in
  List.iter
    (fun v ->
       let n = prom_name v.name in
       match v.kind with
       | Rate ->
         Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" n);
         Buffer.add_string b (Printf.sprintf "%s %d\n" n v.cum)
       | Gauge -> (
         match List.rev v.samples with
         | [] -> () (* never sampled: no value to expose *)
         | (_, x) :: _ ->
           Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" n);
           Buffer.add_string b
             (Printf.sprintf "%s %s\n" n (render_value Gauge x))))
    (series t);
  Buffer.contents b

type row = {
  label : string;
  paper : float option;
  measured : float;
  unit_ : string;
}

type table = {
  id : string;
  title : string;
  rows : row list;
  notes : string list;
}

let row ~label ?paper ~measured ~unit_ () = { label; paper; measured; unit_ }

let deviation r =
  match r.paper with
  | Some p when p <> 0. -> Some (r.measured /. p)
  | Some _ | None -> None

let fmt_value v =
  if Float.is_nan v then "-"
  else if Float.abs v >= 100. then Printf.sprintf "%.0f" v
  else if Float.abs v >= 10. then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.2f" v

let print ppf t =
  let label_w =
    List.fold_left (fun w r -> max w (String.length r.label)) 24 t.rows
  in
  Format.fprintf ppf "@.=== %s: %s ===@." t.id t.title;
  Format.fprintf ppf "  %-*s %12s %12s %8s  %s@." label_w "configuration"
    "paper" "measured" "ratio" "unit";
  List.iter
    (fun r ->
       let paper = match r.paper with Some p -> fmt_value p | None -> "-" in
       let ratio =
         match deviation r with
         | Some d -> Printf.sprintf "%.2fx" d
         | None -> "-"
       in
       Format.fprintf ppf "  %-*s %12s %12s %8s  %s@." label_w r.label paper
         (fmt_value r.measured) ratio r.unit_)
    t.rows;
  List.iter (fun n -> Format.fprintf ppf "  note: %s@." n) t.notes

(* A cell's own '|' would split it into two columns. *)
let escape_cell s =
  String.concat "\\|" (String.split_on_char '|' s)

let to_markdown t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "### %s — %s\n\n" t.id t.title);
  Buffer.add_string buf "| configuration | paper | measured | ratio | unit |\n";
  Buffer.add_string buf "|---|---|---|---|---|\n";
  List.iter
    (fun r ->
       let paper = match r.paper with Some p -> fmt_value p | None -> "-" in
       let ratio =
         match deviation r with
         | Some d -> Printf.sprintf "%.2fx" d
         | None -> "-"
       in
       Buffer.add_string buf "|";
       List.iter
         (fun cell -> Printf.bprintf buf " %s |" (escape_cell cell))
         [ r.label; paper; fmt_value r.measured; ratio; r.unit_ ];
       Buffer.add_char buf '\n')
    t.rows;
  List.iter
    (fun n -> Buffer.add_string buf (Printf.sprintf "\n_Note: %s_\n" n))
    t.notes;
  Buffer.contents buf

let print_trace ?max_events ppf recorder =
  Ash_obs.Dump.pp_recorder ?max_events ppf recorder

let trace_to_json recorder = Ash_obs.Dump.to_json recorder

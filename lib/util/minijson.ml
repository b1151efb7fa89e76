type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of { pos : int; msg : string }

let fail pos msg = raise (Parse_error { pos; msg })

(* Recursive-descent over a string with one mutable cursor. The
   grammar is small enough that lexing and parsing stay fused. *)
type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let continue = ref true in
  while !continue do
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') -> advance c
    | _ -> continue := false
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c.pos (Printf.sprintf "expected '%c'" ch)

let literal c word v =
  let n = String.length word in
  if
    c.pos + n <= String.length c.src
    && String.sub c.src c.pos n = word
  then begin
    c.pos <- c.pos + n;
    v
  end
  else fail c.pos ("expected " ^ word)

let parse_string_raw c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> fail c.pos "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
       | Some '"' -> Buffer.add_char b '"'; advance c
       | Some '\\' -> Buffer.add_char b '\\'; advance c
       | Some '/' -> Buffer.add_char b '/'; advance c
       | Some 'n' -> Buffer.add_char b '\n'; advance c
       | Some 't' -> Buffer.add_char b '\t'; advance c
       | Some 'r' -> Buffer.add_char b '\r'; advance c
       | Some 'b' -> Buffer.add_char b '\b'; advance c
       | Some 'f' -> Buffer.add_char b '\012'; advance c
       | Some 'u' ->
         advance c;
         if c.pos + 4 > String.length c.src then fail c.pos "bad \\u escape";
         let hex = String.sub c.src c.pos 4 in
         let code =
           try int_of_string ("0x" ^ hex)
           with _ -> fail c.pos "bad \\u escape"
         in
         c.pos <- c.pos + 4;
         (* Our writers only escape control characters; decode the BMP
            codepoint as UTF-8 so round-trips are lossless. *)
         if code < 0x80 then Buffer.add_char b (Char.chr code)
         else if code < 0x800 then begin
           Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
           Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
         end
         else begin
           Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
           Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
           Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
         end
       | _ -> fail c.pos "bad escape");
      loop ()
    | Some ch -> Buffer.add_char b ch; advance c; loop ()
  in
  loop ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let numchar ch =
    (ch >= '0' && ch <= '9')
    || ch = '-' || ch = '+' || ch = '.' || ch = 'e' || ch = 'E'
  in
  let continue = ref true in
  while !continue do
    match peek c with
    | Some ch when numchar ch -> advance c
    | _ -> continue := false
  done;
  if c.pos = start then fail start "expected number";
  match float_of_string_opt (String.sub c.src start (c.pos - start)) with
  | Some f -> Num f
  | None -> fail start "malformed number"

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c.pos "unexpected end of input"
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin advance c; Obj [] end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws c;
        let k = parse_string_raw c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        fields := (k, v) :: !fields;
        skip_ws c;
        match peek c with
        | Some ',' -> advance c; members ()
        | Some '}' -> advance c
        | _ -> fail c.pos "expected ',' or '}'"
      in
      members ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin advance c; List [] end
    else begin
      let items = ref [] in
      let rec elements () =
        let v = parse_value c in
        items := v :: !items;
        skip_ws c;
        match peek c with
        | Some ',' -> advance c; elements ()
        | Some ']' -> advance c
        | _ -> fail c.pos "expected ',' or ']'"
      in
      elements ();
      List (List.rev !items)
    end
  | Some '"' -> Str (parse_string_raw c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c

let parse src =
  let c = { src; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length src then fail c.pos "trailing garbage";
  v

let parse_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  parse s

let mem key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function Num f -> Some f | _ -> None
let to_string = function Str s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None
let to_obj = function Obj l -> Some l | _ -> None

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

type t = {
  name : string;
  code : Isa.insn array;
  jump_map : int array option;
}

let make ~name code =
  if Array.length code = 0 then invalid_arg "Program.make: empty program";
  { name; code; jump_map = None }

let length t = Array.length t.code

(* [No_sharing]: the bytes must depend on the values only, not on
   which equal blocks the compiler or the builder happened to share. *)
let digest t =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string (t.name, t.code, t.jump_map) [ Marshal.No_sharing ]))

let pp ppf t =
  Format.fprintf ppf "@[<v>; program %s (%d instructions)@," t.name
    (Array.length t.code);
  Array.iteri
    (fun i insn -> Format.fprintf ppf "%4d: %a@," i Isa.pp insn)
    t.code;
  Format.fprintf ppf "@]"

let static_check_count t =
  Array.fold_left
    (fun acc insn -> if Isa.is_sandbox_check insn then acc + 1 else acc)
    0 t.code

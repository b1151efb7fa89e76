(* Every exported value has a caller.

   Reads the .cmti of every library unit under lib/ and lists the values
   it exports, nested signatures included ([Engine.Cluster.exec]).
   Then reads the .cmt of every unit under lib/, bin/, examples/, bench/
   and test/ and collects the values each one references, following
   module aliases ([module K = Ash_kern.Kernel],
   [let module E = Exp_sandbox in]), dune's [Ash_core__Fabric] and
   [Ash_core__] names, and paths that [open] qualifies. Tests count as
   callers.

   Prints each exported value that no other unit references, one sorted
   [Module.value] per line, and exits 1; exits 0 when there is none.
   Exits 2 when some lib/*/*.mli has no .cmti that it read, so an empty
   build cannot pass.

   Usage: exports.exe ROOT, where ROOT is a dune build context such as
   _build/default after [dune build @check]. *)

open Typedtree

let rec walk dir acc =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then walk path acc else path :: acc)
    acc (Sys.readdir dir)

(* Dune names unit [Fabric] of library [ash_core] [Ash_core__Fabric] and
   the library's alias module [Ash_core] or [Ash_core__]. *)
let components name =
  let n = String.length name in
  let rec split i =
    if i + 1 >= n then [ name ]
    else if name.[i] = '_' && name.[i + 1] = '_' then
      if i + 2 = n then [ String.sub name 0 i ]
      else [ String.sub name 0 i; String.sub name (i + 2) (n - i - 2) ]
    else split (i + 1)
  in
  split 0

let key = String.concat "."

(* Exported values of one interface, as full paths from the library. *)
let exports prefix sg =
  let rec items prefix sg acc =
    List.fold_left
      (fun acc item ->
        match item.sig_desc with
        | Tsig_value vd -> (prefix @ [ vd.val_name.txt ]) :: acc
        | Tsig_module
            { md_name = { txt = Some m; _ }; md_type = { mty_desc; _ }; _ }
          -> (
            match mty_desc with
            | Tmty_signature sg -> items (prefix @ [ m ]) sg acc
            | _ -> acc)
        | _ -> acc)
      acc sg.sig_items
  in
  items prefix sg []

(* Full paths of the values one implementation references. *)
let references str =
  let aliases = Hashtbl.create 16 and paths = ref [] in
  let alias id p = Hashtbl.replace aliases (Ident.unique_name id) p in
  let default = Tast_iterator.default_iterator in
  let iter =
    {
      default with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_ident (p, _, _) -> paths := p :: !paths
          | Texp_letmodule
              (Some id, _, _, { mod_desc = Tmod_ident (p, _); _ }, _) ->
              alias id p
          | _ -> ());
          default.expr self e);
      module_binding =
        (fun self mb ->
          (match (mb.mb_id, mb.mb_expr.mod_desc) with
          | Some id, Tmod_ident (p, _) -> alias id p
          | _ -> ());
          default.module_binding self mb);
    }
  in
  iter.structure iter str;
  let rec resolve = function
    | Path.Pident id -> (
        match Hashtbl.find_opt aliases (Ident.unique_name id) with
        | Some p -> resolve p
        | None ->
            if Ident.persistent id then Some (components (Ident.name id))
            else None)
    | Path.Pdot (p, s) -> Option.map (fun q -> q @ [ s ]) (resolve p)
    | _ -> None
  in
  List.filter_map resolve !paths

let () =
  let root = Sys.argv.(1) in
  let lib = Filename.concat root "lib" in
  let exported = ref [] and read = Hashtbl.create 128 in
  List.iter
    (fun file ->
      if Filename.check_suffix file ".cmti" then
        match (Cmt_format.read_cmt file).cmt_annots with
        | Interface sg -> (
            let unit =
              components
                (String.capitalize_ascii
                   (Filename.remove_extension (Filename.basename file)))
            in
            exported := exports unit sg @ !exported;
            (* lib/util/.ash_util.objs/byte/ash_util__Rng.cmti is the
               interface of lib/util/rng.mli. *)
            let dir = Filename.(dirname (dirname (dirname file))) in
            match unit with
            | [ _; m ] ->
                Hashtbl.replace read
                  (Filename.concat dir (String.uncapitalize_ascii m ^ ".mli"))
                  ()
            | _ -> ())
        | _ -> ())
    (walk lib []);
  let unread =
    Array.to_list (Sys.readdir lib)
    |> List.map (Filename.concat lib)
    |> List.filter Sys.is_directory
    |> List.concat_map (fun dir ->
           Array.to_list (Sys.readdir dir)
           |> List.filter (fun f -> Filename.check_suffix f ".mli")
           |> List.map (Filename.concat dir))
    |> List.filter (fun mli -> not (Hashtbl.mem read mli))
  in
  if unread <> [] then (
    List.iter (Printf.eprintf "no .cmti read for %s\n")
      (List.sort compare unread);
    exit 2);
  let used = Hashtbl.create 4096 in
  List.iter
    (fun dir ->
      List.iter
        (fun file ->
          if Filename.check_suffix file ".cmt" then
            match (Cmt_format.read_cmt file).cmt_annots with
            | Implementation str ->
                List.iter
                  (fun p -> Hashtbl.replace used (key p) ())
                  (references str)
            | _ -> ())
        (walk (Filename.concat root dir) []))
    [ "lib"; "bin"; "examples"; "bench"; "test" ];
  (* Printed without the library: [Ash_obs.Trace.emit] as [Trace.emit]. *)
  let hits =
    List.filter (fun p -> not (Hashtbl.mem used (key p))) !exported
    |> List.map (fun p -> key (List.tl p))
    |> List.sort compare
  in
  List.iter print_endline hits;
  if hits <> [] then exit 1

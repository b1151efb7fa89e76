type gauge = G8 | G16 | G32

type ctx = {
  emit : Ash_vm.Isa.insn -> unit;
  data : Ash_vm.Isa.reg;
  temp : unit -> Ash_vm.Isa.reg;
}

type t = {
  name : string;
  gauge : gauge;
  body : ctx -> unit;
}

let make ~name ~gauge body = { name; gauge; body }

module Pipelist = struct
  type pipe = t

  type t = {
    mutable items : pipe list; (* reversed *)
    mutable count : int;
    mutable next_persistent : Ash_vm.Isa.reg;
    mutable persistent : Ash_vm.Isa.reg list; (* reversed *)
  }

  let create () =
    { items = []; count = 0; next_persistent = 16; persistent = [] }

  let getreg t =
    if t.next_persistent > 27 then
      failwith "Pipelist.getreg: out of persistent registers";
    let r = t.next_persistent in
    t.next_persistent <- r + 1;
    t.persistent <- r :: t.persistent;
    r

  let add t p =
    let id = t.count in
    t.items <- p :: t.items;
    t.count <- id + 1;
    id

  let pipes t = List.rev t.items

  let persistent_regs t = List.rev t.persistent
end

module Pipelist = Pipe.Pipelist
module Isa = Ash_vm.Isa

let cksum32 pl =
  let acc = Pipelist.getreg pl in
  let p =
    Pipe.make ~name:"cksum32" ~gauge:Pipe.G32 (fun c ->
        c.Pipe.emit (Isa.Cksum32 (acc, c.Pipe.data)))
  in
  (Pipelist.add pl p, acc)

let cksum16 pl =
  let acc = Pipelist.getreg pl in
  let p =
    Pipe.make ~name:"cksum16" ~gauge:Pipe.G16 (fun c ->
        (* Plain 16-bit one's-complement accumulation: add, then fold the
           carry out of bit 16 back in. *)
        let t = c.Pipe.temp () in
        c.Pipe.emit (Isa.Add (acc, acc, c.Pipe.data));
        c.Pipe.emit (Isa.Srl (t, acc, 16));
        c.Pipe.emit (Isa.Andi (acc, acc, 0xffff));
        c.Pipe.emit (Isa.Add (acc, acc, t)))
  in
  (Pipelist.add pl p, acc)

let byteswap32 pl =
  let p =
    Pipe.make ~name:"byteswap32" ~gauge:Pipe.G32 (fun c ->
        c.Pipe.emit (Isa.Bswap32 (c.Pipe.data, c.Pipe.data)))
  in
  Pipelist.add pl p

let byteswap16 pl =
  let p =
    Pipe.make ~name:"byteswap16" ~gauge:Pipe.G16 (fun c ->
        c.Pipe.emit (Isa.Bswap16 (c.Pipe.data, c.Pipe.data)))
  in
  Pipelist.add pl p

let xor_cipher pl =
  let key_reg = Pipelist.getreg pl in
  let p =
    Pipe.make ~name:"xor-cipher" ~gauge:Pipe.G32 (fun c ->
        c.Pipe.emit (Isa.Xor_ (c.Pipe.data, c.Pipe.data, key_reg)))
  in
  (Pipelist.add pl p, key_reg)

let word_count pl =
  let counter = Pipelist.getreg pl in
  let p =
    Pipe.make ~name:"word-count" ~gauge:Pipe.G32 (fun c ->
        c.Pipe.emit (Isa.Addi (counter, counter, 1)))
  in
  (Pipelist.add pl p, counter)

let identity pl =
  let p =
    Pipe.make ~name:"identity" ~gauge:Pipe.G32 (fun _ -> ())
  in
  Pipelist.add pl p

let add_const8 pl k =
  let p =
    Pipe.make ~name:(Printf.sprintf "add-const8(%d)" k) ~gauge:Pipe.G8
      (fun c ->
         c.Pipe.emit (Isa.Addi (c.Pipe.data, c.Pipe.data, k));
         c.Pipe.emit (Isa.Andi (c.Pipe.data, c.Pipe.data, 0xff)))
  in
  Pipelist.add pl p

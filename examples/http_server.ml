(* A miniature HTTP/0.9-style exchange over our user-level TCP (§IV-D
   mentions HTTP among the protocols built on the stack): the server
   answers GET requests from a tiny document table; the client fetches
   two documents over one connection and then closes it.

   Run with:  dune exec examples/http_server.exe *)

module Fabric = Ash_core.Fabric
module Lab = Ash_core.Lab
module Tcp = Ash_proto.Tcp

let documents =
  [
    ("/index.html", "<html><body>ASHs: application-specific handlers for \
                     high-performance messaging.</body></html>");
    ("/hello", "hello from a user-level TCP running over a simulated \
                exokernel");
  ]

let () =
  let tb = Fabric.pair () in
  let client, server =
    Lab.tcp_pair ~mode:(Tcp.Fast_ash { sandbox = true }) ~checksum:true
      ~in_place:false tb
  in
  Format.printf "connection established (%s / %s)@." (Tcp.state_name client)
    (Tcp.state_name server);

  (* Server: parse "GET <path>", reply with the document (or a 404). *)
  Tcp.set_reader server (fun ~addr ~len ->
      let mem =
        Ash_sim.Machine.mem
          (Ash_kern.Kernel.machine (Fabric.host tb 0).Fabric.kernel)
      in
      let req = Ash_sim.Memory.read_string mem ~addr ~len in
      let req = String.trim req in
      let path =
        match String.split_on_char ' ' req with
        | [ "GET"; p ] -> p
        | _ -> "<bad>"
      in
      let body =
        match List.assoc_opt path documents with
        | Some d -> d
        | None -> "404 not found"
      in
      (* Pad to a word multiple so the TCP fast path can place it. *)
      let pad = (4 - (String.length body land 3)) land 3 in
      let body = body ^ String.make pad ' ' in
      Format.printf "  server: %s -> %d bytes@." path (String.length body);
      Tcp.write_string server body ~on_complete:(fun () -> ()));

  (* Client: fetch the documents in sequence. *)
  let fetches = ref [ "GET /index.html "; "GET /hello      " ] in
  let next () =
    match !fetches with
    | [] -> ()
    | req :: rest ->
      fetches := rest;
      Tcp.write_string client req ~on_complete:(fun () -> ())
  in
  Tcp.set_reader client (fun ~addr ~len ->
      let mem =
        Ash_sim.Machine.mem
          (Ash_kern.Kernel.machine (Fabric.host tb 1).Fabric.kernel)
      in
      let body = Ash_sim.Memory.read_string mem ~addr ~len in
      Format.printf "  client: got %d bytes: %s@." len
        (String.sub (String.trim body) 0 (min 40 (String.length (String.trim body))));
      next ());
  next ();
  Fabric.run tb;

  let st = Tcp.stats server in
  Format.printf
    "server stats: %d segments via library, %d data + %d acks on the ASH \
     fast path, %d fast-path fallbacks@."
    st.Tcp.segments_received st.Tcp.fast_path_data st.Tcp.fast_path_acks
    st.Tcp.fast_path_aborts;
  Format.printf "simulated time: %.1f us@." (Fabric.now_us tb)

(** Dynamic protocol composition (§II-C).

    "Whereas dynamic ILP provides modularity in terms of pipes (only one
    checksum routine has to be written, and can be composed with any
    other routine), dynamic protocol composition provides modularity in
    terms of entire protocols (only one IP routine has to be written,
    and can be composed with UDP or TCP)."

    The paper defers its full composition system to TM-552; this module
    implements the handler-level core of the idea: protocol {e fragments}
    are independently written generators of header-validation code, and
    {!compose} splices any runtime-chosen stack of them — each at its
    cumulative header offset — into one downloadable handler that ends
    in a user-chosen action. Failed validation takes the voluntary-abort
    path, so composed handlers fall back to the user-level library
    exactly like the hand-written ones. *)

type fragment
(** One layer's header-validation code, emitted at the layer's base
    offset within the message; it branches to the handler's reject path
    when the layer does not match. *)

(* -- The fragment library (one routine per protocol, written once) ---- *)

val ipv4 : ?src_ip:int -> proto:int -> unit -> fragment
(** Validates the IPv4 version/IHL byte and the protocol field, and
    optionally pins the source address. 20-byte header. *)

val udp : dst_port:int -> fragment
(** Validates the UDP destination port. 8-byte header. *)

val tcp_ports : src_port:int -> dst_port:int -> fragment
(** Validates both TCP ports. 20-byte header. *)

val magic32 : int -> fragment
(** A 4-byte application preamble word (active-message style). *)

(** What the composed handler does with the payload once every layer has
    accepted. *)
type action =
  | Deposit of { dst_addr : int }
      (** Vector the payload to application memory with the trusted copy
          engine. *)
  | Deposit_dilp of { dilp_id : int; dst_addr : int }
      (** Vector it through a registered DILP transfer (payload length
          must be a multiple of 4 at runtime or the handler aborts). *)
  | Echo
      (** Reply with the payload (bounce the message back). *)
  | Consume
      (** Validate-and-drop (a counting/filtering endpoint). *)

val compose : name:string -> fragment list -> action -> Ash_vm.Program.t
(** Splice the fragments, in order, at their cumulative offsets, then
    the action, then [Commit]; any rejection becomes [Abort]. The result
    is ready for {!Ash_kern.Kernel.download_ash}. *)

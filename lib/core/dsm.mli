(** A miniature CRL-style distributed shared memory built on ASHs.

    §VII: "we have also found ASHs useful in another context: that of
    executing the software distributed shared memory actions of CRL for
    various parallel applications". This module is that usage pattern: a
    node exports segments; remote writes, reads, lock acquisitions and
    releases are all executed {e entirely inside the peer's kernel} by a
    single downloaded handler — the server application never wakes up.
    Reads reply with the data straight out of the exported segment
    (message initiation from application memory: zero server-side
    copies).

    Request format: [op(4) | seg(4) | off(4) | len/owner(4) | data...];
    replies are a 4-byte status (1 = ok, 0 = refused) except reads,
    which reply with the bytes themselves. Malformed or out-of-bounds
    requests take the handler's abort path and are dropped by the
    server's default handler (counted in its kernel stats). *)

type server

type client

val serve :
  Fabric.node -> vc:int -> segments:int -> segment_size:int -> server
(** Export [segments] segments of [segment_size] bytes each from
    [node], download the DSM handler (sandboxed), and bind it to AN2
    VC [vc]. [node] needs an AN2 board: host 0 of a {!Fabric.pair}
    serves in the tests and examples. The exporting application may be
    suspended; the handler does all the work. *)

val segment_addr : server -> seg:int -> int
(** Local address of an exported segment (for seeding/inspection). *)

val lock_holder : server -> seg:int -> int
(** Current holder id of the segment's lock, 0 when free. *)

val connect : Fabric.node -> vc:int -> client
(** Attach the client side on the peer node, host 1 of the pair (binds
    the same VC for replies). *)

(* All operations are asynchronous: the continuation fires when the
   reply arrives. Operations may be issued back to back; the channel
   preserves order. A request the handler rejects (bad opcode or bounds)
   produces no reply at all — the continuation never fires and later
   replies would mismatch, so clients must validate against the known
   segment geometry before sending, as CRL's trusted peers do. *)

val write :
  client -> seg:int -> off:int -> data:Bytes.t -> (bool -> unit) -> unit

val read :
  client -> seg:int -> off:int -> len:int -> (Bytes.t option -> unit) -> unit

val lock : client -> seg:int -> owner:int -> (bool -> unit) -> unit
(** Test-and-set acquisition: [false] means already held. [owner] must
    be nonzero. *)

val unlock : client -> seg:int -> (bool -> unit) -> unit

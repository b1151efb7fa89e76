(** CRC-32 (IEEE 802.3 polynomial), the link-level CRC of both NIC
    models. The paper's "in place, no checksum" configurations rely on
    the CRC computed by the AN2 board (§IV-D); [An2] and [Ethernet]
    stamp every frame with this CRC on transmit and verify it on
    receive, so those configurations still detect corruption in tests.

    On an x86-64 host with PCLMULQDQ and SSE4.1 (checked once, at
    start-up), a slice of 64 bytes or more is folded by carry-less
    multiplication over its largest 16-byte multiple, and a
    slicing-by-8 table loop finishes the 0–15-byte tail. That loop runs
    every shorter slice, and every slice on any other host. The value
    never depends on which path ran. *)

val digest : Bytes.t -> off:int -> len:int -> int32
(** CRC-32 of the given slice. Raises [Invalid_argument] on bad bounds. *)

val digest_string : string -> int32

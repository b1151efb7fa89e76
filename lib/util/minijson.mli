(** A minimal dependency-free JSON reader.

    Just enough to consume the JSON this repo writes and reads itself
    (telemetry exports, flight dumps, BENCHMARK.json, the end-to-end
    benchmark's results): objects, arrays, strings with the common
    escapes, numbers, bools, null. Not a validator — it accepts what we
    emit and rejects with a located error on anything it cannot parse. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** fields in document order *)

exception Parse_error of { pos : int; msg : string }

val parse : string -> t
(** Raises {!Parse_error} on malformed input or trailing garbage. *)

val parse_file : string -> t
(** {!parse} on a whole file's contents. *)

(** {1 Accessors} — total functions returning options. *)

val mem : string -> t -> t option
(** Field of an object, [None] otherwise. *)

val to_float : t -> float option
(** [Num]; also [Bool]/[Null] map to [None]. *)

val to_string : t -> string option
val to_list : t -> t list option
val to_obj : t -> (string * t) list option

val escape : string -> string
(** JSON string-body escaping the way our writers do it: quote,
    backslash and newline get their short forms, other control
    characters [\u00XX]. *)

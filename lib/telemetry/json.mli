(** A minimal self-contained JSON representation: construction, compact
    one-line serialization (the NDJSON sink emits one value per line) and a
    strict parser used by tests and [fecsynth trace check] to validate
    emitted traces.  No dependencies, no streaming — telemetry events are
    small. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(** [to_string j] is the compact (no whitespace, single line) rendering.
    Strings are escaped per RFC 8259; non-finite floats become [null]
    (JSON has no representation for them). *)
val to_string : t -> string

(** [of_string s] parses exactly one JSON value spanning the whole string.
    @raise Parse_error on malformed input or trailing garbage. *)
val of_string : string -> t

(** [member key j] is the value bound to [key] when [j] is an object. *)
val member : string -> t -> t option

val to_int : t -> int option
val to_float : t -> float option
val to_string_opt : t -> string option

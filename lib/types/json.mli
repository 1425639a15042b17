(** Minimal JSON tree, printer and parser.

    The bench harness, CLI and trace sinks all emit machine-readable
    output; this keeps the repository dependency-free (no yojson).
    Integers and floats are kept distinct so counters survive a
    round-trip exactly; floats print with enough digits to re-read to
    the same double.  Non-finite floats print as [null]. *)

exception Parse_error of string

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering. *)

val add : Buffer.t -> t -> unit
(** Appends the compact rendering to a buffer: {!to_string} without
    the string.  Integers go through {!add_int}. *)

val add_int : Buffer.t -> int -> unit
(** [add_int b n] appends [string_of_int n] to [b], digit by digit,
    with no string per integer. *)

val to_string_pretty : t -> string
(** Two-space-indented rendering. *)

val pp : Format.formatter -> t -> unit

val of_string : string -> t
(** @raise Parse_error on malformed input or trailing garbage. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on other constructors. *)

val to_int_opt : t -> int option

val to_float_opt : t -> float option
(** Accepts [Int] too (promoted). *)

val to_string_opt : t -> string option

val to_list_opt : t -> t list option

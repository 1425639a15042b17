(** Wire protocol of the persistent solver daemon.

    One JSON object per line in each direction (JSONL).  Literals
    travel as signed DIMACS integers (variable [v] is [v + 1], negated
    as [-(v + 1)]), matching every other external surface of the
    repository.

    Requests name an operation with ["op"], address a resident solver
    with ["session"], and may carry an ["id"] of any JSON shape that
    the response echoes verbatim (how a pipelining client matches
    responses).  Responses always carry ["ok"] — [true] with
    operation-specific payload fields, or [false] with a
    human-readable ["error"].

    See [docs/SERVER.md] for the full schema with examples. *)

open Berkmin_types

type command =
  | Open of { vars : int }
      (** create a session with [vars] initial variables *)
  | New_var of { count : int }  (** allocate [count] fresh variables *)
  | Add_clause of { lits : Lit.t list }
  | Add_clauses of { clauses : Lit.t list list }
      (** batched clause loading — one round-trip for a whole formula *)
  | Solve of {
      assumps : Lit.t list;
      max_conflicts : int option;  (** per-request conflict budget *)
      max_ms : float option;  (** per-request CPU budget, milliseconds *)
    }
  | Stats  (** live counters of the resident solver *)
  | Close  (** drop the session and its solver *)
  | Ping  (** liveness probe; needs no session *)
  | Shutdown  (** stop the daemon after responding; needs no session *)

type request = {
  id : Json.t option;  (** echoed into the response when present *)
  session : string option;
  command : command;
}

val parse : Json.t -> (request, string) result
(** Decodes a request object; [Error] is the message for the error
    response. *)

val parse_line : string -> (request, string) result
(** [parse] composed with JSON parsing. *)

val request_to_json : request -> Json.t
(** Re-encodes a request — the client side of the wire. *)

val op_name : command -> string
(** The ["op"] string of a command, as on the wire and in trace events. *)

val lit_of_dimacs_checked : int -> (Lit.t, string) result
(** Like {!Berkmin_types.Lit.of_dimacs} but returns [Error] on [0]
    instead of raising. *)

val ok : ?id:Json.t -> (string * Json.t) list -> Json.t
(** Success response: ["ok": true] plus payload fields, with the
    echoed ["id"] first when present. *)

val error : ?id:Json.t -> string -> Json.t
(** Failure response: ["ok": false, "error": message]. *)

val add_sat : Buffer.t -> ?id:Json.t -> bool array -> unit
(** [add_sat b ?id m] appends the SAT response for model [m] to [b]:
    the bytes of [Json.to_string (ok ?id ["status", String "sat";
    "model", List ...])], where variable [v] is [v + 1] if [m.(v)] and
    [-(v + 1)] otherwise.  The model is written by {!Json.add_int},
    with no {!Json.t} node per variable. *)

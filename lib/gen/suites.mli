(** The paper's twelve benchmark classes, regenerated synthetically.

    Sizes are scaled so the whole Table-1-style sweep finishes in
    minutes on one core (the paper's originals took hours on a 450 MHz
    UltraSPARC); see DESIGN.md section 3 for the class-by-class
    substitution table.  Names match Table 1. *)

val class_names : string list
(** The twelve class names in Table 1's order; listing them builds no
    formula. *)

val all : unit -> (string * Instance.t list) list
(** The twelve classes in Table 1's order. *)

val quick : unit -> (string * Instance.t list) list
(** A cut-down sweep (a few easy classes) for smoke runs. *)

val hard_instances : unit -> Instance.t list
(** The single hard instances used by Tables 3, 8, 9 and 10: one
    representative per hard class, ordered as the paper's
    miter/hanoi/beijing/fvp list. *)

val fuzz_seeds : max_vars:int -> Instance.t list
(** Small structured instances (at most [max_vars] variables) with
    known verdicts — pigeonholes, parity cycles, colorings, queens —
    used as mutation bases by the differential fuzzer ([lib/fuzz]). *)

val find_class : string -> Instance.t list
(** The instances of one class, generating only that class.
    @raise Not_found for an unknown class name. *)

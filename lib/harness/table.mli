(** Plain-text table rendering for the experiment reports. *)

type align =
  | Left
  | Right

val render :
  header:string list -> ?aligns:align list -> string list list -> string
(** Pads columns to the widest cell; default alignment is Left for the
    first column and Right for the rest. *)

val print :
  header:string list -> ?aligns:align list -> string list list -> unit

val to_json :
  header:string list -> string list list -> Berkmin_types.Json.t
(** The same table as [{"header": [...], "rows": [[...]]}] — the
    machine-readable twin of {!print}. *)

val seconds : float -> string
(** Two-decimal rendering, e.g. ["12.34"]. *)

val penalized : float -> int -> penalty:float -> float
(** [penalized total aborted ~penalty] is [total] plus [penalty] per
    aborted instance: the paper's "lower number plus 60,000 times the
    number of aborted" rule, and the value {!seconds_aborted} prints. *)

val seconds_aborted : float -> int -> penalty:float -> string
(** The paper's abort notation: ["12.30"] with no aborts,
    ["> 132.30 (2)"] ({!penalized}) otherwise. *)

val ratio : float -> string
(** e.g. ["2.40"]. *)

val section : string -> unit
(** Prints an underlined section heading. *)

(** Drivers regenerating every table and figure of the paper's
    evaluation.  Each prints a paper-shaped plain-text table (and a
    note recalling what the paper reported, so shape can be compared
    at a glance).  [run_all] is what [bench/main.exe] calls. *)

type opts = {
  budget : Berkmin.Solver.budget;  (** per instance, sweep tables *)
  hard_budget : Berkmin.Solver.budget;
      (** per instance for the hard-instance tables (3, 7–10) *)
  abort_penalty : float;
      (** seconds charged per abort in "> total (n)" rows *)
}

val default_opts : opts

val quick_opts : opts
(** Small budgets for smoke runs. *)

val table1 : opts -> unit
(** Sensitivity of decision-making: berkmin vs less_sensitivity. *)

val table2 : opts -> unit
(** Mobility: berkmin vs less_mobility. *)

val table3 : opts -> unit
(** Skin effect: f(r) histograms on five hard instances. *)

val table4 : opts -> unit
(** Branch selection: berkmin vs sat_top/unsat_top/take_0/1/rand. *)

val table5 : opts -> unit
(** Database management: berkmin vs limited_keeping. *)

val table6 : opts -> unit
(** BerkMin vs Chaff on the comparable classes. *)

val table7 : opts -> unit
(** BerkMin vs Chaff on the classes where BerkMin dominates. *)

val table8 : opts -> unit
(** Per-instance decision counts and runtimes. *)

val table9 : opts -> unit
(** Database-size ratios. *)

val table10 : opts -> unit
(** Competition-style robustness: solved counts under a hard budget
    for berkmin / chaff / limmat_like. *)

val figure1 : opts -> unit
(** Cone-mobility demonstration: how quickly decisions migrate into a
    gated cone once its control input switches, berkmin vs
    less_mobility. *)

val run_all : opts -> unit
(** All the paper experiments (tables 1–10 and figure 1). *)

val run_extensions : opts -> unit
(** The ablation sweeps beyond the paper: restart strategies
    (conclusions), top-clause window (Remark 2), learnt-clause
    minimization, database-management and activity-aging constants. *)

val run_one : opts -> string -> bool
(** [run_one opts name] with [name] one of {!names}; returns [false]
    for an unknown name. *)

val names : string list
(** ["table1" .. "table10", "figure1", "ext-restarts", "ext-window",
    "ext-minimize", "ext-dbparams", "ext-decay"]. *)

val reset_json : unit -> unit
(** Clears the machine-readable log the experiment drivers append to. *)

val collected_json : unit -> (string * Berkmin_types.Json.t) list
(** [(experiment name, JSON twin of its printed table)] pairs for every
    experiment run since the last {!reset_json}, in run order.  The
    text output above stays the human-facing report; this is the same
    data for tooling. *)

(** Drivers regenerating every table and figure of the paper's
    evaluation.  Each prints a paper-shaped plain-text table (and a
    note recalling what the paper reported, so shape can be compared
    at a glance) and returns the same data as its JSON twin.  One
    {!run} solves each (configuration, instance, budget) once, however
    many tables show it, so a column that several tables share prints
    the same numbers in each.  [bench/main.exe] calls {!run}. *)

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

val names : string list
(** ["table1" .. "table10", "figure1", "ext-restarts", "ext-window",
    "ext-minimize", "ext-dbparams", "ext-decay"]. *)

val paper_names : string list
(** The paper's experiments, ["table1" .. "table10", "figure1"]; the
    rest of {!names} are ablations beyond the paper: restart strategies
    (conclusions), top-clause window (Remark 2), learnt-clause
    minimization, database-management and activity-aging constants. *)

val run :
  opts ->
  string list ->
  (string * Berkmin_types.Json.t) list
  * (Berkmin.Config.t * Runner.outcome) list
(** [run opts names] runs the named experiments in order, printing
    each table, and returns [(name, JSON twin)] for each, in that
    order, with every run whose [correct] is false and the
    configuration that made it.  Figure 1 solves on its own (it
    watches decisions as they happen); every other table reads one
    run set.
    @raise Invalid_argument for a name not in {!names}, before
    anything is solved. *)

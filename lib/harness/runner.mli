(** Runs solver configurations over benchmark instances and collects
    per-run records — the machinery shared by every table. *)

open Berkmin_gen

type verdict =
  | V_sat
  | V_unsat
  | V_aborted  (** budget exhausted, the paper's ">" rows *)

type outcome = {
  instance_name : string;
  expected : Instance.expected;
  verdict : verdict;
  correct : bool;
      (** model verified / verdict consistent with the expectation *)
  seconds : float;  (** CPU seconds *)
  initial_clauses : int;
  stats : Berkmin.Stats.t;  (** a frozen copy of the run's counters *)
}

val verdict_to_string : verdict -> string

val verdict_of_result : Berkmin.Solver.result -> verdict

val outcome_to_json : outcome -> Berkmin_types.Json.t
(** One instance run as a JSON object: name, expectation, verdict,
    time, conflicts/decisions/propagations, props/sec (also under the
    long alias ["propagations_per_sec"]), the work, sharing, GC and
    simplifier counters picked by name from {!Berkmin.Stats.counters},
    database numbers and the trimmed skin histogram. *)

val run_instance :
  ?budget:Berkmin.Solver.budget -> Berkmin.Config.t -> Instance.t -> outcome
(** Runs one instance; SAT models are re-verified against the formula. *)

val run_instance_streamed :
  ?budget:Berkmin.Solver.budget ->
  Berkmin.Config.t ->
  Instance.t ->
  outcome * int
(** Runs one instance through the streaming bulk-load path: the formula
    is serialized to DIMACS text and the solver built with
    {!Berkmin.Solver.load_string} instead of [create].  Returns the
    outcome, named ["stream/<name>"] so a summary can hold both lanes,
    and the size of the DIMACS text in bytes; SAT models are re-verified
    against the original formula.  The differential against
    {!run_instance} is what keeps the fast path honest in CI. *)

val run_instance_portfolio :
  ?budget:Berkmin.Solver.budget ->
  workers:int ->
  ?share:bool ->
  Berkmin.Config.t ->
  Instance.t ->
  outcome * Berkmin_portfolio.Portfolio.outcome
(** Runs one instance as a race of [workers] diversified configurations
    built from [config] ({!Berkmin_portfolio.Portfolio.solve_config},
    learnt-clause sharing per [share], default on), returning both the
    usual flattened outcome (counters come from the winning worker;
    [seconds] is the race's {e wall} clock, not CPU time) and the full
    per-worker race record.  With [workers = 1] this is {!run_instance}
    modulo the wall/CPU clock difference. *)

type class_result = {
  class_name : string;
  outcomes : outcome list;
  total_seconds : float;
  aborted : int;
  wrong : int;  (** verdicts contradicting expectations: must be 0 *)
}

val class_of_outcomes : string -> outcome list -> class_result
(** Totals the outcomes of one class's instances. *)

val adjusted_seconds : penalty:float -> class_result -> float
(** Total time with [penalty] added per aborted instance — the paper's
    "lower number plus 60,000 times the number of aborted" rows. *)

val class_result_to_json : class_result -> Berkmin_types.Json.t

val default_budget : Berkmin.Solver.budget
(** 500k conflicts or 60 CPU seconds per instance. *)

val quick_budget : Berkmin.Solver.budget
(** 50k conflicts or 10 CPU seconds, for smoke runs. *)

val fuzz_budget : Berkmin.Solver.budget
(** 20k conflicts and no wall-clock component: the differential
    fuzzer's ([lib/fuzz]) CDCL budget must be deterministic, so time
    never enters it. *)

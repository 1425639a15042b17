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
  conflicts : int;
  decisions : int;
  propagations : int;
  binary_propagations : int;
      (** literals implied straight from the binary implication index *)
  watcher_visits : int;  (** watcher pairs examined by BCP *)
  blocker_hits : int;  (** visits short-circuited by a true blocker *)
  top_cursor_steps : int;  (** learnt-stack entries the decision cursor read *)
  nb_two_cache_hits : int;  (** memoized nb_two neighbourhood lookups *)
  clauses_exported : int;
      (** learnt clauses this solver exported to portfolio peers; 0 in
          sequential runs *)
  clauses_imported : int;  (** foreign learnt clauses adopted; 0 sequential *)
  imports_used_in_conflict : int;
      (** conflict analyses in which an imported clause was an
          antecedent — how often sharing actually steered the search *)
  gc_runs : int;  (** arena compactions *)
  gc_reclaimed_bytes : int;  (** clause bytes physically reclaimed *)
  simplify_runs : int;  (** simplifier passes (lib/simplify) *)
  simplified_clauses : int;
      (** clauses removed by the simplifier: subsumed, satisfied, or
          resolved away during variable elimination *)
  eliminated_vars : int;  (** variables removed by bounded elimination *)
  subsumed : int;  (** clauses dropped by backward subsumption *)
  strengthened : int;
      (** literals removed by self-subsuming resolution *)
  failed_literals : int;  (** level-0 probes that failed (forced units) *)
  learnt_total : int;
  max_live_clauses : int;
  initial_clauses : int;
  skin : int array;  (** Table 3 histogram *)
}

val verdict_to_string : verdict -> string

val verdict_of_result : Berkmin.Solver.result -> verdict

val props_per_sec : outcome -> float
(** Propagations per second of the run; 0 for zero-length runs. *)

val outcome_to_json : outcome -> Berkmin_types.Json.t
(** One instance run as a JSON object: name, expectation, verdict,
    time, conflicts/decisions/propagations, props/sec (also under the
    long alias ["propagations_per_sec"]), watcher/blocker and GC
    counters, database numbers and the trimmed skin histogram. *)

val run_instance :
  ?budget:Berkmin.Solver.budget -> Berkmin.Config.t -> Instance.t -> outcome
(** Runs one instance; SAT models are re-verified against the formula. *)

type load_info = {
  load_seconds : float;  (** [Solver.load] wall clock: parse + bulk load *)
  load_clauses : int;  (** clauses the bulk path streamed in *)
  load_literals : int;  (** literals the bulk path streamed in *)
  load_scratch_words : int;  (** final streaming scratch capacity *)
  source_bytes : int;  (** DIMACS size, serialized text or file *)
}

val run_instance_streamed :
  ?budget:Berkmin.Solver.budget ->
  Berkmin.Config.t ->
  Instance.t ->
  outcome * load_info
(** Runs one instance through the streaming bulk-load path: the formula
    is serialized to DIMACS text and the solver built with
    {!Berkmin.Solver.load_string} instead of [create].  The outcome is
    named ["stream/<name>"] so a summary can hold both lanes; SAT
    models are re-verified against the original formula.  The
    differential against {!run_instance} is what keeps the fast path
    honest in CI. *)

val run_instance_portfolio :
  ?budget:Berkmin.Solver.budget ->
  Berkmin.Config.t ->
  Instance.t ->
  outcome * Berkmin_portfolio.Portfolio.outcome
(** Runs one instance as a process-parallel portfolio race built from
    the configuration's {!Berkmin.Config.t.workers} knobs, returning
    both the usual flattened outcome (counters come from the winning
    worker; [seconds] is the race's {e wall} clock, not CPU time) and
    the full per-worker race record.  With [workers = 1] this is
    {!run_instance} modulo the wall/CPU clock difference. *)

type class_result = {
  class_name : string;
  outcomes : outcome list;
  total_seconds : float;
  aborted : int;
  wrong : int;  (** verdicts contradicting expectations: must be 0 *)
}

val run_class :
  ?budget:Berkmin.Solver.budget ->
  Berkmin.Config.t ->
  string ->
  Instance.t list ->
  class_result

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

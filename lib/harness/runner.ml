open Berkmin_types
open Berkmin_gen

type verdict =
  | V_sat
  | V_unsat
  | V_aborted

type outcome = {
  instance_name : string;
  expected : Instance.expected;
  verdict : verdict;
  correct : bool;
  seconds : float;
  conflicts : int;
  decisions : int;
  propagations : int;
  binary_propagations : int;
  watcher_visits : int;
  blocker_hits : int;
  top_cursor_steps : int;
  nb_two_cache_hits : int;
  clauses_exported : int;
  clauses_imported : int;
  imports_used_in_conflict : int;
  gc_runs : int;
  gc_reclaimed_bytes : int;
  simplify_runs : int;
  simplified_clauses : int;
  eliminated_vars : int;
  subsumed : int;
  strengthened : int;
  failed_literals : int;
  learnt_total : int;
  max_live_clauses : int;
  initial_clauses : int;
  skin : int array;
}

let verdict_to_string = function
  | V_sat -> "SAT"
  | V_unsat -> "UNSAT"
  | V_aborted -> "aborted"

let verdict_of_result = function
  | Berkmin.Solver.Sat _ -> V_sat
  | Berkmin.Solver.Unsat -> V_unsat
  | Berkmin.Solver.Unknown -> V_aborted

(* A SAT model must satisfy the formula, and a decided verdict must
   not contradict the instance's expectation; an abort claims nothing. *)
let is_correct inst = function
  | Berkmin.Solver.Sat model ->
    Cnf.satisfied_by inst.Instance.cnf model
    && Instance.consistent inst ~sat:true
  | Berkmin.Solver.Unsat -> Instance.consistent inst ~sat:false
  | Berkmin.Solver.Unknown -> true

let props_per_sec o =
  if o.seconds <= 0.0 then 0.0
  else float_of_int o.propagations /. o.seconds

let outcome_to_json o =
  let skin_trimmed =
    let last = ref (-1) in
    Array.iteri (fun i n -> if n > 0 then last := i) o.skin;
    List.init (!last + 1) (fun i -> Json.Int o.skin.(i))
  in
  Json.Obj
    [
      "instance", Json.String o.instance_name;
      "expected", Json.String (Instance.expected_to_string o.expected);
      "verdict", Json.String (verdict_to_string o.verdict);
      "correct", Json.Bool o.correct;
      "seconds", Json.Float o.seconds;
      "conflicts", Json.Int o.conflicts;
      "decisions", Json.Int o.decisions;
      "propagations", Json.Int o.propagations;
      "binary_propagations", Json.Int o.binary_propagations;
      "props_per_sec", Json.Float (props_per_sec o);
      "propagations_per_sec", Json.Float (props_per_sec o);
      "watcher_visits", Json.Int o.watcher_visits;
      "blocker_hits", Json.Int o.blocker_hits;
      "top_cursor_steps", Json.Int o.top_cursor_steps;
      "nb_two_cache_hits", Json.Int o.nb_two_cache_hits;
      "clauses_exported", Json.Int o.clauses_exported;
      "clauses_imported", Json.Int o.clauses_imported;
      "imports_used_in_conflict", Json.Int o.imports_used_in_conflict;
      "gc_runs", Json.Int o.gc_runs;
      "gc_reclaimed_bytes", Json.Int o.gc_reclaimed_bytes;
      "simplify_runs", Json.Int o.simplify_runs;
      "simplified_clauses", Json.Int o.simplified_clauses;
      "eliminated_vars", Json.Int o.eliminated_vars;
      "subsumed", Json.Int o.subsumed;
      "strengthened", Json.Int o.strengthened;
      "failed_literals", Json.Int o.failed_literals;
      "learnt_total", Json.Int o.learnt_total;
      "max_live_clauses", Json.Int o.max_live_clauses;
      "initial_clauses", Json.Int o.initial_clauses;
      "skin", Json.List skin_trimmed;
    ]

let default_budget =
  { Berkmin.Solver.max_conflicts = Some 500_000; max_seconds = Some 60.0 }

let quick_budget =
  { Berkmin.Solver.max_conflicts = Some 50_000; max_seconds = Some 10.0 }

let fuzz_budget =
  (* Conflict-only: the differential fuzzer's runs must be bit-identical
     for a given seed, so wall-clock time never enters its budget. *)
  { Berkmin.Solver.max_conflicts = Some 20_000; max_seconds = None }

let outcome_of_stats ~name inst result ~seconds ~initial_clauses st =
  {
    instance_name = name;
    expected = inst.Instance.expected;
    verdict = verdict_of_result result;
    correct = is_correct inst result;
    seconds;
    conflicts = st.Berkmin.Stats.conflicts;
    decisions = st.Berkmin.Stats.decisions;
    propagations = st.Berkmin.Stats.propagations;
    binary_propagations = st.Berkmin.Stats.binary_propagations;
    watcher_visits = st.Berkmin.Stats.watcher_visits;
    blocker_hits = st.Berkmin.Stats.blocker_hits;
    top_cursor_steps = st.Berkmin.Stats.top_cursor_steps;
    nb_two_cache_hits = st.Berkmin.Stats.nb_two_cache_hits;
    clauses_exported = st.Berkmin.Stats.clauses_exported;
    clauses_imported = st.Berkmin.Stats.clauses_imported;
    imports_used_in_conflict = st.Berkmin.Stats.imports_used_in_conflict;
    gc_runs = st.Berkmin.Stats.gc_runs;
    gc_reclaimed_bytes = st.Berkmin.Stats.gc_reclaimed_bytes;
    simplify_runs = st.Berkmin.Stats.simplify_runs;
    simplified_clauses = st.Berkmin.Stats.simplified_clauses;
    eliminated_vars = st.Berkmin.Stats.eliminated_vars;
    subsumed = st.Berkmin.Stats.subsumed;
    strengthened = st.Berkmin.Stats.strengthened;
    failed_literals = st.Berkmin.Stats.failed_literals;
    learnt_total = st.Berkmin.Stats.learnt_total;
    max_live_clauses = st.Berkmin.Stats.max_live_clauses;
    initial_clauses;
    skin = Array.copy st.Berkmin.Stats.skin;
  }

(* Solves [inst] on a solver already built from it; [seconds] is the
   search's CPU time. *)
let solve_built ~budget ~name inst solver =
  let started = Sys.time () in
  let result = Berkmin.Solver.solve ~budget solver in
  let seconds = Sys.time () -. started in
  outcome_of_stats ~name inst result ~seconds
    ~initial_clauses:(Berkmin.Solver.num_original_clauses solver)
    (Berkmin.Solver.stats solver)

let run_instance ?(budget = default_budget) config inst =
  solve_built ~budget ~name:inst.Instance.name inst
    (Berkmin.Solver.create ~config inst.Instance.cnf)

(* ------------------------------------------------------------------ *)
(* Streaming-load lane: the same outcome record, built from a solver
   constructed through [Berkmin.Solver.load] (the bulk path that
   consumes DIMACS without ever materializing a [Cnf.t]).  The
   [load_info] sidecar carries the load timing and counters the
   outcome record has no room for.                                     *)

module Dimacs = Berkmin_dimacs.Dimacs

type load_info = {
  load_seconds : float;
  load_clauses : int;
  load_literals : int;
  load_scratch_words : int;
  source_bytes : int;
}

let run_instance_streamed ?(budget = default_budget) config inst =
  let text = Dimacs.to_string inst.Instance.cnf in
  let solver = Berkmin.Solver.load_string ~config text in
  let outcome =
    solve_built ~budget ~name:("stream/" ^ inst.Instance.name) inst solver
  in
  let st = Berkmin.Solver.stats solver in
  ( outcome,
    {
      load_seconds = st.Berkmin.Stats.time_load;
      load_clauses = st.Berkmin.Stats.load_clauses;
      load_literals = st.Berkmin.Stats.load_literals;
      load_scratch_words = st.Berkmin.Stats.load_scratch_words;
      source_bytes = String.length text;
    } )

(* ------------------------------------------------------------------ *)
(* Portfolio runs: the same outcome record, built from the winning
   worker of a process-parallel race (lib/portfolio).  [seconds] is
   the race's wall clock — the quantity a portfolio improves — where
   sequential outcomes report CPU time.                                *)

module Portfolio = Berkmin_portfolio.Portfolio

let run_instance_portfolio ?(budget = default_budget) config inst =
  let cnf = inst.Instance.cnf in
  let p = Portfolio.solve_config ~budget config cnf in
  let winner_stats =
    let find i =
      List.find_opt (fun w -> w.Portfolio.w_index = i) p.Portfolio.workers
    in
    match Option.bind p.Portfolio.winner find with
    | Some w -> w.Portfolio.w_stats
    | None ->
      (* no winner: report the busiest surviving worker's counters so
         aborted rows still show how much search happened *)
      List.fold_left
        (fun acc w ->
          match acc, w.Portfolio.w_stats with
          | None, s -> s
          | Some a, Some s when s.Berkmin.Stats.conflicts > a.Berkmin.Stats.conflicts ->
            Some s
          | acc, _ -> acc)
        None p.Portfolio.workers
  in
  let st =
    match winner_stats with Some s -> s | None -> Berkmin.Stats.create ()
  in
  let outcome =
    outcome_of_stats ~name:inst.Instance.name inst p.Portfolio.result
      ~seconds:p.Portfolio.wall_seconds ~initial_clauses:(Cnf.num_clauses cnf)
      st
  in
  (outcome, p)

type class_result = {
  class_name : string;
  outcomes : outcome list;
  total_seconds : float;
  aborted : int;
  wrong : int;
}

let run_class ?budget config class_name instances =
  let outcomes = List.map (run_instance ?budget config) instances in
  {
    class_name;
    outcomes;
    total_seconds = List.fold_left (fun a o -> a +. o.seconds) 0.0 outcomes;
    aborted =
      List.length (List.filter (fun o -> o.verdict = V_aborted) outcomes);
    wrong = List.length (List.filter (fun o -> not o.correct) outcomes);
  }

let adjusted_seconds ~penalty r =
  r.total_seconds +. (penalty *. float_of_int r.aborted)

let class_result_to_json r =
  Json.Obj
    [
      "class", Json.String r.class_name;
      "total_seconds", Json.Float r.total_seconds;
      "aborted", Json.Int r.aborted;
      "wrong", Json.Int r.wrong;
      "instances", Json.List (List.map outcome_to_json r.outcomes);
    ]

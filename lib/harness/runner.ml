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
  initial_clauses : int;
  stats : Berkmin.Stats.t;
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

(* The counters of an outcome's JSON row, split around the rate. *)
let leading_counters =
  Berkmin.Stats.select
    [ "conflicts"; "decisions"; "propagations"; "binary_propagations" ]

let trailing_counters =
  Berkmin.Stats.select
    [
      "watcher_visits"; "blocker_hits"; "top_cursor_steps";
      "nb_two_cache_hits"; "clauses_exported"; "clauses_imported";
      "imports_used_in_conflict"; "gc_runs"; "gc_reclaimed_bytes";
      "simplify_runs"; "simplified_clauses"; "eliminated_vars"; "subsumed";
      "strengthened"; "failed_literals"; "learnt_total"; "max_live_clauses";
    ]

let outcome_to_json o =
  let rate =
    Json.Float (Berkmin.Stats.props_per_sec o.stats ~seconds:o.seconds)
  in
  Json.Obj
    ([
       "instance", Json.String o.instance_name;
       "expected", Json.String (Instance.expected_to_string o.expected);
       "verdict", Json.String (verdict_to_string o.verdict);
       "correct", Json.Bool o.correct;
       "seconds", Json.Float o.seconds;
     ]
    @ leading_counters o.stats
    @ [ "props_per_sec", rate; "propagations_per_sec", rate ]
    @ trailing_counters o.stats
    @ [
        "initial_clauses", Json.Int o.initial_clauses;
        "skin", Berkmin.Stats.skin_to_json o.stats;
      ])

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
    initial_clauses;
    stats = Berkmin.Stats.copy st;
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
   consumes DIMACS without ever materializing a [Cnf.t]).              *)

module Dimacs = Berkmin_dimacs.Dimacs

let run_instance_streamed ?(budget = default_budget) config inst =
  let text = Dimacs.to_string inst.Instance.cnf in
  let solver = Berkmin.Solver.load_string ~config text in
  ( solve_built ~budget ~name:("stream/" ^ inst.Instance.name) inst solver,
    String.length text )

(* ------------------------------------------------------------------ *)
(* Portfolio runs: the same outcome record, built from the winning
   worker of a process-parallel race (lib/portfolio).  [seconds] is
   the race's wall clock — the quantity a portfolio improves — where
   sequential outcomes report CPU time.                                *)

module Portfolio = Berkmin_portfolio.Portfolio

let run_instance_portfolio ?(budget = default_budget) ~workers ?share config
    inst =
  let cnf = inst.Instance.cnf in
  let p = Portfolio.solve_config ~budget ~workers ?share config cnf in
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

let class_of_outcomes class_name outcomes =
  {
    class_name;
    outcomes;
    total_seconds = List.fold_left (fun a o -> a +. o.seconds) 0.0 outcomes;
    aborted =
      List.length (List.filter (fun o -> o.verdict = V_aborted) outcomes);
    wrong = List.length (List.filter (fun o -> not o.correct) outcomes);
  }

let class_result_to_json r =
  Json.Obj
    [
      "class", Json.String r.class_name;
      "total_seconds", Json.Float r.total_seconds;
      "aborted", Json.Int r.aborted;
      "wrong", Json.Int r.wrong;
      "instances", Json.List (List.map outcome_to_json r.outcomes);
    ]

(* Engine-level tests: trivial formulas, unit propagation, every
   configuration preset on instances with known verdicts, budgets and
   resume, determinism, statistics, DPLL oracle, Luby, bulk load and
   clause intake. *)

open Berkmin_types
module Solver = Berkmin.Solver
module Config = Berkmin.Config
module Instance = Berkmin_gen.Instance

let check = Alcotest.check

let cnf_of lists =
  let cnf = Cnf.create () in
  List.iter (fun c -> Cnf.add_clause cnf (List.map Lit.of_dimacs c)) lists;
  cnf

let is_sat = function Solver.Sat _ -> true | Solver.Unsat | Solver.Unknown -> false
let is_unsat = function Solver.Unsat -> true | Solver.Sat _ | Solver.Unknown -> false

let solve_lists ?config lists = Solver.solve_cnf ?config (cnf_of lists)

(* ------------------------------------------------------------------ *)
(* Trivia                                                              *)

let test_empty_formula () =
  check Alcotest.bool "no clauses: SAT" true (is_sat (solve_lists []))

let test_empty_clause () =
  check Alcotest.bool "empty clause: UNSAT" true (is_unsat (solve_lists [ [] ]))

let test_single_unit () =
  match solve_lists [ [ 1 ] ] with
  | Solver.Sat m -> check Alcotest.bool "x=true" true m.(0)
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "expected SAT"

let test_contradicting_units () =
  check Alcotest.bool "x & ~x" true (is_unsat (solve_lists [ [ 1 ]; [ -1 ] ]))

let test_tautology_ignored () =
  check Alcotest.bool "taut alone" true (is_sat (solve_lists [ [ 1; -1 ] ]));
  check Alcotest.bool "taut + unsat core" true
    (is_unsat (solve_lists [ [ 1; -1 ]; [ 2 ]; [ -2 ] ]))

let test_duplicate_literals () =
  match solve_lists [ [ 1; 1; 1 ]; [ -1; 2; 2 ] ] with
  | Solver.Sat m ->
    check Alcotest.bool "x" true m.(0);
    check Alcotest.bool "y" true m.(1)
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "expected SAT"

let test_chain_propagation () =
  let lists = [ 1 ] :: List.init 9 (fun i -> [ -(i + 1); i + 2 ]) in
  let cnf = cnf_of lists in
  let s = Solver.create cnf in
  (match Solver.solve s with
  | Solver.Sat m -> Array.iter (fun b -> check Alcotest.bool "forced" true b) m
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "expected SAT");
  check Alcotest.int "no conflicts" 0 (Solver.stats s).Berkmin.Stats.conflicts

let test_paper_example () =
  (* The BCP example of Section 2: F = (a|~b)(b|~c|y)(c|~d|x)(c|d) with
     x=0, y=0 forced; branching a=0 reproduces the paper's conflict, so
     any model has a=1 — and the formula is satisfiable. *)
  let lists =
    [ [ 1; -2 ]; [ 2; -3; 5 ]; [ 3; -4; 6 ]; [ 3; 4 ]; [ -5 ]; [ -6 ] ]
  in
  match solve_lists lists with
  | Solver.Sat m ->
    (* c must be 1: from (c|~d|x), (c|d) with x=0, refuting c=0. *)
    check Alcotest.bool "c must be 1" true m.(2)
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "expected SAT"

let test_value_of () =
  let cnf = cnf_of [ [ 1 ]; [ -1; 2 ] ] in
  let s = Solver.create cnf in
  ignore (Solver.solve s);
  check Alcotest.bool "v0 true" true (Value.equal (Solver.value_of s 0) Value.True);
  check Alcotest.bool "v1 true" true (Value.equal (Solver.value_of s 1) Value.True)

let test_gap_variables () =
  (* Variables mentioned nowhere still get total-model values. *)
  let cnf = Cnf.create ~num_vars:10 () in
  Cnf.add_clause cnf [ Lit.pos 9 ];
  match Solver.solve_cnf cnf with
  | Solver.Sat m ->
    check Alcotest.int "model covers all vars" 10 (Array.length m);
    check Alcotest.bool "constrained var" true m.(9)
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "expected SAT"

(* ------------------------------------------------------------------ *)
(* Every preset must be a correct solver.                              *)

let known_instances () =
  [
    Berkmin_gen.Pigeonhole.instance 5 5;
    Berkmin_gen.Pigeonhole.instance 6 5;
    Berkmin_gen.Hanoi.sat_instance 3;
    Berkmin_gen.Hanoi.unsat_instance 3;
    Berkmin_gen.Blocksworld.sat_instance 3;
    Berkmin_gen.Blocksworld.unsat_instance 3;
    Berkmin_gen.Parity.chain_instance ~num_vars:24 ~extra:12 ~seed:5;
    Instance.make "cycle12" Instance.Expect_unsat
      (Berkmin_gen.Parity.inconsistent_cycle ~num_vars:12);
    Berkmin_gen.Graph_coloring.clique_instance 5 ~colors:5;
    Berkmin_gen.Graph_coloring.clique_instance 5 ~colors:4;
    Berkmin_gen.Circuit_bench.adder_miter ~width:5;
    Berkmin_gen.Parity.tseitin_instance ~num_vars:8 ~degree:3 ~seed:2;
  ]

let run_preset_on name config inst =
  let cnf = inst.Instance.cnf in
  match Solver.solve_cnf ~config cnf with
  | Solver.Sat m ->
    if not (Cnf.satisfied_by cnf m) then
      Alcotest.fail (Printf.sprintf "%s: bad model on %s" name inst.Instance.name);
    if not (Instance.consistent inst ~sat:true) then
      Alcotest.fail
        (Printf.sprintf "%s: SAT but expected UNSAT on %s" name inst.Instance.name)
  | Solver.Unsat ->
    if not (Instance.consistent inst ~sat:false) then
      Alcotest.fail
        (Printf.sprintf "%s: UNSAT but expected SAT on %s" name inst.Instance.name)
  | Solver.Unknown ->
    Alcotest.fail (Printf.sprintf "%s: unexpected Unknown on %s" name inst.Instance.name)

let preset_cases =
  List.map
    (fun (name, config) ->
      Alcotest.test_case name `Quick (fun () ->
          List.iter (run_preset_on name config) (known_instances ())))
    Config.presets

(* ------------------------------------------------------------------ *)
(* Budgets and resume                                                  *)

let hard_unsat () = Berkmin_gen.Pigeonhole.php 8 7

let test_conflict_budget () =
  let s = Solver.create (hard_unsat ()) in
  match Solver.solve ~budget:(Solver.budget_conflicts 50) s with
  | Solver.Unknown ->
    check Alcotest.bool "stopped near budget" true
      ((Solver.stats s).Berkmin.Stats.conflicts >= 50)
  | Solver.Sat _ | Solver.Unsat -> Alcotest.fail "php(8,7) needs > 50 conflicts"

let test_resume_after_unknown () =
  let s = Solver.create (hard_unsat ()) in
  (match Solver.solve ~budget:(Solver.budget_conflicts 50) s with
  | Solver.Unknown -> ()
  | Solver.Sat _ | Solver.Unsat -> Alcotest.fail "expected Unknown first");
  match Solver.solve s with
  | Solver.Unsat -> ()
  | Solver.Sat _ | Solver.Unknown -> Alcotest.fail "resumed run must finish UNSAT"

let test_verdict_cached () =
  let s = Solver.create (cnf_of [ [ 1 ] ]) in
  let r1 = Solver.solve s in
  let r2 = Solver.solve s in
  check Alcotest.bool "same result object" true (r1 == r2 || (is_sat r1 && is_sat r2))

let test_time_budget () =
  let s = Solver.create (Berkmin_gen.Pigeonhole.php 11 10) in
  let budget = { Solver.max_conflicts = None; max_seconds = Some 0.2 } in
  let t0 = Sys.time () in
  (match Solver.solve ~budget s with
  | Solver.Unknown -> ()
  | Solver.Sat _ | Solver.Unsat -> Alcotest.fail "php(11,10) in 0.2s is implausible");
  let elapsed = Sys.time () -. t0 in
  check Alcotest.bool "stopped promptly" true (elapsed < 5.0)

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)

let run_stats config cnf =
  let s = Solver.create ~config cnf in
  ignore (Solver.solve s);
  let st = Solver.stats s in
  (st.Berkmin.Stats.decisions, st.Berkmin.Stats.conflicts,
   st.Berkmin.Stats.propagations)

let test_deterministic_runs () =
  let cnf = Berkmin_gen.Pigeonhole.php 7 6 in
  let a = run_stats Config.berkmin cnf in
  let b = run_stats Config.berkmin cnf in
  check (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int)
    "identical runs" a b

let test_seed_changes_run () =
  (* take_random flips coins, so a different seed should give a
     different trace on a nontrivial instance. *)
  let cnf = Berkmin_gen.Pigeonhole.php 7 6 in
  let a = run_stats { Config.take_random with seed = 1 } cnf in
  let b = run_stats { Config.take_random with seed = 2 } cnf in
  check Alcotest.bool "different seeds diverge" true (a <> b)

(* ------------------------------------------------------------------ *)
(* Statistics and database behaviour                                   *)

let test_stats_sanity () =
  let cnf = Berkmin_gen.Pigeonhole.php 7 6 in
  let s = Solver.create cnf in
  ignore (Solver.solve s);
  let st = Solver.stats s in
  check Alcotest.bool "decisions > 0" true (st.Berkmin.Stats.decisions > 0);
  check Alcotest.bool "conflicts > 0" true (st.Berkmin.Stats.conflicts > 0);
  check Alcotest.bool "learnt > 0" true (st.Berkmin.Stats.learnt_total > 0);
  check Alcotest.bool "peak >= initial" true
    (st.Berkmin.Stats.max_live_clauses >= Solver.num_original_clauses s);
  check Alcotest.int "decision split adds up" st.Berkmin.Stats.decisions
    (st.Berkmin.Stats.top_clause_decisions + st.Berkmin.Stats.global_decisions)

let test_restarts_and_reductions_happen () =
  let cnf = Berkmin_gen.Pigeonhole.php 8 7 in
  let s = Solver.create cnf in
  ignore (Solver.solve s);
  let st = Solver.stats s in
  check Alcotest.bool "restarted" true (st.Berkmin.Stats.restarts > 0);
  check Alcotest.bool "reduced" true (st.Berkmin.Stats.reductions > 0);
  check Alcotest.bool "old threshold grew" true
    (Solver.old_activity_threshold s
    > Config.berkmin.Config.old_activity_threshold - 1)

let test_skin_histogram_recorded () =
  let cnf = Berkmin_gen.Pigeonhole.php 8 7 in
  let s = Solver.create cnf in
  ignore (Solver.solve s);
  let st = Solver.stats s in
  let total = Array.fold_left ( + ) 0 st.Berkmin.Stats.skin in
  check Alcotest.int "skin sums to top-clause decisions"
    st.Berkmin.Stats.top_clause_decisions
    (total + st.Berkmin.Stats.skin_overflow)

let test_no_restarts_mode () =
  let config = { Config.berkmin with Config.restart_mode = Config.No_restarts } in
  let cnf = Berkmin_gen.Pigeonhole.php 7 6 in
  let s = Solver.create ~config cnf in
  (match Solver.solve s with
  | Solver.Unsat -> ()
  | Solver.Sat _ | Solver.Unknown -> Alcotest.fail "expected UNSAT");
  check Alcotest.int "no restarts" 0 (Solver.stats s).Berkmin.Stats.restarts

let test_keep_all_mode () =
  let config = { Config.berkmin with Config.reduction_mode = Config.Keep_all } in
  let cnf = Berkmin_gen.Pigeonhole.php 7 6 in
  let s = Solver.create ~config cnf in
  (match Solver.solve s with
  | Solver.Unsat -> ()
  | Solver.Sat _ | Solver.Unknown -> Alcotest.fail "expected UNSAT");
  check Alcotest.int "nothing removed" 0
    (Solver.stats s).Berkmin.Stats.removed_clauses

let test_decision_hook_fires () =
  let cnf = Berkmin_gen.Pigeonhole.php 6 5 in
  let s = Solver.create cnf in
  let count = ref 0 in
  Solver.set_decision_hook s (fun _ _ -> incr count);
  ignore (Solver.solve s);
  check Alcotest.int "hook saw every decision"
    (Solver.stats s).Berkmin.Stats.decisions !count

(* ------------------------------------------------------------------ *)
(* DPLL oracle                                                         *)

let test_dpll_basics () =
  (match Berkmin.Dpll.solve (cnf_of [ [ 1; 2 ]; [ -1 ]; [ -2 ] ]) with
  | Berkmin.Dpll.Unsat -> ()
  | Berkmin.Dpll.Sat _ | Berkmin.Dpll.Unknown -> Alcotest.fail "expected UNSAT");
  (match Berkmin.Dpll.solve (cnf_of [ [ 1; 2 ]; [ -1; 2 ] ]) with
  | Berkmin.Dpll.Sat m ->
    check Alcotest.bool "model valid" true
      (Cnf.satisfied_by (cnf_of [ [ 1; 2 ]; [ -1; 2 ] ]) m)
  | Berkmin.Dpll.Unsat | Berkmin.Dpll.Unknown -> Alcotest.fail "expected SAT");
  match Berkmin.Dpll.solve ~max_nodes:3 (Berkmin_gen.Pigeonhole.php 7 6) with
  | Berkmin.Dpll.Unknown -> ()
  | Berkmin.Dpll.Sat _ | Berkmin.Dpll.Unsat ->
    Alcotest.fail "expected budget exhaustion"

(* ------------------------------------------------------------------ *)
(* Luby                                                                *)

let test_luby_sequence () =
  let expected = [ 1; 1; 2; 1; 1; 2; 4; 1; 1; 2; 1; 1; 2; 4; 8 ] in
  let got = List.init 15 (fun i -> Berkmin.Luby.term (i + 1)) in
  check (Alcotest.list Alcotest.int) "first 15 terms" expected got;
  check Alcotest.int "scaled" 64 (Berkmin.Luby.interval ~unit:32 3);
  Alcotest.check_raises "term 0" (Invalid_argument "Luby.term") (fun () ->
      ignore (Berkmin.Luby.term 0))

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Bulk load (streaming DIMACS straight into the solver).              *)

module Dimacs = Berkmin_dimacs.Dimacs

(* The same formula grown one variable and one clause at a time through
   the incremental interface. *)
let build_incremental ?config cnf =
  let s = Solver.create ?config (Cnf.create ()) in
  for _ = 1 to Cnf.num_vars cnf do
    ignore (Solver.new_var s)
  done;
  Cnf.iter (fun c -> Solver.add_clause s (Clause.to_list c)) cnf;
  s

let same_verdict a b =
  match (a, b) with
  | Solver.Sat _, Solver.Sat _
  | Solver.Unsat, Solver.Unsat
  | Solver.Unknown, Solver.Unknown -> true
  | _ -> false

let model_of = function
  | Solver.Sat m -> Some m
  | Solver.Unsat | Solver.Unknown -> None

(* [load] must be indistinguishable from [create ∘ parse]: same
   verdict and, because construction order is identical, the same
   search trace (conflict/decision/propagation counts).  The formula
   built through [new_var] + [add_clause] reaches the same verdict and
   model. *)
let assert_load_equiv ?config name text =
  let s_parse = Solver.create ?config (Dimacs.parse_string text) in
  let s_load = Solver.load_string ?config text in
  let s_incr = build_incremental ?config (Dimacs.parse_string text) in
  check Alcotest.int (name ^ ": nvars") (Solver.num_vars s_parse)
    (Solver.num_vars s_load);
  check Alcotest.int (name ^ ": n_original")
    (Solver.num_original_clauses s_parse)
    (Solver.num_original_clauses s_load);
  let r_parse = Solver.solve s_parse and r_load = Solver.solve s_load in
  let r_incr = Solver.solve s_incr in
  check Alcotest.bool (name ^ ": same verdict") true (same_verdict r_parse r_load);
  check Alcotest.bool (name ^ ": incremental verdict") true
    (same_verdict r_parse r_incr);
  check
    Alcotest.(option (array bool))
    (name ^ ": incremental model") (model_of r_parse) (model_of r_incr);
  let st_parse = Solver.stats s_parse and st_load = Solver.stats s_load in
  check Alcotest.int (name ^ ": same conflicts")
    st_parse.Berkmin.Stats.conflicts st_load.Berkmin.Stats.conflicts;
  check Alcotest.int (name ^ ": same decisions")
    st_parse.Berkmin.Stats.decisions st_load.Berkmin.Stats.decisions;
  check Alcotest.int (name ^ ": same propagations")
    st_parse.Berkmin.Stats.propagations st_load.Berkmin.Stats.propagations

let test_load_equivalence () =
  let hole = Berkmin_gen.Pigeonhole.php 6 5 in
  assert_load_equiv "hole_6_5" (Dimacs.to_string hole);
  let planted =
    Berkmin_gen.Random_ksat.planted ~num_vars:80 ~num_clauses:340 ~k:3 ~seed:9
  in
  assert_load_equiv "planted" (Dimacs.to_string planted);
  assert_load_equiv ~config:Berkmin.Config.modern "planted/modern"
    (Dimacs.to_string planted);
  (* degenerate shapes: units, tautologies, duplicates, empty clause *)
  assert_load_equiv "units" "p cnf 3 3\n1 0\n-1 2 0\n-2 3 0\n";
  assert_load_equiv "tautology" "p cnf 2 2\n1 -1 0\n2 2 0\n";
  assert_load_equiv "empty clause" "p cnf 2 2\n1 0\n0\n";
  assert_load_equiv "contradiction" "p cnf 1 2\n1 0\n-1 0\n";
  assert_load_equiv "headerless" "1 2 0\n-1 -2 0\n1 -2 0\n-1 2 0\n"

let test_load_stats_recorded () =
  let text = Dimacs.to_string (Berkmin_gen.Pigeonhole.php 5 4) in
  let s = Solver.load_string text in
  let st = Solver.stats s in
  check Alcotest.bool "load_clauses set" true
    (st.Berkmin.Stats.load_clauses > 0);
  check Alcotest.bool "load_literals set" true
    (st.Berkmin.Stats.load_literals >= st.Berkmin.Stats.load_clauses);
  check Alcotest.bool "scratch recorded" true
    (st.Berkmin.Stats.load_scratch_words > 0);
  check Alcotest.bool "wall time sane" true (st.Berkmin.Stats.time_load >= 0.0)

let test_load_file_solves () =
  let inst = Berkmin_gen.Pigeonhole.instance 6 5 in
  let path = Filename.temp_file "berkmin_load" ".cnf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dimacs.write_file path inst.Instance.cnf;
      let s = Solver.load_file path in
      check Alcotest.bool "hole_6_5 is UNSAT" true (is_unsat (Solver.solve s)))

(* ------------------------------------------------------------------ *)
(* Mid-life clause intake: [add_clause] and [import_clause] normalize
   a clause, filter it against the root assignment and store what is
   left.  Each case runs through both entry points on a solver whose
   root has x1 true and x2 false, with a proof logger attached. *)

module Drup = Berkmin_proof.Drup

type intake_path = {
  path : string;
  add : Solver.t -> int list -> unit;
  count : Solver.t -> int;
      (* originals for [add_clause], landed imports for [import_clause] *)
  counts_satisfied : bool;
      (* [add_clause] counts a clause it drops as satisfied at the root *)
}

let intake_paths =
  [
    {
      path = "add_clause";
      add = (fun s l -> Solver.add_clause s (List.map Lit.of_dimacs l));
      count = Solver.num_original_clauses;
      counts_satisfied = true;
    };
    {
      path = "import_clause";
      add =
        (fun s l ->
          Solver.import_clause s ~glue:2
            (Array.of_list (List.map Lit.of_dimacs l)));
      count = (fun s -> (Solver.stats s).Berkmin.Stats.clauses_imported);
      counts_satisfied = false;
    };
  ]

(* [counted] is the change in the path's own clause count, [stored]
   whether the clause reached the arena, [bins] the change in
   binary-index entries. *)
let intake_case p name clause ~counted ~stored ~bins after =
  let s = Solver.create (cnf_of [ [ 1 ]; [ -2 ]; [ 3; 4; 5; 6 ] ]) in
  let proof = Drup.create () in
  Solver.set_proof_logger s (Drup.record proof);
  let count0 = p.count s
  and bytes0 = Solver.arena_bytes s
  and bins0 = Solver.num_binary_entries s in
  p.add s clause;
  let label = p.path ^ ", " ^ name in
  check Alcotest.int (label ^ ": counted") counted (p.count s - count0);
  check Alcotest.bool (label ^ ": stored") stored (Solver.arena_bytes s > bytes0);
  check Alcotest.int (label ^ ": binary entries") bins
    (Solver.num_binary_entries s - bins0);
  check (Alcotest.list Alcotest.string) (label ^ ": invariants") []
    (Solver.watch_invariant_violations s);
  after label s proof

let logs_empty_clause proof =
  List.exists
    (function Drup.Add c -> Clause.is_empty c | Drup.Delete _ -> false)
    (Drup.events proof)

let test_intake_cases () =
  let solves_sat label s _ =
    check Alcotest.bool (label ^ ": SAT") true (is_sat (Solver.solve s))
  in
  List.iter
    (fun path ->
      let case = intake_case path in
      case "tautology" [ 3; -3; 4 ] ~counted:0 ~stored:false ~bins:0 solves_sat;
      case "duplicates" [ 3; 4; 3 ] ~counted:1 ~stored:true ~bins:2 solves_sat;
      case "true at root" [ 1; 3; 4 ]
        ~counted:(if path.counts_satisfied then 1 else 0)
        ~stored:false ~bins:0 solves_sat;
      case "false literals leave a binary" [ -1; 3; 2; 4 ] ~counted:1
        ~stored:true ~bins:2 solves_sat;
      case "false literals leave a long clause" [ -1; 2; 3; 4; 5 ] ~counted:1
        ~stored:true ~bins:0 solves_sat;
      case "false literals leave a unit" [ -1; 2; 5 ] ~counted:1 ~stored:false
        ~bins:0 (fun label s _ ->
          check Alcotest.bool (label ^ ": x5 enqueued") true
            (Solver.value_of s 4 = Value.True);
          solves_sat label s ());
      case "false literals leave nothing" [ -1; 2 ] ~counted:1 ~stored:false
        ~bins:0 (fun label s proof ->
          check Alcotest.bool (label ^ ": empty clause logged") true
            (logs_empty_clause proof);
          check Alcotest.bool (label ^ ": UNSAT") true (is_unsat (Solver.solve s))))
    intake_paths

(* A foreign clause over a variable this solver eliminated is dropped:
   it would invalidate the model-reconstruction stack. *)
let test_import_eliminated_var () =
  let cnf = cnf_of [ [ 1; 2 ]; [ -1; 3 ]; [ -2; 3 ]; [ 3; 4; 5 ]; [ -4; -5 ] ] in
  let s = Solver.create cnf in
  Solver.simplify s;
  check Alcotest.bool "something eliminated" true
    (Solver.num_eliminated_vars s > 0);
  (* [add_clause] validates every literal before it changes anything *)
  let eliminated v =
    match Solver.add_clause s [ Lit.pos v; Lit.neg_of v ] with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  let v = List.find eliminated (List.init (Solver.num_vars s) Fun.id) in
  let imported () = (Solver.stats s).Berkmin.Stats.clauses_imported in
  let bytes0 = Solver.arena_bytes s in
  Solver.import_clause s ~glue:1 [| Lit.pos v |];
  check Alcotest.int "not imported" 0 (imported ());
  check Alcotest.int "arena untouched" bytes0 (Solver.arena_bytes s);
  check Alcotest.bool "still unassigned" true
    (Solver.value_of s v = Value.Unassigned);
  check (Alcotest.list Alcotest.string) "invariants" []
    (Solver.watch_invariant_violations s);
  match Solver.solve s with
  | Solver.Sat m -> check Alcotest.bool "model" true (Cnf.satisfied_by cnf m)
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "expected SAT"

let () =
  Alcotest.run "solver"
    [
      ( "trivia",
        [
          Alcotest.test_case "empty formula" `Quick test_empty_formula;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "single unit" `Quick test_single_unit;
          Alcotest.test_case "contradicting units" `Quick test_contradicting_units;
          Alcotest.test_case "tautology" `Quick test_tautology_ignored;
          Alcotest.test_case "duplicate literals" `Quick test_duplicate_literals;
          Alcotest.test_case "chain propagation" `Quick test_chain_propagation;
          Alcotest.test_case "paper example" `Quick test_paper_example;
          Alcotest.test_case "value_of" `Quick test_value_of;
          Alcotest.test_case "gap variables" `Quick test_gap_variables;
        ] );
      ("presets", preset_cases);
      ( "budget",
        [
          Alcotest.test_case "conflict budget" `Quick test_conflict_budget;
          Alcotest.test_case "resume" `Quick test_resume_after_unknown;
          Alcotest.test_case "verdict cached" `Quick test_verdict_cached;
          Alcotest.test_case "time budget" `Quick test_time_budget;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed same run" `Quick test_deterministic_runs;
          Alcotest.test_case "different seeds" `Quick test_seed_changes_run;
        ] );
      ( "stats",
        [
          Alcotest.test_case "sanity" `Quick test_stats_sanity;
          Alcotest.test_case "restarts/reductions" `Quick
            test_restarts_and_reductions_happen;
          Alcotest.test_case "skin histogram" `Quick test_skin_histogram_recorded;
          Alcotest.test_case "no-restart mode" `Quick test_no_restarts_mode;
          Alcotest.test_case "keep-all mode" `Quick test_keep_all_mode;
          Alcotest.test_case "decision hook" `Quick test_decision_hook_fires;
        ] );
      ("dpll", [ Alcotest.test_case "basics" `Quick test_dpll_basics ]);
      ("luby", [ Alcotest.test_case "sequence" `Quick test_luby_sequence ]);
      ( "bulk-load",
        [
          Alcotest.test_case "load = create" `Quick test_load_equivalence;
          Alcotest.test_case "load stats recorded" `Quick
            test_load_stats_recorded;
          Alcotest.test_case "load_file solves" `Quick test_load_file_solves;
        ] );
      ( "intake",
        [
          Alcotest.test_case "add_clause and import_clause cases" `Quick
            test_intake_cases;
          Alcotest.test_case "import over an eliminated variable" `Quick
            test_import_eliminated_var;
        ] );
    ]

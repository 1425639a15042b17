(* Incremental-interface tests: assumptions, failed-assumption cores,
   clause/variable growth between solves, learnt retention, per-call
   budgets, GC across calls, and a resident-vs-fresh differential
   mini-campaign. *)

open Berkmin_types
module Solver = Berkmin.Solver
module Pigeonhole = Berkmin_gen.Pigeonhole
module Random_ksat = Berkmin_gen.Random_ksat

let check = Alcotest.check

let cnf_of lists =
  let cnf = Cnf.create () in
  List.iter (fun c -> Cnf.add_clause cnf (List.map Lit.of_dimacs c)) lists;
  cnf

let lit = Lit.of_dimacs

let verdict_name = function
  | Solver.Sat _ -> "SAT"
  | Solver.Unsat -> "UNSAT"
  | Solver.Unknown -> "UNKNOWN"

let is_sat = function Solver.Sat _ -> true | _ -> false
let is_unsat = function Solver.Unsat -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Assumptions via the [solve ~assumps] front door                     *)

let test_assumps_basic () =
  let s = Solver.create (cnf_of [ [ 1; 2 ]; [ -1; 3 ] ]) in
  (match Solver.solve ~assumps:[ lit 1 ] s with
  | Solver.Sat m ->
    check Alcotest.bool "assumed lit holds" true m.(0);
    check Alcotest.bool "implied lit holds" true m.(2)
  | r -> Alcotest.failf "expected SAT, got %s" (verdict_name r));
  (* conflicting assumptions: UNSAT under them, SAT again without *)
  check Alcotest.bool "unsat under ~1,~2" true
    (is_unsat (Solver.solve ~assumps:[ lit (-1); lit (-2) ] s));
  check Alcotest.bool "core present" true (Solver.unsat_core s <> None);
  check Alcotest.bool "plain solve recovers SAT" true (is_sat (Solver.solve s));
  check Alcotest.(option (list int)) "core cleared by SAT outcome" None
    (Solver.unsat_core s)

let test_assumps_empty_list_is_plain () =
  let s = Solver.create (cnf_of [ [ 1 ] ]) in
  check Alcotest.bool "sat" true (is_sat (Solver.solve ~assumps:[] s));
  check Alcotest.(option (list int)) "no core" None (Solver.unsat_core s)

(* ------------------------------------------------------------------ *)
(* Failed-assumption cores                                             *)

(* Dropping any single core member from the assumption set must flip
   the verdict back to SAT — checked by re-solving on the same resident
   solver.  The instances are built so every core is necessarily
   minimal (each pairwise/ternary conflict needs all its members). *)
let core_is_minimal s all_assumps =
  match Solver.unsat_core s with
  | None -> Alcotest.fail "expected a failed-assumption core"
  | Some core ->
    check Alcotest.bool "core non-empty" true (core <> []);
    List.iter
      (fun l ->
        check Alcotest.bool "core member was assumed" true
          (List.mem l all_assumps))
      core;
    List.iter
      (fun dropped ->
        let rest = List.filter (fun l -> l <> dropped) core in
        check Alcotest.bool "dropping a core member flips to SAT" true
          (is_sat (Solver.solve ~assumps:rest s)))
      core

let test_core_soundness_pair () =
  (* (~a | ~b): assumptions a, b, c fail; c is irrelevant.  The
     tautology only widens the variable space so c exists. *)
  let s = Solver.create (cnf_of [ [ -1; -2 ]; [ 3; -3 ] ]) in
  let assumps = [ lit 1; lit 2; lit 3 ] in
  check Alcotest.bool "unsat under a,b,c" true
    (is_unsat (Solver.solve ~assumps s));
  (match Solver.unsat_core s with
  | Some core ->
    check Alcotest.bool "irrelevant assumption excluded" false
      (List.mem (lit 3) core)
  | None -> Alcotest.fail "expected core");
  core_is_minimal s assumps

let test_core_soundness_chain () =
  (* a -> x -> y, b -> ~y: the conflict needs both a and b, discovered
     through propagation chains rather than a direct clause. *)
  let s =
    Solver.create (cnf_of [ [ -1; 4 ]; [ -4; 5 ]; [ -2; -5 ]; [ 3; -3 ] ])
  in
  let assumps = [ lit 3; lit 1; lit 2 ] in
  check Alcotest.bool "unsat under chain assumptions" true
    (is_unsat (Solver.solve ~assumps s));
  core_is_minimal s assumps

let test_core_empty_when_formula_unsat () =
  let s = Solver.create (cnf_of [ [ 1 ]; [ -1 ] ]) in
  check Alcotest.bool "unsat" true (is_unsat (Solver.solve ~assumps:[ lit 2 ] s));
  check
    Alcotest.(option (list int))
    "formula-level UNSAT yields empty core" (Some []) (Solver.unsat_core s)

(* A formula already contradictory when it is loaded answers an
   assumption solve without searching; the proof must still derive the
   empty clause, exactly as a plain [solve] does. *)
let test_formula_unsat_under_assumps_proof () =
  let cnf = cnf_of [ [ 1 ]; [ -1 ]; [ 2; 3 ] ] in
  let s = Solver.create cnf in
  let proof = Berkmin_proof.Drup.create () in
  Solver.set_proof_logger s (Berkmin_proof.Drup.record proof);
  check Alcotest.bool "unsat" true (is_unsat (Solver.solve ~assumps:[ lit 2 ] s));
  check
    Alcotest.(option (list int))
    "formula-level core" (Some []) (Solver.unsat_core s);
  check Alcotest.string "proof derives the empty clause" "valid"
    (Berkmin_proof.Drup.check_result_to_string
       (Berkmin_proof.Drup.check cnf proof))

(* ------------------------------------------------------------------ *)
(* Growing the formula between solves                                  *)

let test_new_var_add_clause_after_failed_assumps () =
  let s = Solver.create (cnf_of [ [ 1; 2 ] ]) in
  check Alcotest.bool "unsat under ~1,~2" true
    (is_unsat (Solver.solve ~assumps:[ lit (-1); lit (-2) ] s));
  (* grow after an UNSAT-under-assumptions outcome *)
  let v = Solver.new_var s in
  check Alcotest.int "fresh var index" 2 v;
  Solver.add_clause s [ Lit.pos 0; Lit.pos v ];
  (match Solver.solve ~assumps:[ lit (-1) ] s with
  | Solver.Sat m ->
    check Alcotest.bool "new clause active: ~1 forces v" true m.(v)
  | r -> Alcotest.failf "expected SAT, got %s" (verdict_name r));
  (* the new variable can itself be assumed *)
  check Alcotest.bool "assume ~v with ~1: unsat" true
    (is_unsat (Solver.solve ~assumps:[ lit (-1); Lit.neg_of v ] s));
  core_is_minimal s [ lit (-1); Lit.neg_of v ]

let test_add_clause_tightens_to_unsat () =
  let s = Solver.create (cnf_of [ [ 1; 2 ] ]) in
  check Alcotest.bool "sat initially" true (is_sat (Solver.solve s));
  Solver.add_clause s [ lit (-1) ];
  Solver.add_clause s [ lit (-2) ];
  check Alcotest.bool "units flip to UNSAT" true (is_unsat (Solver.solve s));
  (* permanently unsatisfiable: growth keeps the verdict *)
  let v = Solver.new_var s in
  Solver.add_clause s [ Lit.pos v ];
  check Alcotest.bool "still UNSAT after growth" true (is_unsat (Solver.solve s))

let test_add_clause_unknown_var_rejected () =
  let s = Solver.create (cnf_of [ [ 1 ] ]) in
  Alcotest.check_raises "unknown variable"
    (Invalid_argument "Solver.add_clause: unknown variable") (fun () ->
      Solver.add_clause s [ lit 5 ])

let test_incremental_from_empty () =
  (* Build a whole formula through the incremental interface only. *)
  let s = Solver.create (Cnf.create ()) in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ Lit.pos a; Lit.pos b ];
  Solver.add_clause s [ Lit.make a false; Lit.pos b ];
  (match Solver.solve s with
  | Solver.Sat m -> check Alcotest.bool "b forced" true m.(b)
  | r -> Alcotest.failf "expected SAT, got %s" (verdict_name r));
  Solver.add_clause s [ Lit.make b false ];
  check Alcotest.bool "now UNSAT" true (is_unsat (Solver.solve s))

(* ------------------------------------------------------------------ *)
(* Learnt retention                                                    *)

let hole_assumptions () =
  (* php 7 7 is SAT; assuming hole 6 empty reduces it to php 7 6 —
     a genuinely hard UNSAT-under-assumptions query. *)
  let cnf = Pigeonhole.php 7 7 in
  let blocked = List.init 7 (fun p -> Lit.make ((p * 7) + 6) false) in
  (cnf, blocked)

let test_learnt_retention () =
  let cnf, blocked = hole_assumptions () in
  let s = Solver.create cnf in
  let deltas =
    List.init 3 (fun _ ->
        let before = (Solver.stats s).Berkmin.Stats.conflicts in
        check Alcotest.bool "unsat under blocked hole" true
          (is_unsat (Solver.solve ~assumps:blocked s));
        (Solver.stats s).Berkmin.Stats.conflicts - before)
  in
  match deltas with
  | [ d1; d2; d3 ] ->
    check Alcotest.bool "first query pays real conflicts" true (d1 > 0);
    check Alcotest.bool
      (Printf.sprintf "retained learnts cut conflicts (%d -> %d)" d1 d2)
      true (d2 < d1);
    check Alcotest.bool
      (Printf.sprintf "third query no worse than second (%d -> %d)" d2 d3)
      true (d3 <= d2)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Per-call budgets                                                    *)

let test_budget_convergence () =
  let cnf = Random_ksat.generate ~num_vars:150 ~num_clauses:640 ~k:3 ~seed:11 in
  let s = Solver.create cnf in
  let limited n = Solver.solve ~budget:(Solver.budget_conflicts n) s in
  check Alcotest.bool "zero budget exhausts immediately" true
    (limited 0 = Solver.Unknown);
  (* budget is per call, not lifetime: a second limited call makes
     progress instead of dying on the spent counter *)
  let r = ref Solver.Unknown in
  let calls = ref 0 in
  while !r = Solver.Unknown && !calls < 200 do
    incr calls;
    r := limited 50
  done;
  check Alcotest.bool "bounded calls converge" true (!r <> Solver.Unknown);
  (* verdict matches a fresh unbounded solve *)
  let fresh = Solver.solve (Solver.create cnf) in
  check Alcotest.string "limited convergence agrees with one-shot"
    (verdict_name fresh) (verdict_name !r);
  List.iter
    (fun (what, budget) ->
      Alcotest.check_raises what
        (Invalid_argument "Solver.solve: negative budget") (fun () ->
          ignore (Solver.solve ~budget s)))
    [
      "negative budget", Solver.budget_conflicts (-1);
      ( "negative time budget",
        { Solver.no_budget with max_seconds = Some (-1.0) } );
      "NaN time budget", { Solver.no_budget with max_seconds = Some Float.nan };
    ]

(* The conflict cap is checked after every conflict, not on a sampling
   stride, so a run spends exactly its budget, counted from the call. *)
let test_exact_conflict_budget () =
  let s = Solver.create (Pigeonhole.php 8 7) in
  let spent n =
    let before = (Solver.stats s).Berkmin.Stats.conflicts in
    let r = Solver.solve ~budget:(Solver.budget_conflicts n) s in
    check Alcotest.string "budget runs out" "UNKNOWN" (verdict_name r);
    (Solver.stats s).Berkmin.Stats.conflicts - before
  in
  check Alcotest.int "first call" 344 (spent 344);
  check Alcotest.int "second call on the spent solver" 100 (spent 100)

(* ------------------------------------------------------------------ *)
(* GC between solves                                                   *)

let test_gc_between_solves () =
  let cnf = Random_ksat.generate ~num_vars:120 ~num_clauses:500 ~k:3 ~seed:3 in
  let s = Solver.create cnf in
  let probes =
    [ []; [ lit 7 ]; [ lit (-7); lit 12 ]; [ lit 1; lit (-2); lit 3 ] ]
  in
  List.iter
    (fun assumps ->
      let resident = Solver.solve ~assumps s in
      Solver.compact s;
      check Alcotest.(list string) "watch invariants after compaction" []
        (Solver.watch_invariant_violations s);
      let fresh = Solver.solve ~assumps (Solver.create cnf) in
      check Alcotest.string "verdict survives compaction"
        (verdict_name fresh) (verdict_name resident))
    probes

(* ------------------------------------------------------------------ *)
(* Resident-vs-fresh differential mini-campaign                        *)

let test_differential_mini () =
  let rng = Random.State.make [| 0xBEEF |] in
  for round = 1 to 25 do
    let num_vars = 8 + Random.State.int rng 12 in
    let num_clauses = num_vars * 4 in
    let cnf =
      Random_ksat.generate ~num_vars ~num_clauses ~k:3
        ~seed:(1000 + round)
    in
    let s = Solver.create cnf in
    for _query = 1 to 4 do
      let n_assumps = Random.State.int rng 4 in
      let assumps =
        List.init n_assumps (fun _ ->
            Lit.make (Random.State.int rng num_vars) (Random.State.bool rng))
      in
      let resident = Solver.solve ~assumps s in
      let fresh = Solver.solve ~assumps (Solver.create cnf) in
      check Alcotest.string
        (Printf.sprintf "round %d: resident matches fresh" round)
        (verdict_name fresh) (verdict_name resident);
      (match resident with
      | Solver.Sat m ->
        check Alcotest.bool "model satisfies formula" true
          (Cnf.satisfied_by cnf m);
        List.iter
          (fun l ->
            check Alcotest.bool "model honours assumption" (Lit.is_pos l)
              m.(Lit.var l))
          assumps
      | Solver.Unsat | Solver.Unknown -> ())
    done
  done

let () =
  Alcotest.run "incremental"
    [
      ( "assumptions",
        [
          Alcotest.test_case "basic" `Quick test_assumps_basic;
          Alcotest.test_case "empty list" `Quick test_assumps_empty_list_is_plain;
        ] );
      ( "unsat core",
        [
          Alcotest.test_case "pairwise conflict" `Quick test_core_soundness_pair;
          Alcotest.test_case "propagation chain" `Quick test_core_soundness_chain;
          Alcotest.test_case "formula-level unsat" `Quick
            test_core_empty_when_formula_unsat;
          Alcotest.test_case "formula-level unsat proof" `Quick
            test_formula_unsat_under_assumps_proof;
        ] );
      ( "growth",
        [
          Alcotest.test_case "after failed assumptions" `Quick
            test_new_var_add_clause_after_failed_assumps;
          Alcotest.test_case "tighten to UNSAT" `Quick
            test_add_clause_tightens_to_unsat;
          Alcotest.test_case "unknown var rejected" `Quick
            test_add_clause_unknown_var_rejected;
          Alcotest.test_case "from empty formula" `Quick
            test_incremental_from_empty;
        ] );
      ( "retention",
        [ Alcotest.test_case "learnt clauses persist" `Quick test_learnt_retention ]
      );
      ( "budgets",
        [
          Alcotest.test_case "per-call convergence" `Quick
            test_budget_convergence;
          Alcotest.test_case "exact conflict budget" `Quick
            test_exact_conflict_budget;
        ] );
      ("gc", [ Alcotest.test_case "compact between solves" `Quick test_gc_between_solves ]);
      ( "differential",
        [ Alcotest.test_case "resident vs fresh" `Quick test_differential_mini ] );
    ]

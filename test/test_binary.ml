(* Binary implication layer: chains drained without watcher traffic,
   binary-only conflicts, learnt 2-clauses landing in the index, the
   nb_two memo, and index consistency across GC and compaction. *)

open Berkmin_types
module Solver = Berkmin.Solver
module Config = Berkmin.Config
module Stats = Berkmin.Stats

let check = Alcotest.check

let cnf_of lists =
  let cnf = Cnf.create () in
  List.iter (fun c -> Cnf.add_clause cnf (List.map Lit.of_dimacs c)) lists;
  cnf

let is_sat = function
  | Solver.Sat _ -> true
  | Solver.Unsat | Solver.Unknown -> false

let is_unsat = function
  | Solver.Unsat -> true
  | Solver.Sat _ | Solver.Unknown -> false

(* ------------------------------------------------------------------ *)
(* Propagation through the binary index                                *)

let test_long_chain () =
  (* x1 and a 99-link binary chain x_i -> x_{i+1}: every implication
     must come out of the binary index, with the watch lists never
     consulted (there are no clauses of size > 2 at all). *)
  let n = 100 in
  let lists = [ 1 ] :: List.init (n - 1) (fun i -> [ -(i + 1); i + 2 ]) in
  let s = Solver.create (cnf_of lists) in
  (match Solver.solve s with
  | Solver.Sat m ->
    Array.iter (fun b -> check Alcotest.bool "forced true" true b) m
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "expected SAT");
  let st = Solver.stats s in
  check Alcotest.int "chain implied from the index" (n - 1)
    st.Stats.binary_propagations;
  check Alcotest.int "no watcher traffic" 0 st.Stats.watcher_visits;
  check Alcotest.int "no conflicts" 0 st.Stats.conflicts;
  check Alcotest.int "index holds both directions" (2 * (n - 1))
    (Solver.num_binary_entries s)

let test_binary_only_conflict_level0 () =
  (* x1 -> x2 and x1 -> ~x2 with x1 forced: the contradiction must be
     found inside the binary drain, before any watch list exists. *)
  let s = Solver.create (cnf_of [ [ 1 ]; [ -1; 2 ]; [ -1; -2 ] ]) in
  check Alcotest.bool "UNSAT" true (is_unsat (Solver.solve s));
  let st = Solver.stats s in
  check Alcotest.bool "conflict found in the binary drain" true
    (st.Stats.binary_conflicts >= 1);
  check Alcotest.int "no watcher traffic" 0 st.Stats.watcher_visits

let test_binary_conflict_under_decision () =
  (* Branching x1=1 runs into the binary diamond x1 -> x2, x1 -> x3,
     ~x2 | ~x3; the solver must learn its way out and answer SAT. *)
  let s =
    Solver.create (cnf_of [ [ -1; 2 ]; [ -1; 3 ]; [ -2; -3 ] ])
  in
  (match Solver.solve s with
  | Solver.Sat m ->
    check Alcotest.bool "model refutes the diamond" false (m.(1) && m.(2))
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "expected SAT");
  check Alcotest.string "healthy index" ""
    (String.concat "; " (Solver.watch_invariant_violations s))

let test_learnt_binary_enters_index () =
  (* Under assumptions a, b the pair (~a|~b|x), (~a|~b|~x) resolves to
     the binary clause (~a|~b): the learnt 2-clause must land in the
     implication index, not the watch lists. *)
  let s =
    Solver.create (cnf_of [ [ -1; -2; 3 ]; [ -1; -2; -3 ] ])
  in
  check Alcotest.int "no binaries loaded" 0 (Solver.num_binary_entries s);
  let a = Lit.of_dimacs 1 and b = Lit.of_dimacs 2 in
  let r = Solver.solve ~assumps:[ a; b ] s in
  (match r, Solver.unsat_core s with
  | Solver.Unsat, Some (_ :: _) -> ()
  | _ -> Alcotest.fail "expected failure under the assumptions");
  check Alcotest.int "learnt 2-clause indexed both ways" 2
    (Solver.num_binary_entries s);
  check Alcotest.string "healthy index" ""
    (String.concat "; " (Solver.watch_invariant_violations s));
  (* The learnt binary now prunes the a, b branch for good: solving
     without assumptions must still succeed. *)
  check Alcotest.bool "still SAT outright" true (is_sat (Solver.solve s))

(* ------------------------------------------------------------------ *)
(* nb_two memoization                                                  *)

let test_nb_two_memo_hits () =
  (* Variable 1 sits in binaries of both phases sharing the partner
     x2, so the first global decision evaluates bin_degree(~x2) twice
     in the same assignment epoch — the second read must be a memo
     hit. *)
  let s = Solver.create (cnf_of [ [ 1; 2 ]; [ -1; 2 ]; [ 3; 2 ] ]) in
  check Alcotest.bool "SAT" true (is_sat (Solver.solve s));
  let st = Solver.stats s in
  check Alcotest.bool "memoized neighbourhood reused" true
    (st.Stats.nb_two_cache_hits >= 1)

(* ------------------------------------------------------------------ *)
(* Index consistency across GC and compaction                          *)

let test_index_survives_gc () =
  (* hole_7_6 runs long enough for restarts, database reductions and
     arena compactions; learnt binaries must survive relocation and
     deleted ones must leave the index. *)
  let inst = Berkmin_gen.Pigeonhole.instance 7 6 in
  let s = Solver.create inst.Berkmin_gen.Instance.cnf in
  check Alcotest.bool "UNSAT" true (is_unsat (Solver.solve s));
  check Alcotest.bool "GC actually ran" true
    ((Solver.stats s).Stats.gc_runs >= 1);
  check Alcotest.string "healthy index after GC" ""
    (String.concat "; " (Solver.watch_invariant_violations s));
  Solver.compact s;
  check Alcotest.string "healthy index after forced compaction" ""
    (String.concat "; " (Solver.watch_invariant_violations s))

let test_index_survives_forced_compaction () =
  (* Compaction with a mixed database but no search pressure: the
     relocated crefs in the index must still point at their clauses. *)
  let s =
    Solver.create
      (cnf_of [ [ 1; 2 ]; [ -1; 3 ]; [ 1; 2; 3 ]; [ -2; -3; 1 ] ])
  in
  check Alcotest.bool "SAT" true (is_sat (Solver.solve s));
  Solver.compact s;
  Solver.compact s;
  check Alcotest.string "healthy index" ""
    (String.concat "; " (Solver.watch_invariant_violations s));
  check Alcotest.int "original binaries intact" 4
    (Solver.num_binary_entries s)

let () =
  Alcotest.run "binary"
    [
      ( "propagation",
        [
          Alcotest.test_case "long chain" `Quick test_long_chain;
          Alcotest.test_case "level-0 conflict" `Quick
            test_binary_only_conflict_level0;
          Alcotest.test_case "conflict under decision" `Quick
            test_binary_conflict_under_decision;
          Alcotest.test_case "learnt binary indexed" `Quick
            test_learnt_binary_enters_index;
        ] );
      ( "nb_two",
        [ Alcotest.test_case "memo hits" `Quick test_nb_two_memo_hits ] );
      ( "gc",
        [
          Alcotest.test_case "index survives GC" `Quick test_index_survives_gc;
          Alcotest.test_case "index survives compaction" `Quick
            test_index_survives_forced_compaction;
        ] );
    ]

(* Tests for the benchmark generators: structure checks plus verdict
   checks against the solver (and, where feasible, the DPLL oracle). *)

open Berkmin_types
module Instance = Berkmin_gen.Instance
module Solver = Berkmin.Solver

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let solve cnf = Solver.solve_cnf cnf

let assert_expected (inst : Instance.t) =
  match solve inst.Instance.cnf with
  | Solver.Sat m ->
    if not (Cnf.satisfied_by inst.Instance.cnf m) then
      Alcotest.fail (inst.Instance.name ^ ": invalid model");
    if not (Instance.consistent inst ~sat:true) then
      Alcotest.fail (inst.Instance.name ^ ": SAT but expected UNSAT")
  | Solver.Unsat ->
    if not (Instance.consistent inst ~sat:false) then
      Alcotest.fail (inst.Instance.name ^ ": UNSAT but expected SAT")
  | Solver.Unknown -> Alcotest.fail (inst.Instance.name ^ ": unexpected Unknown")

(* ------------------------------------------------------------------ *)
(* Pigeonhole                                                          *)

let test_php_structure () =
  let cnf = Berkmin_gen.Pigeonhole.php 4 3 in
  check Alcotest.int "vars" 12 (Cnf.num_vars cnf);
  (* 4 at-least-one clauses + 3 * C(4,2) at-most-one clauses. *)
  check Alcotest.int "clauses" (4 + (3 * 6)) (Cnf.num_clauses cnf)

let test_php_verdicts () =
  assert_expected (Berkmin_gen.Pigeonhole.instance 4 4);
  assert_expected (Berkmin_gen.Pigeonhole.instance 5 4);
  assert_expected (Berkmin_gen.Pigeonhole.instance 3 5)

let test_php_suite () =
  let suite = Berkmin_gen.Pigeonhole.suite ~max:6 in
  check Alcotest.int "suite size" 3 (List.length suite);
  List.iter
    (fun (i : Instance.t) ->
      check Alcotest.bool "all unsat" true (i.Instance.expected = Instance.Expect_unsat))
    suite

(* ------------------------------------------------------------------ *)
(* Parity                                                              *)

let test_parity_chain_sat () =
  let inst = Berkmin_gen.Parity.chain_instance ~num_vars:20 ~extra:10 ~seed:3 in
  assert_expected inst

let test_parity_cycle_unsat () =
  assert_expected
    (Instance.make "cyc" Instance.Expect_unsat
       (Berkmin_gen.Parity.inconsistent_cycle ~num_vars:9))

let test_tseitin_unsat () =
  assert_expected (Berkmin_gen.Parity.tseitin_instance ~num_vars:8 ~degree:3 ~seed:1);
  assert_expected (Berkmin_gen.Parity.tseitin_instance ~num_vars:10 ~degree:4 ~seed:2)

let test_tseitin_arg_validation () =
  Alcotest.check_raises "odd stubs"
    (Invalid_argument "Parity.tseitin_expander: num_vars * degree must be even")
    (fun () ->
      ignore (Berkmin_gen.Parity.tseitin_expander ~num_vars:5 ~degree:3 ~seed:1))

let prop_parity_chain_always_sat =
  QCheck.Test.make ~name:"parity chains are SAT" ~count:25
    QCheck.(pair (int_range 5 30) small_int)
    (fun (n, seed) ->
      let inst = Berkmin_gen.Parity.chain_instance ~num_vars:n ~extra:(n / 2) ~seed in
      match solve inst.Instance.cnf with
      | Solver.Sat m -> Cnf.satisfied_by inst.Instance.cnf m
      | Solver.Unsat | Solver.Unknown -> false)

(* ------------------------------------------------------------------ *)
(* Hanoi                                                               *)

let test_hanoi_verdicts () =
  assert_expected (Berkmin_gen.Hanoi.sat_instance 2);
  assert_expected (Berkmin_gen.Hanoi.unsat_instance 2);
  assert_expected (Berkmin_gen.Hanoi.sat_instance 3);
  assert_expected (Berkmin_gen.Hanoi.unsat_instance 3)

let test_hanoi_oracle_agrees () =
  (* Cross-check the 2-disk encodings against the independent DPLL
     oracle. *)
  let sat = Berkmin_gen.Hanoi.encode ~disks:2 ~horizon:3 in
  (match Berkmin.Dpll.solve sat with
  | Berkmin.Dpll.Sat _ -> ()
  | Berkmin.Dpll.Unsat | Berkmin.Dpll.Unknown -> Alcotest.fail "oracle: expected SAT");
  let unsat = Berkmin_gen.Hanoi.encode ~disks:2 ~horizon:2 in
  match Berkmin.Dpll.solve unsat with
  | Berkmin.Dpll.Unsat -> ()
  | Berkmin.Dpll.Sat _ | Berkmin.Dpll.Unknown -> Alcotest.fail "oracle: expected UNSAT"

let test_hanoi_plan_is_legal () =
  let disks = 3 in
  let horizon = Berkmin_gen.Hanoi.optimal_horizon disks in
  match solve (Berkmin_gen.Hanoi.encode ~disks ~horizon) with
  | Solver.Sat model ->
    let plan = Berkmin_gen.Hanoi.decode_plan ~disks ~horizon model in
    check Alcotest.int "plan length" horizon (List.length plan);
    (* Replay the plan on an explicit simulator. *)
    let pegs = [| List.init disks (fun d -> d); []; [] |] in
    List.iter
      (fun (d, p, q) ->
        (match pegs.(p) with
        | top :: rest when top = d ->
          (match pegs.(q) with
          | smaller :: _ when smaller < d -> Alcotest.fail "covers smaller disk"
          | [] | _ :: _ ->
            pegs.(p) <- rest;
            pegs.(q) <- d :: pegs.(q))
        | [] | _ :: _ -> Alcotest.fail "move of non-top disk"))
      plan;
    check (Alcotest.list Alcotest.int) "goal reached"
      (List.init disks (fun d -> d))
      pegs.(2)
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "expected SAT"

let test_hanoi_optimal_horizon () =
  check Alcotest.int "3 disks" 7 (Berkmin_gen.Hanoi.optimal_horizon 3);
  check Alcotest.int "5 disks" 31 (Berkmin_gen.Hanoi.optimal_horizon 5)

(* ------------------------------------------------------------------ *)
(* Blocksworld                                                         *)

let test_blocksworld_verdicts () =
  assert_expected (Berkmin_gen.Blocksworld.sat_instance 3);
  assert_expected (Berkmin_gen.Blocksworld.unsat_instance 3);
  assert_expected (Berkmin_gen.Blocksworld.sat_instance 4);
  assert_expected (Berkmin_gen.Blocksworld.unsat_instance 4)

let test_blocksworld_oracle_agrees () =
  let sat = Berkmin_gen.Blocksworld.encode ~blocks:2 ~horizon:2 in
  (match Berkmin.Dpll.solve sat with
  | Berkmin.Dpll.Sat _ -> ()
  | Berkmin.Dpll.Unsat | Berkmin.Dpll.Unknown -> Alcotest.fail "oracle: expected SAT");
  let unsat = Berkmin_gen.Blocksworld.encode ~blocks:2 ~horizon:1 in
  match Berkmin.Dpll.solve unsat with
  | Berkmin.Dpll.Unsat -> ()
  | Berkmin.Dpll.Sat _ | Berkmin.Dpll.Unknown -> Alcotest.fail "oracle: expected UNSAT"

(* ------------------------------------------------------------------ *)
(* Random k-SAT                                                        *)

let test_ksat_shape () =
  let cnf = Berkmin_gen.Random_ksat.generate ~num_vars:10 ~num_clauses:30 ~k:3 ~seed:1 in
  check Alcotest.int "clauses" 30 (Cnf.num_clauses cnf);
  Cnf.iter (fun c -> check Alcotest.int "k lits" 3 (Clause.length c)) cnf

let test_ksat_validation () =
  Alcotest.check_raises "k too big"
    (Invalid_argument "Random_ksat: k > num_vars") (fun () ->
      ignore
        (Berkmin_gen.Random_ksat.generate ~num_vars:2 ~num_clauses:1 ~k:3 ~seed:1))

let prop_planted_always_sat =
  QCheck.Test.make ~name:"planted k-SAT is SAT" ~count:30
    QCheck.(pair (int_range 5 25) small_int)
    (fun (n, seed) ->
      let cnf =
        Berkmin_gen.Random_ksat.planted ~num_vars:n ~num_clauses:(4 * n) ~k:3 ~seed
      in
      match solve cnf with
      | Solver.Sat m -> Cnf.satisfied_by cnf m
      | Solver.Unsat | Solver.Unknown -> false)

(* ------------------------------------------------------------------ *)
(* Graph coloring                                                      *)

let test_coloring_verdicts () =
  assert_expected (Berkmin_gen.Graph_coloring.clique_instance 4 ~colors:4);
  assert_expected (Berkmin_gen.Graph_coloring.clique_instance 4 ~colors:3);
  assert_expected (Berkmin_gen.Graph_coloring.cycle_instance 6 ~colors:2);
  assert_expected (Berkmin_gen.Graph_coloring.cycle_instance 7 ~colors:2);
  assert_expected (Berkmin_gen.Graph_coloring.cycle_instance 7 ~colors:3)

let test_coloring_edge_bounds () =
  Alcotest.check_raises "bad edge"
    (Invalid_argument "Graph_coloring.encode: edge endpoint out of range")
    (fun () ->
      ignore
        (Berkmin_gen.Graph_coloring.encode
           { Berkmin_gen.Graph_coloring.vertices = 2; edges = [ (0, 5) ] }
           ~colors:2))

(* ------------------------------------------------------------------ *)
(* Circuit-derived instances                                           *)

let test_circuit_instances () =
  assert_expected (Berkmin_gen.Circuit_bench.adder_miter ~width:6);
  assert_expected (Berkmin_gen.Circuit_bench.mul_miter ~width:3);
  assert_expected (Berkmin_gen.Circuit_bench.random_miter ~gates:50 ~seed:2);
  assert_expected (Berkmin_gen.Circuit_bench.pipeline_sat ~stages:3 ~width:2)

let test_cone_demo () =
  let cnf, in_cone = Berkmin_gen.Circuit_bench.cone_demo_cnf ~cone_gates:40 ~seed:7 in
  check Alcotest.bool "has cone vars" true
    (List.exists in_cone (List.init (Cnf.num_vars cnf) (fun i -> i)));
  (* Both halves are equivalent pairs: the miter is UNSAT. *)
  match solve cnf with
  | Solver.Unsat -> ()
  | Solver.Sat _ | Solver.Unknown -> Alcotest.fail "cone demo must be UNSAT"

(* ------------------------------------------------------------------ *)
(* Puzzles                                                             *)

let test_queens_verdicts () =
  assert_expected (Berkmin_gen.Puzzles.queens_instance 1);
  assert_expected (Berkmin_gen.Puzzles.queens_instance 2);
  assert_expected (Berkmin_gen.Puzzles.queens_instance 3);
  assert_expected (Berkmin_gen.Puzzles.queens_instance 4);
  assert_expected (Berkmin_gen.Puzzles.queens_instance 8)

let test_queens_model_decodes () =
  let n = 8 in
  match solve (Berkmin_gen.Puzzles.queens n) with
  | Solver.Sat m ->
    let placement = Berkmin_gen.Puzzles.decode_queens n m in
    check Alcotest.bool "placement valid" true
      (Berkmin_gen.Puzzles.valid_queens n placement)
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "8 queens is SAT"

let test_sudoku_solves () =
  (* A few clues, solvable. *)
  let givens = [ (0, 0, 5); (0, 1, 3); (1, 0, 6); (4, 4, 7); (8, 8, 9) ] in
  match solve (Berkmin_gen.Puzzles.sudoku ~givens ()) with
  | Solver.Sat m ->
    let grid = Berkmin_gen.Puzzles.decode_sudoku m in
    check Alcotest.bool "grid valid" true (Berkmin_gen.Puzzles.valid_sudoku grid);
    List.iter
      (fun (r, c, d) -> check Alcotest.int "clue respected" d grid.(r).(c))
      givens
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "solvable sudoku"

let test_sudoku_contradiction () =
  (* Two identical digits in one row: UNSAT. *)
  let givens = [ (0, 0, 5); (0, 8, 5) ] in
  match solve (Berkmin_gen.Puzzles.sudoku ~givens ()) with
  | Solver.Unsat -> ()
  | Solver.Sat _ | Solver.Unknown -> Alcotest.fail "contradictory clues"

let test_sudoku_clue_validation () =
  Alcotest.check_raises "bad clue"
    (Invalid_argument "Puzzles.sudoku: clue out of range") (fun () ->
      ignore (Berkmin_gen.Puzzles.sudoku ~givens:[ (9, 0, 1) ] ()))

(* ------------------------------------------------------------------ *)
(* Suites                                                              *)

let test_suites_well_formed () =
  let classes = Berkmin_gen.Suites.all () in
  check Alcotest.int "twelve classes" 12 (List.length classes);
  check
    Alcotest.(list string)
    "class names" (List.map fst classes) Berkmin_gen.Suites.class_names;
  List.iter
    (fun (name, instances) ->
      check Alcotest.bool (name ^ " nonempty") true (instances <> []);
      List.iter
        (fun (i : Instance.t) ->
          check Alcotest.bool (i.Instance.name ^ " has clauses") true
            (Cnf.num_clauses i.Instance.cnf > 0))
        instances)
    classes

let instance_names = List.map (fun (i : Instance.t) -> i.Instance.name)

let test_suites_find_class () =
  List.iter
    (fun (cls, instances) ->
      check
        Alcotest.(list string)
        cls (instance_names instances)
        (instance_names (Berkmin_gen.Suites.find_class cls)))
    (Berkmin_gen.Suites.all ());
  match Berkmin_gen.Suites.find_class "NoSuchClass" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found"

(* The paper tables solve each (configuration, instance name, budget)
   once, so a name must denote one formula wherever it appears. *)
let test_suite_name_is_formula () =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (i : Instance.t) ->
      let formula =
        (Cnf.num_vars i.Instance.cnf, Cnf.clauses i.Instance.cnf, i.expected)
      in
      match Hashtbl.find_opt seen i.Instance.name with
      | None -> Hashtbl.add seen i.Instance.name formula
      | Some f ->
        check Alcotest.bool (i.Instance.name ^ " is one formula") true
          (f = formula))
    (List.concat_map snd
       (Berkmin_gen.Suites.all () @ Berkmin_gen.Suites.quick ())
    @ Berkmin_gen.Suites.hard_instances ())

let test_suite_names_unique () =
  let names =
    List.concat_map
      (fun (_, instances) ->
        List.map (fun (i : Instance.t) -> i.Instance.name) instances)
      (Berkmin_gen.Suites.all ())
  in
  (* Names repeat across classes (bw4 is in two classes) but must be
     unique within a class. *)
  List.iter
    (fun (cls, instances) ->
      let names = List.map (fun (i : Instance.t) -> i.Instance.name) instances in
      check Alcotest.int (cls ^ " unique names")
        (List.length names)
        (List.length (List.sort_uniq compare names)))
    (Berkmin_gen.Suites.all ());
  ignore names

let () =
  Alcotest.run "gen"
    [
      ( "pigeonhole",
        [
          Alcotest.test_case "structure" `Quick test_php_structure;
          Alcotest.test_case "verdicts" `Quick test_php_verdicts;
          Alcotest.test_case "suite" `Quick test_php_suite;
        ] );
      ( "parity",
        [
          Alcotest.test_case "chain sat" `Quick test_parity_chain_sat;
          Alcotest.test_case "cycle unsat" `Quick test_parity_cycle_unsat;
          Alcotest.test_case "tseitin unsat" `Quick test_tseitin_unsat;
          Alcotest.test_case "validation" `Quick test_tseitin_arg_validation;
          qtest prop_parity_chain_always_sat;
        ] );
      ( "hanoi",
        [
          Alcotest.test_case "verdicts" `Slow test_hanoi_verdicts;
          Alcotest.test_case "oracle agrees" `Quick test_hanoi_oracle_agrees;
          Alcotest.test_case "plan is legal" `Quick test_hanoi_plan_is_legal;
          Alcotest.test_case "optimal horizon" `Quick test_hanoi_optimal_horizon;
        ] );
      ( "blocksworld",
        [
          Alcotest.test_case "verdicts" `Slow test_blocksworld_verdicts;
          Alcotest.test_case "oracle agrees" `Quick test_blocksworld_oracle_agrees;
        ] );
      ( "ksat",
        [
          Alcotest.test_case "shape" `Quick test_ksat_shape;
          Alcotest.test_case "validation" `Quick test_ksat_validation;
          qtest prop_planted_always_sat;
        ] );
      ( "coloring",
        [
          Alcotest.test_case "verdicts" `Quick test_coloring_verdicts;
          Alcotest.test_case "edge bounds" `Quick test_coloring_edge_bounds;
        ] );
      ( "circuit-bench",
        [
          Alcotest.test_case "instances" `Slow test_circuit_instances;
          Alcotest.test_case "cone demo" `Slow test_cone_demo;
        ] );
      ( "puzzles",
        [
          Alcotest.test_case "queens verdicts" `Quick test_queens_verdicts;
          Alcotest.test_case "queens model decodes" `Quick
            test_queens_model_decodes;
          Alcotest.test_case "sudoku solves" `Quick test_sudoku_solves;
          Alcotest.test_case "sudoku contradiction" `Quick
            test_sudoku_contradiction;
          Alcotest.test_case "sudoku clue validation" `Quick
            test_sudoku_clue_validation;
        ] );
      ( "suites",
        [
          Alcotest.test_case "well-formed" `Quick test_suites_well_formed;
          Alcotest.test_case "find_class" `Quick test_suites_find_class;
          Alcotest.test_case "unique names" `Quick test_suite_names_unique;
          Alcotest.test_case "one name, one formula" `Quick
            test_suite_name_is_formula;
        ] );
    ]

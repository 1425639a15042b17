(* Tests for the engine extensions beyond the paper's 2002
   configuration: incremental solving with assumptions and failed
   cores, learnt-clause minimization, the top-window decision
   generalisation (Remark 2), and clause simplification and variable
   elimination on small formulas through lib/simplify. *)

open Berkmin_types
module Solver = Berkmin.Solver
module Config = Berkmin.Config
module Engine = Berkmin_simplify.Engine
module Recon = Berkmin_simplify.Recon
module Drup = Berkmin_proof.Drup
module Random_ksat = Berkmin_gen.Random_ksat

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let cnf_of lists =
  let cnf = Cnf.create () in
  List.iter (fun c -> Cnf.add_clause cnf (List.map Lit.of_dimacs c)) lists;
  cnf

(* ------------------------------------------------------------------ *)
(* Assumptions                                                         *)

(* The failed core of an UNSAT [solve ~assumps]: [Some []] when the
   formula is UNSAT on its own. *)
let core_of s =
  match Solver.unsat_core s with
  | Some core -> core
  | None -> Alcotest.fail "UNSAT under assumptions without a core"

let test_assumptions_basic () =
  (* (x | y): SAT under x=0; UNSAT under x=0, y=0. *)
  let s = Solver.create (cnf_of [ [ 1; 2 ] ]) in
  (match Solver.solve ~assumps:[ Lit.neg_of 0 ] s with
  | Solver.Sat m ->
    check Alcotest.bool "x false" false m.(0);
    check Alcotest.bool "y true" true m.(1)
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "expected SAT");
  match Solver.solve ~assumps:[ Lit.neg_of 0; Lit.neg_of 1 ] s with
  | Solver.Unsat ->
    let core = core_of s in
    check Alcotest.bool "core subset of assumptions" true
      (List.for_all (fun l -> List.mem l [ Lit.neg_of 0; Lit.neg_of 1 ]) core);
    check Alcotest.bool "core nonempty" true (core <> [])
  | Solver.Sat _ | Solver.Unknown ->
    Alcotest.fail "expected UNSAT under assumptions"

let test_assumptions_global_unsat () =
  let s = Solver.create (cnf_of [ [ 1 ]; [ -1 ] ]) in
  match Solver.solve ~assumps:[ Lit.pos 1 ] s with
  | Solver.Unsat ->
    check (Alcotest.list Alcotest.int) "formula-level core" [] (core_of s)
  | Solver.Sat _ | Solver.Unknown ->
    Alcotest.fail "globally UNSAT regardless of assumptions"

let test_assumptions_contradictory () =
  let s = Solver.create (cnf_of [ [ 1; 2 ] ]) in
  match Solver.solve ~assumps:[ Lit.pos 0; Lit.neg_of 0 ] s with
  | Solver.Unsat ->
    let core = core_of s in
    check Alcotest.bool "both phases in core" true
      (List.mem (Lit.pos 0) core && List.mem (Lit.neg_of 0) core)
  | Solver.Sat _ | Solver.Unknown -> Alcotest.fail "expected failure"

let test_assumptions_reusable () =
  (* The same solver answers a sequence of queries — the incremental
     use case (e.g. one miter, many output assumptions). *)
  let s = Solver.create (cnf_of [ [ 1; 2 ]; [ -1; 3 ]; [ -2; 3 ] ]) in
  let sat assumps =
    match Solver.solve ~assumps s with
    | Solver.Sat _ -> true
    | Solver.Unsat -> false
    | Solver.Unknown -> Alcotest.fail "unexpected Unknown"
  in
  check Alcotest.bool "q1" true (sat [ Lit.pos 0 ]);
  check Alcotest.bool "q2: ~z forces ~x,~y conflict" false (sat [ Lit.neg_of 2 ]);
  check Alcotest.bool "q3" true (sat [ Lit.pos 1 ]);
  check Alcotest.bool "q4 repeat" false (sat [ Lit.neg_of 2 ]);
  (* Plain solve still works afterwards. *)
  match Solver.solve s with
  | Solver.Sat _ -> ()
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "formula is SAT"

let test_assumptions_unknown_var_rejected () =
  let s = Solver.create (cnf_of [ [ 1 ] ]) in
  Alcotest.check_raises "unknown variable"
    (Invalid_argument "Solver.solve: unknown variable") (fun () ->
      ignore (Solver.solve ~assumps:[ Lit.pos 99 ] s))

let prop_assumptions_agree_with_conjoined =
  (* solve ~assumps:A F must equal solve (F ∧ A as units). *)
  QCheck.Test.make ~name:"assumptions = conjoined units" ~count:400
    QCheck.(triple (int_range 3 10) (int_range 0 1_000_000) (int_range 1 3))
    (fun (nv, seed, n_assumptions) ->
      let cnf =
        Berkmin_gen.Random_ksat.generate ~num_vars:nv ~num_clauses:(4 * nv)
          ~k:3 ~seed
      in
      let rng = Rng.create (seed + 13) in
      let assumptions =
        List.init n_assumptions (fun _ ->
            Lit.make (Rng.int rng nv) (Rng.bool rng))
      in
      let conjoined = Cnf.copy cnf in
      List.iter (fun l -> Cnf.add_clause conjoined [ l ]) assumptions;
      let expected =
        match Solver.solve_cnf conjoined with
        | Solver.Sat _ -> true
        | Solver.Unsat -> false
        | Solver.Unknown -> QCheck.assume_fail ()
      in
      let s = Solver.create cnf in
      match Solver.solve ~assumps:assumptions s with
      | Solver.Sat m ->
        expected
        && Cnf.satisfied_by cnf m
        && List.for_all
             (fun l -> m.(Lit.var l) = Lit.is_pos l)
             assumptions
      | Solver.Unsat -> not expected
      | Solver.Unknown -> QCheck.Test.fail_report "unexpected Unknown")

let prop_failed_core_is_sufficient =
  (* Re-solving under just the failed core must still be UNSAT. *)
  QCheck.Test.make ~name:"failed core alone is still contradictory" ~count:300
    QCheck.(pair (int_range 3 9) (int_range 0 1_000_000))
    (fun (nv, seed) ->
      let cnf =
        Berkmin_gen.Random_ksat.generate ~num_vars:nv ~num_clauses:(5 * nv)
          ~k:3 ~seed
      in
      let rng = Rng.create (seed + 5) in
      let assumptions =
        List.init 3 (fun _ -> Lit.make (Rng.int rng nv) (Rng.bool rng))
      in
      let s = Solver.create cnf in
      match Solver.solve ~assumps:assumptions s with
      | Solver.Unsat when Solver.unsat_core s <> Some [] -> (
        match Solver.solve ~assumps:(core_of s) (Solver.create cnf) with
        | Solver.Unsat -> true
        | Solver.Sat _ -> QCheck.Test.fail_report "core was not contradictory"
        | Solver.Unknown -> QCheck.Test.fail_report "unexpected Unknown")
      | Solver.Sat _ | Solver.Unsat -> QCheck.assume_fail ()
      | Solver.Unknown -> QCheck.Test.fail_report "unexpected Unknown")

let test_assumptions_incremental_equivalence_queries () =
  (* The classic EDA use: one Tseitin encoding, per-output queries. *)
  let module C = Berkmin_circuit.Circuit in
  let module B = Berkmin_circuit.Bitvec in
  let module T = Berkmin_circuit.Tseitin in
  let c = C.create () in
  let a = B.inputs c "a" 4 and b = B.inputs c "b" 4 in
  let r_sum, r_carry = B.ripple_carry_add c a b in
  let s_sum, s_carry = B.carry_select_add c ~block:2 a b in
  let diffs =
    Array.to_list (Array.map2 (C.xor_ c) r_sum s_sum)
    @ [ C.xor_ c r_carry s_carry ]
  in
  List.iteri (fun i d -> C.set_output c (Printf.sprintf "d%d" i) d) diffs;
  let m = T.encode c in
  let solver = Solver.create m.T.cnf in
  List.iteri
    (fun i _ ->
      let out = C.output_exn c (Printf.sprintf "d%d" i) in
      match Solver.solve ~assumps:[ Lit.pos m.T.node_var.(out) ] solver with
      | Solver.Unsat -> ()
      | Solver.Sat _ -> Alcotest.fail (Printf.sprintf "output %d differs" i)
      | Solver.Unknown -> Alcotest.fail "unexpected Unknown")
    diffs

(* ------------------------------------------------------------------ *)
(* Minimization                                                        *)

let minimizing = { Config.berkmin with Config.ccmin_mode = Config.Ccmin_basic }

let prop_minimization_preserves_verdicts =
  QCheck.Test.make ~name:"minimization: verdicts unchanged" ~count:400
    QCheck.(pair (int_range 3 10) (int_range 0 1_000_000))
    (fun (nv, seed) ->
      let cnf =
        Berkmin_gen.Random_ksat.generate ~num_vars:nv ~num_clauses:(9 * nv / 2)
          ~k:3 ~seed
      in
      let verdict config =
        match Solver.solve_cnf ~config cnf with
        | Solver.Sat m ->
          if not (Cnf.satisfied_by cnf m) then
            QCheck.Test.fail_report "invalid model under minimization";
          true
        | Solver.Unsat -> false
        | Solver.Unknown -> QCheck.Test.fail_report "unexpected Unknown"
      in
      verdict Config.berkmin = verdict minimizing)

let prop_minimized_proofs_still_check =
  QCheck.Test.make ~name:"minimization: DRUP proofs stay valid" ~count:100
    QCheck.(pair (int_range 4 9) (int_range 0 1_000_000))
    (fun (nv, seed) ->
      let cnf =
        Berkmin_gen.Random_ksat.generate ~num_vars:nv ~num_clauses:(5 * nv)
          ~k:3 ~seed
      in
      let s = Solver.create ~config:minimizing cnf in
      let proof = Berkmin_proof.Drup.create () in
      Solver.set_proof_logger s (Berkmin_proof.Drup.record proof);
      match Solver.solve s with
      | Solver.Sat _ -> QCheck.assume_fail ()
      | Solver.Unknown -> QCheck.Test.fail_report "unexpected Unknown"
      | Solver.Unsat -> (
        match Berkmin_proof.Drup.check cnf proof with
        | Berkmin_proof.Drup.Valid -> true
        | Berkmin_proof.Drup.Invalid _ -> false))

let test_minimization_shortens_clauses () =
  let cnf = Berkmin_gen.Pigeonhole.php 8 7 in
  let run config =
    let s = Solver.create ~config cnf in
    ignore (Solver.solve s);
    Solver.stats s
  in
  let plain = run Config.berkmin in
  let minimized = run minimizing in
  check Alcotest.bool "literals were dropped" true
    (minimized.Berkmin.Stats.minimized_literals > 0);
  check Alcotest.int "plain never minimizes" 0
    plain.Berkmin.Stats.minimized_literals

(* ------------------------------------------------------------------ *)
(* Top-window decisions (Remark 2)                                     *)

let windowed k = { Config.berkmin with Config.top_window = k }

let prop_window_preserves_verdicts =
  QCheck.Test.make ~name:"top_window: verdicts unchanged" ~count:300
    QCheck.(
      triple (int_range 3 10) (int_range 0 1_000_000) (int_range 2 8))
    (fun (nv, seed, w) ->
      let cnf =
        Berkmin_gen.Random_ksat.generate ~num_vars:nv ~num_clauses:(9 * nv / 2)
          ~k:3 ~seed
      in
      let verdict config =
        match Solver.solve_cnf ~config cnf with
        | Solver.Sat m -> Cnf.satisfied_by cnf m || QCheck.Test.fail_report "bad model"
        | Solver.Unsat -> false
        | Solver.Unknown -> QCheck.Test.fail_report "unexpected Unknown"
      in
      verdict Config.berkmin = verdict (windowed w))

let test_window_solves_known () =
  List.iter
    (fun w ->
      let config = windowed w in
      (match Solver.solve_cnf ~config (Berkmin_gen.Pigeonhole.php 7 6) with
      | Solver.Unsat -> ()
      | Solver.Sat _ | Solver.Unknown ->
        Alcotest.fail (Printf.sprintf "window %d: php(7,6) must be UNSAT" w));
      match
        Solver.solve_cnf ~config
          (Berkmin_gen.Hanoi.encode ~disks:3 ~horizon:7)
      with
      | Solver.Sat _ -> ()
      | Solver.Unsat | Solver.Unknown ->
        Alcotest.fail (Printf.sprintf "window %d: hanoi3 must be SAT" w))
    [ 2; 4; 16 ]

(* ------------------------------------------------------------------ *)
(* Simplify (subsumption + self-subsuming resolution), on lib/simplify *)

let lit = Lit.of_dimacs
let no_bve = { Engine.default_opts with Engine.bve_max_occ = 0 }
let tags out = List.sort compare (List.map (fun c -> c.Engine.tag) out.Engine.kept)

let is_unsat = function Solver.Unsat -> true | _ -> false

let verdict_name = function
  | Solver.Sat _ -> "SAT"
  | Solver.Unsat -> "UNSAT"
  | Solver.Unknown -> "UNKNOWN"

let expect_sat cnf s =
  match Solver.solve s with
  | Solver.Sat m ->
    check Alcotest.bool "model satisfies the original" true
      (Solver.check_model cnf m);
    m
  | r -> Alcotest.failf "expected SAT, got %s" (verdict_name r)

(* Feed plain DIMACS-style clause lists to the engine. *)
let run_engine ?opts ?(frozen = fun _ -> false) ~nvars lists =
  let clauses =
    List.mapi
      (fun i c ->
        { Engine.lits = Array.of_list (List.map lit c);
          tag = i;
          redundant = false })
      lists
  in
  Engine.run ?opts ~nvars ~frozen ~roots:[] ~proof:ignore clauses

(* The formula an engine outcome stands for: the surviving clauses, the
   resolvents, the derived units and the [roots] it started from. *)
let outcome_cnf ~nvars ?(roots = []) out =
  let cnf = Cnf.create ~num_vars:nvars () in
  List.iter (fun c -> Cnf.add_clause_a cnf c.Engine.lits) out.Engine.kept;
  List.iter (Cnf.add_clause_a cnf) out.Engine.resolvents;
  List.iter (fun l -> Cnf.add_clause cnf [ l ]) (roots @ out.Engine.units);
  if out.Engine.unsat then Cnf.add_clause cnf [];
  cnf

let engine_input cnf =
  List.mapi
    (fun i c -> { Engine.lits = Clause.to_array c; tag = i; redundant = false })
    (Cnf.clauses cnf)

let run_cnf ?opts ?(roots = []) cnf =
  Engine.run ?opts ~nvars:(Cnf.num_vars cnf) ~frozen:(fun _ -> false) ~roots
    ~proof:ignore (engine_input cnf)

let random_3sat ~ratio (nv, seed) =
  Random_ksat.generate ~num_vars:nv ~num_clauses:(ratio * nv) ~k:3 ~seed

let random_params = QCheck.(pair (int_range 3 10) (int_range 0 1_000_000))

let test_subsumption_two () =
  (* (1 2) subsumes (1 2 3) and (1 2 4); (3 4 5) stays. *)
  let out =
    run_engine ~opts:no_bve ~nvars:5
      [ [ 1; 2 ]; [ 1; 2; 3 ]; [ 1; 2; 4 ]; [ 3; 4; 5 ] ]
  in
  check Alcotest.int "two subsumed" 2 out.Engine.st.Engine.subsumed;
  check (Alcotest.list Alcotest.int) "two clauses left" [ 0; 3 ] (tags out)

let test_strengthening () =
  (* (x | a) and (~x | a | b): the second strengthens to (a | b), and
     (x | a) stays as it is. *)
  let out = run_engine ~opts:no_bve ~nvars:3 [ [ 1; 2 ]; [ -1; 2; 3 ] ] in
  check Alcotest.bool "strengthened" true (out.Engine.st.Engine.strengthened >= 1);
  let has_clause lits =
    let want = List.sort compare (List.map lit lits) in
    List.exists
      (fun c -> List.sort compare (Array.to_list c.Engine.lits) = want)
      out.Engine.kept
  in
  check Alcotest.bool "(a|b) present" true (has_clause [ 2; 3 ]);
  check Alcotest.bool "original long clause gone" false (has_clause [ -1; 2; 3 ]);
  check Alcotest.bool "(x|a) kept" true (has_clause [ 1; 2 ])

let test_derives_empty () =
  (* The four clauses over x1, x2 are refuted by simplification alone,
     with a proof that derives the empty clause before any search. *)
  let cnf = cnf_of [ [ 1; 2 ]; [ 1; -2 ]; [ -1; 2 ]; [ -1; -2 ] ] in
  let s = Solver.create cnf in
  let proof = Drup.create () in
  Solver.set_proof_logger s (Drup.record proof);
  Solver.simplify s;
  check Alcotest.bool "empty clause derived" true
    (List.exists
       (function Drup.Add c -> Clause.is_empty c | Drup.Delete _ -> false)
       (Drup.events proof));
  check Alcotest.bool "unsat" true (is_unsat (Solver.solve s));
  check Alcotest.int "no conflicts" 0 (Solver.stats s).Berkmin.Stats.conflicts;
  check Alcotest.string "proof" "valid"
    (Drup.check_result_to_string (Drup.check cnf proof))

let test_tautology_and_duplicates () =
  (* The tautology never enters the database; the duplicate clause is
     subsumed by its twin. *)
  let cnf = cnf_of [ [ 1; -1 ]; [ 2; 3 ]; [ 3; 2 ] ] in
  let s = Solver.create cnf in
  check Alcotest.int "tautology dropped" 2 (Solver.num_original_clauses s);
  Solver.simplify s;
  check Alcotest.int "duplicate subsumed" 1
    (Solver.stats s).Berkmin.Stats.subsumed;
  ignore (expect_sat cnf s)

let prop_equivalent_output =
  (* Without elimination every rewrite keeps the formula's meaning:
     models transfer in both directions. *)
  QCheck.Test.make ~name:"simplify: logically equivalent output" ~count:400
    random_params (fun params ->
      let cnf = random_3sat ~ratio:5 params in
      let out = run_cnf ~opts:no_bve cnf in
      let simplified = outcome_cnf ~nvars:(Cnf.num_vars cnf) out in
      match (Solver.solve_cnf cnf, Solver.solve_cnf simplified) with
      | Solver.Sat m, Solver.Sat m' ->
        Cnf.satisfied_by simplified m && Cnf.satisfied_by cnf m'
      | Solver.Unsat, Solver.Unsat -> true
      | _ -> QCheck.Test.fail_report "verdict changed")

let prop_never_grows =
  QCheck.Test.make ~name:"simplify: clause count never grows" ~count:200
    QCheck.(pair (int_range 3 12) (int_range 0 1_000_000))
    (fun params ->
      let cnf = random_3sat ~ratio:4 params in
      let out = run_cnf cnf in
      List.length out.Engine.kept + List.length out.Engine.resolvents
      <= Cnf.num_clauses cnf)

(* ------------------------------------------------------------------ *)
(* Bounded variable elimination                                        *)

let test_pure_literal () =
  (* x1 occurs only positively: eliminating it resolves nothing, so its
     clauses just go.  Freezing the other variables isolates it. *)
  let out =
    run_engine ~nvars:3 ~frozen:(fun v -> v <> 0) [ [ 1; 2 ]; [ 1; 3 ]; [ 2; 3 ] ]
  in
  check (Alcotest.list Alcotest.int) "x1 eliminated" [ 0 ]
    (List.map (fun e -> e.Engine.var) out.Engine.eliminated);
  check Alcotest.int "no resolvents" 0 out.Engine.st.Engine.resolvents_added;
  check (Alcotest.list Alcotest.int) "its clauses gone" [ 2 ] (tags out)

let test_resolution_collapse () =
  (* (x a)(-x b): eliminating x leaves (a b), whose variables are then
     pure too.  Nothing is left, and reconstruction must still rebuild
     a model of the original. *)
  let lists = [ [ 1; 2 ]; [ -1; 3 ] ] in
  let out = run_engine ~nvars:3 lists in
  check Alcotest.bool "x eliminated" true
    (List.exists (fun e -> e.Engine.var = 0) out.Engine.eliminated);
  check Alcotest.int "fully collapsed" 0
    (List.length out.Engine.kept + List.length out.Engine.resolvents);
  let model = [| false; false; false |] in
  Recon.extend out.Engine.eliminated model;
  check Alcotest.bool "reconstructed model works" true
    (Cnf.satisfied_by (cnf_of lists) model)

let test_var_elim_growth_bound () =
  (* 3 pos x 3 neg = 9 resolvents > 6 clauses: with growth 0 x1 must be
     kept.  The other variables are frozen, so x1 is the only candidate
     and none of its clauses can go some other way. *)
  let lists =
    [ [ 1; 2 ]; [ 1; 3 ]; [ 1; 4 ]; [ -1; 5 ]; [ -1; 6 ]; [ -1; 7 ] ]
  in
  let opts = { Engine.default_opts with Engine.bve_growth = 0 } in
  let out = run_engine ~opts ~frozen:(fun v -> v <> 0) ~nvars:7 lists in
  check Alcotest.bool "kept under growth bound" false
    (List.exists (fun e -> e.Engine.var = 0) out.Engine.eliminated);
  check (Alcotest.list Alcotest.int) "all six clauses kept"
    [ 0; 1; 2; 3; 4; 5 ] (tags out)

(* [cnf] and the outcome are equisatisfiable, and a model of the
   outcome, extended over the eliminated variables, satisfies [cnf]. *)
let equisatisfiable cnf out simplified =
  match (Solver.solve_cnf cnf, Solver.solve_cnf simplified) with
  | Solver.Unsat, Solver.Unsat -> true
  | Solver.Sat _, Solver.Sat m ->
    Recon.extend out.Engine.eliminated m;
    Cnf.satisfied_by cnf m
  | _ -> QCheck.Test.fail_report "verdict changed by elimination"

let prop_equisatisfiable =
  QCheck.Test.make ~name:"var_elim: equisatisfiable + model reconstructs"
    ~count:400 random_params (fun params ->
      let cnf = random_3sat ~ratio:4 params in
      let opts = { Engine.default_opts with Engine.bve_growth = 2 } in
      let out = run_cnf ~opts cnf in
      equisatisfiable cnf out (outcome_cnf ~nvars:(Cnf.num_vars cnf) out))

let prop_eliminated_gone =
  QCheck.Test.make ~name:"var_elim: eliminated vars no longer occur"
    ~count:200
    QCheck.(pair (int_range 3 12) (int_range 0 1_000_000))
    (fun params ->
      let out = run_cnf (random_3sat ~ratio:3 params) in
      let mentions v lits = Array.exists (fun l -> Lit.var l = v) lits in
      List.for_all
        (fun e ->
          not
            (List.exists (fun c -> mentions e.Engine.var c.Engine.lits)
               out.Engine.kept
            || List.exists (mentions e.Engine.var) out.Engine.resolvents))
        out.Engine.eliminated)

let prop_pipeline =
  (* A pass without elimination, then an eliminating pass over its
     output with its units as roots, as inprocessing chains passes. *)
  QCheck.Test.make ~name:"pipeline: simplify |> var_elim |> solve" ~count:300
    random_params (fun params ->
      let cnf = random_3sat ~ratio:4 params in
      let nvars = Cnf.num_vars cnf in
      let first = run_cnf ~opts:no_bve cnf in
      let roots = first.Engine.units in
      let second =
        Engine.run ~nvars ~frozen:(fun _ -> false) ~roots ~proof:ignore
          first.Engine.kept
      in
      equisatisfiable cnf second
        (if first.Engine.unsat then outcome_cnf ~nvars first
         else outcome_cnf ~nvars ~roots second))


let () =
  Alcotest.run "extensions"
    [
      ( "assumptions",
        [
          Alcotest.test_case "basic" `Quick test_assumptions_basic;
          Alcotest.test_case "global unsat" `Quick test_assumptions_global_unsat;
          Alcotest.test_case "contradictory" `Quick test_assumptions_contradictory;
          Alcotest.test_case "reusable solver" `Quick test_assumptions_reusable;
          Alcotest.test_case "unknown var" `Quick
            test_assumptions_unknown_var_rejected;
          Alcotest.test_case "incremental equivalence" `Quick
            test_assumptions_incremental_equivalence_queries;
          qtest prop_assumptions_agree_with_conjoined;
          qtest prop_failed_core_is_sufficient;
        ] );
      ( "minimization",
        [
          qtest prop_minimization_preserves_verdicts;
          qtest prop_minimized_proofs_still_check;
          Alcotest.test_case "shortens clauses" `Quick
            test_minimization_shortens_clauses;
        ] );
      ( "top-window",
        [
          qtest prop_window_preserves_verdicts;
          Alcotest.test_case "solves known instances" `Quick
            test_window_solves_known;
        ] );
      ( "simplify",
        [
          Alcotest.test_case "subsumption" `Quick test_subsumption_two;
          Alcotest.test_case "strengthening" `Quick test_strengthening;
          Alcotest.test_case "derives empty" `Quick test_derives_empty;
          Alcotest.test_case "tautology/duplicates" `Quick
            test_tautology_and_duplicates;
          qtest prop_equivalent_output;
          qtest prop_never_grows;
        ] );
      ( "var_elim",
        [
          Alcotest.test_case "pure literal" `Quick test_pure_literal;
          Alcotest.test_case "resolution" `Quick test_resolution_collapse;
          Alcotest.test_case "growth bound" `Quick test_var_elim_growth_bound;
          qtest prop_equisatisfiable;
          qtest prop_eliminated_gone;
          qtest prop_pipeline;
        ] );
    ]

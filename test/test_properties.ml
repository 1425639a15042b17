(* Heavy property-based cross-validation: the CDCL engine against the
   independent DPLL oracle on thousands of random formulas, model
   verification, proof validation, preset agreement, preprocessing
   soundness.  These are the tests that would catch a subtle watched-
   literal or conflict-analysis bug. *)

open Berkmin_types
module Solver = Berkmin.Solver
module Config = Berkmin.Config
module Drup = Berkmin_proof.Drup
module Engine = Berkmin_simplify.Engine
module Recon = Berkmin_simplify.Recon

let qtest = QCheck_alcotest.to_alcotest

(* Random small formulas near the 3-SAT phase transition, where both
   verdicts are likely. *)
let random_cnf_gen =
  QCheck.make
    ~print:(fun (nv, nc, seed) -> Printf.sprintf "vars=%d clauses=%d seed=%d" nv nc seed)
    QCheck.Gen.(
      let* nv = 3 -- 12 in
      let* ratio_pct = 300 -- 550 in
      let nc = max 1 (nv * ratio_pct / 100) in
      let* seed = 0 -- 1_000_000 in
      return (nv, nc, seed))

let build (nv, nc, seed) =
  Berkmin_gen.Random_ksat.generate ~num_vars:nv ~num_clauses:nc ~k:3 ~seed

let oracle_verdict cnf =
  match Berkmin.Dpll.solve cnf with
  | Berkmin.Dpll.Sat _ -> true
  | Berkmin.Dpll.Unsat -> false
  | Berkmin.Dpll.Unknown -> QCheck.assume_fail ()

let solver_verdict ?config cnf =
  match Solver.solve_cnf ?config cnf with
  | Solver.Sat m ->
    if not (Cnf.satisfied_by cnf m) then
      QCheck.Test.fail_report "solver returned an invalid model";
    true
  | Solver.Unsat -> false
  | Solver.Unknown -> QCheck.Test.fail_report "unexpected Unknown without budget"

let prop_agrees_with_oracle =
  QCheck.Test.make ~name:"cdcl = dpll oracle on random 3-SAT" ~count:1500
    random_cnf_gen
    (fun params ->
      let cnf = build params in
      solver_verdict cnf = oracle_verdict cnf)

let prop_all_presets_agree =
  QCheck.Test.make ~name:"all presets give the same verdict" ~count:150
    random_cnf_gen
    (fun params ->
      let cnf = build params in
      let verdicts =
        List.map (fun (_, config) -> solver_verdict ~config cnf) Config.presets
      in
      match verdicts with
      | [] -> true
      | v :: rest -> List.for_all (Bool.equal v) rest)

let prop_unsat_proofs_check =
  QCheck.Test.make ~name:"every UNSAT run emits a valid DRUP proof" ~count:200
    random_cnf_gen
    (fun params ->
      let cnf = build params in
      let solver = Solver.create cnf in
      let proof = Drup.create () in
      Solver.set_proof_logger solver (Drup.record proof);
      match Solver.solve solver with
      | Solver.Sat _ -> QCheck.assume_fail () (* only interested in UNSAT *)
      | Solver.Unknown -> QCheck.Test.fail_report "unexpected Unknown"
      | Solver.Unsat -> (
        match Drup.check cnf proof with
        | Drup.Valid -> true
        | Drup.Invalid { step; reason; _ } ->
          QCheck.Test.fail_report
            (Printf.sprintf "invalid proof at step %d: %s" step reason)))

let prop_preprocess_preserves_verdict =
  (* The simplification engine driven the way the solver drives it: a
     unit clause (picked by the seed) goes in as a root fact, the rest
     as clauses.  The outcome keeps the verdict, and a model of it,
     rebuilt over the eliminated variables, satisfies the original. *)
  QCheck.Test.make ~name:"preprocessing preserves satisfiability" ~count:400
    random_cnf_gen
    (fun ((nv, _, seed) as params) ->
      let cnf = build params in
      let input =
        List.mapi
          (fun i c ->
            { Engine.lits = Clause.to_array c; tag = i; redundant = false })
          (Cnf.clauses cnf)
      in
      let root = Lit.make (seed mod nv) (seed land 1 = 0) in
      Cnf.add_clause cnf [ root ];
      let direct = solver_verdict cnf in
      let out =
        Engine.run ~nvars:nv ~frozen:(fun _ -> false) ~roots:[ root ] input
      in
      if out.Engine.unsat then not direct
      else begin
        let simplified = Cnf.create ~num_vars:nv () in
        List.iter
          (fun c -> Cnf.add_clause_a simplified c.Engine.lits)
          out.Engine.kept;
        List.iter (Cnf.add_clause_a simplified) out.Engine.resolvents;
        List.iter
          (fun l -> Cnf.add_clause simplified [ l ])
          (root :: out.Engine.units);
        match Solver.solve_cnf simplified with
        | Solver.Sat model ->
          Recon.extend out.Engine.eliminated model;
          direct && Cnf.satisfied_by cnf model
        | Solver.Unsat -> not direct
        | Solver.Unknown -> QCheck.Test.fail_report "unexpected Unknown"
      end)

let prop_simplify_preserves_verdict =
  (* The in-solver simplifier (subsumption, self-subsuming resolution,
     bounded variable elimination, failed-literal probing) must never
     change a verdict, and after elimination the reconstructed model
     must still satisfy the ORIGINAL formula — [solver_verdict] checks
     exactly that. *)
  QCheck.Test.make ~name:"simplify (pre and inprocess) preserves every verdict"
    ~count:200 random_cnf_gen
    (fun params ->
      let cnf = build params in
      let plain = solver_verdict cnf in
      let pre =
        solver_verdict
          ~config:{ Config.berkmin with simplify = Simp_pre }
          cnf
      in
      let inproc =
        solver_verdict
          ~config:{ Config.berkmin with simplify = Simp_inprocess }
          cnf
      in
      plain = pre && plain = inproc)

let prop_budget_never_lies =
  (* With a tiny budget the solver may abort, but a definite verdict
     must still be correct. *)
  QCheck.Test.make ~name:"tiny budgets never produce wrong verdicts" ~count:300
    random_cnf_gen
    (fun params ->
      let cnf = build params in
      match Solver.solve_cnf ~budget:(Solver.budget_conflicts 5) cnf with
      | Solver.Unknown -> true
      | Solver.Sat m -> Cnf.satisfied_by cnf m
      | Solver.Unsat -> not (oracle_verdict cnf))

let prop_planted_models_found =
  QCheck.Test.make ~name:"planted instances solved SAT with valid models"
    ~count:200
    QCheck.(pair (QCheck.int_range 5 40) QCheck.small_int)
    (fun (n, seed) ->
      let cnf =
        Berkmin_gen.Random_ksat.planted ~num_vars:n ~num_clauses:(9 * n / 2) ~k:3
          ~seed
      in
      match Solver.solve_cnf cnf with
      | Solver.Sat m -> Cnf.satisfied_by cnf m
      | Solver.Unsat | Solver.Unknown -> false)

let prop_wide_clauses =
  (* Mix clause widths 1..6 to exercise watch handling on long
     clauses and units. *)
  QCheck.Test.make ~name:"mixed-width formulas agree with oracle" ~count:400
    QCheck.(
      pair (int_range 3 10) (int_range 0 1_000_000))
    (fun (nv, seed) ->
      let rng = Rng.create (seed + 1) in
      let cnf = Cnf.create ~num_vars:nv () in
      let n_clauses = 2 + Rng.int rng (4 * nv) in
      for _ = 1 to n_clauses do
        let width = 1 + Rng.int rng (min 6 nv) in
        let lits =
          List.init width (fun _ -> Lit.make (Rng.int rng nv) (Rng.bool rng))
        in
        Cnf.add_clause cnf lits
      done;
      solver_verdict cnf = oracle_verdict cnf)

let prop_cursor_matches_naive =
  (* The cached top-clause cursor must be invisible: under
     [debug_top_cursor] the solver replays the naive full-stack scan
     after every cursor-backed lookup and aborts on any divergence,
     and the decision sequence — every (variable, value) pair, in
     order — must be identical with the cursor check on and off. *)
  QCheck.Test.make ~name:"top-clause cursor picks the naive scan's decisions"
    ~count:300 random_cnf_gen
    (fun params ->
      let cnf = build params in
      let run config =
        let s = Solver.create ~config cnf in
        let decisions = ref [] in
        Solver.set_decision_hook s (fun v b -> decisions := (v, b) :: !decisions);
        let verdict =
          match Solver.solve s with
          | Solver.Sat _ -> true
          | Solver.Unsat -> false
          | Solver.Unknown -> QCheck.Test.fail_report "unexpected Unknown"
        in
        (verdict, List.rev !decisions)
      in
      run { Config.berkmin with debug_top_cursor = true } = run Config.berkmin)

let prop_deterministic =
  QCheck.Test.make ~name:"runs are reproducible" ~count:100 random_cnf_gen
    (fun params ->
      let cnf = build params in
      let run () =
        let s = Solver.create cnf in
        ignore (Solver.solve s);
        let st = Solver.stats s in
        (st.Berkmin.Stats.decisions, st.Berkmin.Stats.conflicts,
         st.Berkmin.Stats.propagations, st.Berkmin.Stats.learnt_total)
      in
      run () = run ())

(* ------------------------------------------------------------------ *)
(* Differential regression tier: a fixed-seed fuzz campaign (lib/fuzz)
   as an ordinary test.  Three solvers are raced — the CDCL engine, the
   same engine under an aggressive restart/deletion schedule that
   compacts the clause arena at nearly every restart, and the
   independent DPLL — and all four oracles (crash, model, DRUP proof,
   verdict agreement) must hold on every round.  In particular, GC can
   never change a verdict.  The campaign is a pure function of the
   seed, so a failure here reproduces exactly. *)

module Fuzz_runner = Berkmin_fuzz.Runner
module Fuzz_oracle = Berkmin_fuzz.Oracle

let gc_heavy_config =
  {
    Config.berkmin with
    Config.restart_mode = Config.Fixed 30;
    young_fraction = 0.5;
    young_keep_length = 100;
    old_keep_length = 1;
    old_activity_threshold = max_int / 2;
    old_threshold_increment = 0;
  }

let test_fuzz_differential_regression () =
  let config =
    {
      Fuzz_runner.default with
      Fuzz_runner.seed = 11;
      rounds = 200;
      solvers =
        Some
          [
            Fuzz_oracle.cdcl ();
            Fuzz_oracle.cdcl ~config:gc_heavy_config ();
            Fuzz_oracle.dpll ();
          ];
    }
  in
  let report = Fuzz_runner.run config in
  let describe ce =
    Berkmin_types.Json.to_string (Fuzz_runner.counterexample_to_json ce)
  in
  Alcotest.check
    Alcotest.(list string)
    "no counterexample in 200 seeded rounds" []
    (List.map describe report.Fuzz_runner.counterexamples);
  Alcotest.check Alcotest.bool "campaign decided SAT rounds" true
    (report.Fuzz_runner.sat > 0);
  Alcotest.check Alcotest.bool "campaign decided UNSAT rounds" true
    (report.Fuzz_runner.unsat > 0)

let test_fuzz_binary_layer_campaign () =
  (* PR-5 regression tier: the binary implication layer reordered BCP
     (binary implications drain before any long-clause watcher), so
     this campaign races the new engine against its own cursor
     cross-check, the pre-existing Chaff configuration and the DPLL
     oracle.  Any verdict change, invalid model, bogus proof or crash
     introduced by the new propagation order fails the round. *)
  let config =
    {
      Fuzz_runner.default with
      Fuzz_runner.seed = 13;
      rounds = 200;
      solvers =
        Some
          [
            Fuzz_oracle.cdcl ();
            Fuzz_oracle.cdcl
              ~config:{ Config.berkmin with debug_top_cursor = true } ();
            Fuzz_oracle.cdcl ~config:Config.chaff ();
            Fuzz_oracle.dpll ();
          ];
    }
  in
  let report = Fuzz_runner.run config in
  let describe ce =
    Berkmin_types.Json.to_string (Fuzz_runner.counterexample_to_json ce)
  in
  Alcotest.check
    Alcotest.(list string)
    "no counterexample in 200 seeded rounds" []
    (List.map describe report.Fuzz_runner.counterexamples);
  Alcotest.check Alcotest.bool "campaign decided SAT rounds" true
    (report.Fuzz_runner.sat > 0);
  Alcotest.check Alcotest.bool "campaign decided UNSAT rounds" true
    (report.Fuzz_runner.unsat > 0)

let prop_gc_never_changes_verdict =
  QCheck.Test.make ~name:"aggressive GC schedule preserves every verdict"
    ~count:200 random_cnf_gen
    (fun params ->
      let cnf = build params in
      solver_verdict ~config:gc_heavy_config cnf = solver_verdict cnf)

let () =
  Alcotest.run "properties"
    [
      ( "cross-validation",
        [
          qtest prop_agrees_with_oracle;
          qtest prop_all_presets_agree;
          qtest prop_wide_clauses;
        ] );
      ( "certificates",
        [ qtest prop_unsat_proofs_check; qtest prop_planted_models_found ] );
      ( "robustness",
        [
          qtest prop_preprocess_preserves_verdict;
          qtest prop_simplify_preserves_verdict;
          qtest prop_budget_never_lies;
          qtest prop_deterministic;
          qtest prop_cursor_matches_naive;
        ] );
      ( "differential-regression",
        [
          Alcotest.test_case "seeded 200-round fuzz campaign, four oracles"
            `Quick test_fuzz_differential_regression;
          Alcotest.test_case
            "seed-13 binary-layer campaign vs chaff, cursor check and dpll"
            `Quick test_fuzz_binary_layer_campaign;
          qtest prop_gc_never_changes_verdict;
        ] );
    ]

(* Tests for the modern search-quality strategies (docs/STRATEGIES.md):
   conflict-clause minimization, phase saving, Luby restarts and
   glue-driven clause-database reduction.

   The hand-built ccmin instances need one trick: every clause is
   padded to three or more literals with a dummy variable [d] forced
   false by a unit clause, because two-literal clauses are routed to
   the binary implication index and drain before the long-clause
   watchers — un-padded, the engine reaches a different first conflict
   than the one the test derives. *)

open Berkmin_types
module Config = Berkmin.Config
module Solver = Berkmin.Solver
module Drup = Berkmin_proof.Drup
module Oracle = Berkmin_fuzz.Oracle
module Fuzz = Berkmin_fuzz.Runner

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let cnf_of lists =
  let cnf = Cnf.create () in
  List.iter (fun c -> Cnf.add_clause cnf (List.map Lit.of_dimacs c)) lists;
  cnf

let lits_to_dimacs arr = Array.to_list (Array.map Lit.to_dimacs arr)

let sorted = List.sort compare

(* Runs [cnf] with the hand-traced decisions pinned as assumptions
   (conflicts inside the assumption prefix analyze normally) and
   returns the first conflict's learnt clause before and after
   minimization — asserting literal first, remainder sorted — plus
   the end-of-run statistics. *)
let first_conflict ?(ccmin = Config.Ccmin_off) ~assumps cnf =
  let config = { Config.berkmin with ccmin_mode = ccmin } in
  let s = Solver.create ~config cnf in
  let captured = ref None in
  let shape = function
    | [] -> Alcotest.fail "empty learnt clause"
    | asserting :: rest -> asserting :: sorted rest
  in
  Solver.set_minimize_hook s (fun ~before ~after ->
      if !captured = None then
        captured :=
          Some (shape (lits_to_dimacs before), shape (lits_to_dimacs after)));
  ignore (Solver.solve ~assumps:(List.map Lit.of_dimacs assumps) s);
  match !captured with
  | Some (before, after) -> (before, after, Solver.stats s)
  | None -> Alcotest.fail "no conflict reached"

(* Case A — basic removes exactly one literal.  Variables are DIMACS
   1..6, the dummy is 7.  Assuming 1 propagates 2; assuming 3
   propagates 4, then 5 and -6 from 4, and clause (-5 -2 6 7) is left
   all-false: the 1-UIP resolution learns (-4 -2 -1), asserting -4.
   Basic minimization drops -2: its reason (-1 2 7) is covered by the
   in-clause assumption 1 and the level-0 dummy. *)
let case_a =
  [
    [ -7 ];
    [ -1; 2; 7 ];
    [ -3; 4; 7 ];
    [ -4; -1; 5; 7 ];
    [ -5; -2; 6; 7 ];
    [ -6; -4; 7 ];
  ]

let test_ccmin_off_keeps_clause () =
  let before, after, st = first_conflict ~assumps:[ 1; 3 ] (cnf_of case_a) in
  check (Alcotest.list Alcotest.int) "unminimized 1-UIP" [ -4; -2; -1 ] before;
  check (Alcotest.list Alcotest.int) "untouched" before after;
  check Alcotest.int "no literals counted" 0
    st.Berkmin.Stats.minimized_literals

let test_ccmin_basic_removes_redundant () =
  let before, after, st =
    first_conflict ~ccmin:Config.Ccmin_basic ~assumps:[ 1; 3 ] (cnf_of case_a)
  in
  check (Alcotest.list Alcotest.int) "unminimized 1-UIP" [ -4; -2; -1 ] before;
  check (Alcotest.list Alcotest.int) "minimized" [ -4; -1 ] after;
  check Alcotest.bool "counter fired" true
    (st.Berkmin.Stats.minimized_literals >= 1);
  (* Deep subsumes basic: it removes the same literal here. *)
  let _, after_deep, _ =
    first_conflict ~ccmin:Config.Ccmin_deep ~assumps:[ 1; 3 ] (cnf_of case_a)
  in
  check (Alcotest.list Alcotest.int) "deep agrees" [ -4; -1 ] after_deep

(* Case B — only deep removes.  Variables are DIMACS 1..7, the dummy
   is 8.  Assuming 1 propagates 2 and then 7; assuming 3 runs into a
   conflict whose 1-UIP clause is (-4 -7 -1), asserting -4.  Basic
   keeps -7: its reason (-2 7 8) mentions variable 2, which never
   entered the resolution.  Deep recurses through 2's own reason
   (-1 2 8) — covered by the assumption 1 and the level-0 dummy — and
   removes it. *)
let case_b =
  [
    [ -8 ];
    [ -1; 2; 8 ];
    [ -2; 7; 8 ];
    [ -3; 4; 8 ];
    [ -4; -1; 5; 8 ];
    [ -5; -7; 6; 8 ];
    [ -6; -4; 8 ];
  ]

let test_ccmin_deep_removes_more () =
  let before_b, after_b, _ =
    first_conflict ~ccmin:Config.Ccmin_basic ~assumps:[ 1; 3 ] (cnf_of case_b)
  in
  check (Alcotest.list Alcotest.int) "unminimized 1-UIP" [ -4; -7; -1 ]
    before_b;
  check (Alcotest.list Alcotest.int) "basic keeps -7" [ -4; -7; -1 ] after_b;
  let before_d, after_d, st =
    first_conflict ~ccmin:Config.Ccmin_deep ~assumps:[ 1; 3 ] (cnf_of case_b)
  in
  check (Alcotest.list Alcotest.int) "same 1-UIP" before_b before_d;
  check (Alcotest.list Alcotest.int) "deep removes -7" [ -4; -1 ] after_d;
  check Alcotest.bool "counter fired" true
    (st.Berkmin.Stats.minimized_literals >= 1)

(* ------------------------------------------------------------------ *)
(* ccmin invariants under QCheck: on every conflict of every random
   instance, the minimized clause is a subset of the unminimized one
   and the asserting literal survives; and the verdict matches the
   ccmin-off engine's. *)

let subset xs ys = List.for_all (fun x -> List.mem x ys) xs

let prop_ccmin_invariants =
  QCheck.Test.make ~name:"ccmin: subset, asserting kept, verdict unchanged"
    ~count:400
    QCheck.(pair (int_range 3 10) (int_range 0 1_000_000))
    (fun (nv, seed) ->
      let cnf =
        Berkmin_gen.Random_ksat.generate ~num_vars:nv
          ~num_clauses:(9 * nv / 2) ~k:3 ~seed
      in
      let deep = { Config.berkmin with Config.ccmin_mode = Config.Ccmin_deep } in
      let s = Solver.create ~config:deep cnf in
      Solver.set_minimize_hook s (fun ~before ~after ->
          if Array.length after = 0 then
            QCheck.Test.fail_report "minimized to the empty clause";
          if after.(0) <> before.(0) then
            QCheck.Test.fail_report "asserting literal not preserved";
          if not (subset (lits_to_dimacs after) (lits_to_dimacs before)) then
            QCheck.Test.fail_report "minimized clause not a subset");
      let verdict result =
        match result with
        | Solver.Sat m ->
          if not (Cnf.satisfied_by cnf m) then
            QCheck.Test.fail_report "invalid model under ccmin";
          true
        | Solver.Unsat -> false
        | Solver.Unknown -> QCheck.Test.fail_report "unexpected Unknown"
      in
      verdict (Solver.solve s) = verdict (Solver.solve_cnf cnf))

(* DRUP stays forward-checkable with deep minimization stacked on the
   eliminating preprocessor: every minimized learnt clause must be
   derivable by the checker's unit propagation alone. *)
let test_ccmin_deep_drup_with_elimination () =
  let cnf = Berkmin_gen.Pigeonhole.php 7 6 in
  let config =
    { Config.berkmin with simplify = Simp_pre; ccmin_mode = Ccmin_deep }
  in
  let s = Solver.create ~config cnf in
  let proof = Drup.create () in
  Solver.set_proof_logger s (Drup.record proof);
  (match Solver.solve s with
  | Solver.Unsat -> ()
  | Solver.Sat _ | Solver.Unknown -> Alcotest.fail "expected UNSAT");
  let st = Solver.stats s in
  check Alcotest.bool "minimization fired" true
    (st.Berkmin.Stats.minimized_literals > 0);
  match Drup.check cnf proof with
  | Drup.Valid -> ()
  | Drup.Invalid { step; reason; _ } ->
    Alcotest.fail (Printf.sprintf "proof invalid at step %d: %s" step reason)

(* ------------------------------------------------------------------ *)
(* Phase saving                                                        *)

let test_phase_saving_hits_live () =
  let cnf = Berkmin_gen.Pigeonhole.php 7 6 in
  let saving = { Config.berkmin with phase_saving = true } in
  let run config =
    let s = Solver.create ~config cnf in
    let r = Solver.solve s in
    (r, Solver.stats s)
  in
  let r_on, st_on = run saving in
  let r_off, st_off = run Config.berkmin in
  check Alcotest.bool "verdict unchanged" true (r_on = Unsat && r_off = Unsat);
  check Alcotest.bool "hits counted" true
    (st_on.Berkmin.Stats.saved_phase_hits > 0);
  check Alcotest.int "off counts nothing" 0
    st_off.Berkmin.Stats.saved_phase_hits

(* ------------------------------------------------------------------ *)
(* Luby restarts                                                       *)

let test_luby_prefix () =
  let expected = [ 1; 1; 2; 1; 1; 2; 4; 1; 1; 2; 1; 1; 2; 4; 8 ] in
  check
    (Alcotest.list Alcotest.int)
    "first 15 terms" expected
    (List.init 15 (fun i -> Berkmin.Luby.term (i + 1)))

let test_luby_restart_sequence_index () =
  let cnf = Berkmin_gen.Pigeonhole.php 7 6 in
  let config = { Config.berkmin with restart_mode = Luby 32 } in
  let s = Solver.create ~config cnf in
  (match Solver.solve s with
  | Solver.Unsat -> ()
  | Solver.Sat _ | Solver.Unknown -> Alcotest.fail "expected UNSAT");
  let st = Solver.stats s in
  check Alcotest.bool "sequence advanced" true
    (st.Berkmin.Stats.restart_seq_index > 0);
  check Alcotest.int "index counts restarts" st.Berkmin.Stats.restarts
    st.Berkmin.Stats.restart_seq_index

(* ------------------------------------------------------------------ *)
(* Glue-driven reduction                                               *)

let test_glue_reduction_classifies () =
  let cnf = Berkmin_gen.Pigeonhole.php 8 7 in
  let config = { Config.berkmin with reduction_mode = Glue_lbd 3 } in
  let s = Solver.create ~config cnf in
  (match Solver.solve s with
  | Solver.Unsat -> ()
  | Solver.Sat _ | Solver.Unknown -> Alcotest.fail "expected UNSAT");
  let st = Solver.stats s in
  check Alcotest.bool "classified clauses" true
    (st.Berkmin.Stats.glue_reduction_kept
     + st.Berkmin.Stats.glue_reduction_dropped
    > 0)

(* ------------------------------------------------------------------ *)
(* Every strategy preserves verdicts on random instances.              *)

let strategy_configs =
  [
    "ccmin-deep", { Config.berkmin with ccmin_mode = Ccmin_deep };
    "phase-saving", { Config.berkmin with phase_saving = true };
    "luby", { Config.berkmin with restart_mode = Luby 64 };
    "glue-reduce", { Config.berkmin with reduction_mode = Glue_lbd 3 };
    "modern", Config.modern;
  ]

let prop_strategies_preserve_verdicts =
  QCheck.Test.make ~name:"strategies: verdicts unchanged" ~count:150
    QCheck.(pair (int_range 3 10) (int_range 0 1_000_000))
    (fun (nv, seed) ->
      let cnf =
        Berkmin_gen.Random_ksat.generate ~num_vars:nv
          ~num_clauses:(9 * nv / 2) ~k:3 ~seed
      in
      let verdict config =
        match Solver.solve_cnf ~config cnf with
        | Solver.Sat m ->
          if not (Cnf.satisfied_by cnf m) then
            QCheck.Test.fail_report "invalid model";
          true
        | Solver.Unsat -> false
        | Solver.Unknown -> QCheck.Test.fail_report "unexpected Unknown"
      in
      let plain = verdict Config.berkmin in
      List.for_all (fun (_, config) -> verdict config = plain)
        strategy_configs)

(* ------------------------------------------------------------------ *)
(* Differential campaign: 200 seed-fixed rounds racing every strategy
   lane (plus the all-on modern lane) against the plain CDCL and DPLL
   engines — the same lane set `berkmin-fuzz --strategies true` runs.
   Zero counterexamples or the whole campaign report is printed by
   Alcotest on failure.                                                *)

let test_strategy_lanes_campaign () =
  let config =
    {
      Fuzz.default with
      Fuzz.seed = 42;
      rounds = 200;
      solvers =
        Some
          (Oracle.default_solvers () @ Oracle.strategy_solvers ());
    }
  in
  let report = Fuzz.run config in
  check Alcotest.int "no disagreements" 0
    (List.length report.Fuzz.counterexamples)

(* ------------------------------------------------------------------ *)
(* The --strategy preset and its overrides, as the front ends parse     *)
(* them (bin/flags.ml).                                                 *)

let parse_config args =
  let quiet = Format.make_formatter (fun _ _ _ -> ()) ignore in
  match
    Cmdliner.Cmd.eval_value ~help:quiet ~err:quiet
      ~argv:(Array.of_list ("berkmin" :: args))
      (Cmdliner.Cmd.v (Cmdliner.Cmd.info "berkmin") Flags.config)
  with
  | Ok (`Ok config) -> Ok config
  | Ok (`Help | `Version) -> Alcotest.fail "help or version requested"
  | Error e -> Error e

let config_result =
  Alcotest.testable
    (fun fmt -> function
      | Ok c -> Config.pp fmt c
      | Error `Parse -> Format.pp_print_string fmt "parse error"
      | Error (`Term | `Exn) -> Format.pp_print_string fmt "other error")
    ( = )

let test_flags_preset () =
  check config_result "no flag" (Ok Config.berkmin) (parse_config []);
  List.iter
    (fun (name, preset) ->
      check config_result name (Ok preset) (parse_config [ "-s"; name ]))
    Config.presets

let test_flags_each_override () =
  List.iter
    (fun (args, expected) ->
      check config_result (String.concat " " args) (Ok expected)
        (parse_config args))
    [
      [ "--simplify"; "pre" ], { Config.berkmin with simplify = Simp_pre };
      ( [ "--ccmin"; "basic" ],
        { Config.berkmin with ccmin_mode = Ccmin_basic } );
      [ "--phase-saving"; "true" ], { Config.berkmin with phase_saving = true };
      ( [ "--phase-saving"; "false"; "-s"; "modern" ],
        { Config.modern with phase_saving = false } );
      ( [ "--restarts"; "luby:32" ],
        { Config.berkmin with restart_mode = Luby 32 } );
      ( [ "--restarts"; "none" ],
        { Config.berkmin with restart_mode = No_restarts } );
      ( [ "--reduce"; "glue:4" ],
        { Config.berkmin with reduction_mode = Glue_lbd 4 } );
      ( [ "--reduce"; "keep-all"; "--strategy"; "chaff" ],
        { Config.chaff with reduction_mode = Keep_all } );
    ]

let test_flags_modern () =
  check config_result "four overrides over berkmin" (Ok Config.modern)
    (parse_config
       [
         "--ccmin"; "deep"; "--phase-saving"; "true"; "--restarts"; "luby:64";
         "--reduce"; "glue:3";
       ])

let test_flags_bad_values () =
  List.iter
    (fun args ->
      check config_result (String.concat " " args) (Error `Parse)
        (parse_config args))
    [
      [ "--strategy"; "nosuch" ];
      [ "--simplify"; "sometimes" ];
      [ "--ccmin"; "x" ];
      [ "--phase-saving"; "maybe" ];
      [ "--restarts"; "luby:0" ];
      [ "--restarts"; "fixed:-5" ];
      [ "--reduce"; "glue:0" ];
      [ "--reduce"; "length" ];
    ]

let () =
  Alcotest.run "strategies"
    [
      ( "ccmin",
        [
          Alcotest.test_case "off keeps the 1-UIP clause" `Quick
            test_ccmin_off_keeps_clause;
          Alcotest.test_case "basic removes a redundant literal" `Quick
            test_ccmin_basic_removes_redundant;
          Alcotest.test_case "deep removes what basic cannot" `Quick
            test_ccmin_deep_removes_more;
          qtest prop_ccmin_invariants;
          Alcotest.test_case "DRUP valid with elimination + deep ccmin" `Quick
            test_ccmin_deep_drup_with_elimination;
        ] );
      ( "phase-saving",
        [
          Alcotest.test_case "saved-phase hits counted live" `Quick
            test_phase_saving_hits_live;
        ] );
      ( "luby",
        [
          Alcotest.test_case "sequence prefix" `Quick test_luby_prefix;
          Alcotest.test_case "restart sequence index advances" `Quick
            test_luby_restart_sequence_index;
        ] );
      ( "glue-reduce",
        [
          Alcotest.test_case "reduction classifies learnt clauses" `Quick
            test_glue_reduction_classifies;
        ] );
      ( "flags",
        [
          Alcotest.test_case "no override keeps the preset" `Quick
            test_flags_preset;
          Alcotest.test_case "each override sets its field" `Quick
            test_flags_each_override;
          Alcotest.test_case "modern overrides over berkmin" `Quick
            test_flags_modern;
          Alcotest.test_case "bad values are parse errors" `Quick
            test_flags_bad_values;
        ] );
      ( "differential",
        [
          qtest prop_strategies_preserve_verdicts;
          Alcotest.test_case "200-round campaign, all lanes" `Slow
            test_strategy_lanes_campaign;
        ] );
    ]

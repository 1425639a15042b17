(* Tests for DRUP proof logging and checking. *)

open Berkmin_types
module Drup = Berkmin_proof.Drup

let check = Alcotest.check

let cl lits = Clause.of_list (List.map Lit.of_dimacs lits)

let cnf_of lists =
  let cnf = Cnf.create () in
  List.iter (fun c -> Cnf.add_clause cnf (List.map Lit.of_dimacs c)) lists;
  cnf

let is_valid = function Drup.Valid -> true | Drup.Invalid _ -> false

(* ------------------------------------------------------------------ *)
(* is_rup                                                              *)

let test_is_rup_direct_conflict () =
  (* From (x) and (~x | y), the clause (y) is RUP. *)
  let cnf = cnf_of [ [ 1 ]; [ -1; 2 ] ] in
  check Alcotest.bool "unit consequence" true (Drup.is_rup cnf ~extra:[] (cl [ 2 ]));
  check Alcotest.bool "non-consequence" false (Drup.is_rup cnf ~extra:[] (cl [ -2 ]))

let test_is_rup_uses_extra () =
  let cnf = cnf_of [ [ 1; 2 ] ] in
  check Alcotest.bool "without extra" false (Drup.is_rup cnf ~extra:[] (cl [ 2 ]));
  check Alcotest.bool "with extra" true
    (Drup.is_rup cnf ~extra:[ cl [ -1 ] ] (cl [ 2 ]))

let test_is_rup_tautology () =
  let cnf = cnf_of [] in
  check Alcotest.bool "tautology vacuous" true
    (Drup.is_rup cnf ~extra:[] (cl [ 1; -1 ]))

let test_is_rup_empty_clause () =
  let cnf = cnf_of [ [ 1 ]; [ -1 ] ] in
  check Alcotest.bool "contradictory units give empty" true
    (Drup.is_rup cnf ~extra:[] (cl []))

(* ------------------------------------------------------------------ *)
(* check                                                               *)

let test_check_hand_proof () =
  (* php(2,1): (p1) (p2) (~p1|~p2).  Unit propagation alone refutes it,
     so adding just the empty clause is a valid DRUP proof. *)
  let cnf = cnf_of [ [ 1 ]; [ 2 ]; [ -1; -2 ] ] in
  let proof = Drup.create () in
  Drup.record proof (Drup.Add (cl []));
  check Alcotest.bool "valid" true (is_valid (Drup.check cnf proof))

let test_check_rejects_non_rup () =
  let cnf = cnf_of [ [ 1; 2 ] ] in
  let proof = Drup.create () in
  Drup.record proof (Drup.Add (cl [ 1 ]));
  (match Drup.check cnf proof with
  | Drup.Invalid { step = 1; reason = "not RUP"; _ } -> ()
  | Drup.Invalid _ | Drup.Valid -> Alcotest.fail "expected not-RUP at step 1")

let test_check_requires_empty_clause () =
  let cnf = cnf_of [ [ 1 ]; [ -1; 2 ] ] in
  let proof = Drup.create () in
  Drup.record proof (Drup.Add (cl [ 2 ]));
  (match Drup.check cnf proof with
  | Drup.Invalid { reason; _ } ->
    check Alcotest.string "reason" "empty clause never derived" reason
  | Drup.Valid -> Alcotest.fail "proof without empty clause accepted")

let test_check_rejects_unknown_delete () =
  let cnf = cnf_of [ [ 1 ] ] in
  let proof = Drup.create () in
  Drup.record proof (Drup.Delete (cl [ 5; 6 ]));
  (match Drup.check cnf proof with
  | Drup.Invalid { reason = "deleting unknown clause"; _ } -> ()
  | Drup.Invalid _ | Drup.Valid -> Alcotest.fail "expected delete error")

let test_check_delete_weakens () =
  (* Add (y), delete it, then (z) must no longer be derivable from it. *)
  let cnf = cnf_of [ [ 1 ]; [ -1; 2 ]; [ -2; 3 ] ] in
  let proof = Drup.create () in
  Drup.record proof (Drup.Add (cl [ 2 ]));
  Drup.record proof (Drup.Delete (cl [ 2 ]));
  Drup.record proof (Drup.Add (cl [ 3 ]));
  (* (3) is still RUP from the original clauses, so this stays valid
     except for the missing empty clause. *)
  (match Drup.check cnf proof with
  | Drup.Invalid { reason = "empty clause never derived"; _ } -> ()
  | Drup.Invalid { reason; _ } -> Alcotest.fail ("unexpected: " ^ reason)
  | Drup.Valid -> Alcotest.fail "no refutation was given")

(* ------------------------------------------------------------------ *)
(* Serialisation                                                       *)

let test_to_string_format () =
  let proof = Drup.create () in
  Drup.record proof (Drup.Add (cl [ 1; -2 ]));
  Drup.record proof (Drup.Delete (cl [ 3 ]));
  Drup.record proof (Drup.Add (cl []));
  (* Clause literals are stored sorted by the internal encoding, which
     orders by variable then phase: 1 before -2. *)
  check Alcotest.string "drup text" "1 -2 0\nd 3 0\n0\n" (Drup.to_string proof)

let test_parse_roundtrip () =
  let text = "1 2 0\nd -3 0\n0\n" in
  let proof = Drup.parse_string text in
  check Alcotest.int "events" 3 (Drup.length proof);
  check Alcotest.string "roundtrip" text (Drup.to_string proof)

let test_parse_rejects_garbage () =
  match Drup.parse_string "1 banana 0\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure"

(* ------------------------------------------------------------------ *)
(* Negative paths: corrupted, truncated and reordered proofs must be
   rejected — never accepted, never a crash.                           *)

let expect_parse_failure name text =
  match Drup.parse_string text with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail (name ^ ": malformed proof accepted")

let test_parse_rejects_truncated_line () =
  (* A line that lost its terminating 0 is a truncated file, not a
     shorter clause. *)
  expect_parse_failure "no terminator" "1 2\n";
  expect_parse_failure "cut mid-proof" "1 2 0\n-1 3\n"

let test_parse_rejects_interior_zero () =
  expect_parse_failure "two clauses on a line" "1 0 2 0\n";
  expect_parse_failure "leading zero" "0 1 0\n"

let test_parse_rejects_bare_delete () =
  expect_parse_failure "bare d" "d\n";
  expect_parse_failure "minus zero" "-0 0\n"

(* A real solver-produced refutation to corrupt. *)
let solver_proof () =
  let inst = Berkmin_gen.Pigeonhole.instance 4 3 in
  let cnf = inst.Berkmin_gen.Instance.cnf in
  let solver = Berkmin.Solver.create cnf in
  let proof = Drup.create () in
  Berkmin.Solver.set_proof_logger solver (Drup.record proof);
  (match Berkmin.Solver.solve solver with
  | Berkmin.Solver.Unsat -> ()
  | Berkmin.Solver.Sat _ | Berkmin.Solver.Unknown ->
    Alcotest.fail "php(4,3) should be UNSAT");
  check Alcotest.bool "sanity: proof valid" true
    (is_valid (Drup.check cnf proof));
  (cnf, Drup.events proof)

let replay events =
  let proof = Drup.create () in
  List.iter (Drup.record proof) events;
  proof

let test_check_rejects_truncated_proof () =
  (* Truncating the proof before its empty-clause step loses the
     refutation: every prefix that stops earlier must be rejected. *)
  let cnf, events = solver_proof () in
  let is_empty_add = function
    | Drup.Add c -> Clause.is_empty c
    | Drup.Delete _ -> false
  in
  let rec prefix = function
    | [] -> []
    | e :: _ when is_empty_add e -> []
    | e :: rest -> e :: prefix rest
  in
  match Drup.check cnf (replay (prefix events)) with
  | Drup.Invalid { reason = "empty clause never derived"; _ } -> ()
  | Drup.Invalid { reason; _ } ->
    Alcotest.fail ("unexpected reason: " ^ reason)
  | Drup.Valid -> Alcotest.fail "truncated proof accepted"

let test_check_rejects_corrupted_step () =
  (* Replace the first learnt clause by a unit over a fresh variable:
     nothing in php(4,3) propagates to a conflict from just its
     negation, so the step cannot be RUP. *)
  let cnf, events = solver_proof () in
  let fresh = Cnf.num_vars cnf + 5 in
  let corrupted =
    match events with
    | _ :: rest -> Drup.Add (cl [ fresh + 1 ]) :: rest
    | [] -> Alcotest.fail "empty solver proof"
  in
  match Drup.check cnf (replay corrupted) with
  | Drup.Invalid { step = 1; reason = "not RUP"; _ } -> ()
  | Drup.Invalid { reason; _ } ->
    Alcotest.fail ("unexpected reason: " ^ reason)
  | Drup.Valid -> Alcotest.fail "corrupted proof accepted"

let test_check_rejects_reordered_proof () =
  (* Moving the empty-clause step first asks the checker to refute the
     formula by unit propagation alone, which php(4,3) resists. *)
  let cnf, events = solver_proof () in
  let is_empty_add = function
    | Drup.Add c -> Clause.is_empty c
    | Drup.Delete _ -> false
  in
  let empty_add =
    match List.filter is_empty_add events with
    | e :: _ -> e
    | [] -> Alcotest.fail "proof without empty clause"
  in
  let reordered =
    empty_add :: List.filter (fun e -> not (is_empty_add e)) events
  in
  match Drup.check cnf (replay reordered) with
  | Drup.Invalid { step = 1; reason = "not RUP"; _ } -> ()
  | Drup.Invalid { reason; _ } ->
    Alcotest.fail ("unexpected reason: " ^ reason)
  | Drup.Valid -> Alcotest.fail "reordered proof accepted"

let test_check_rejects_delete_before_add () =
  let cnf = cnf_of [ [ 1 ]; [ -1; 2 ] ] in
  let proof = Drup.create () in
  Drup.record proof (Drup.Delete (cl [ 2 ]));
  Drup.record proof (Drup.Add (cl [ 2 ]));
  match Drup.check cnf proof with
  | Drup.Invalid { step = 1; reason = "deleting unknown clause"; _ } -> ()
  | Drup.Invalid { reason; _ } ->
    Alcotest.fail ("unexpected reason: " ^ reason)
  | Drup.Valid -> Alcotest.fail "delete-before-add accepted"

let test_check_result_to_string () =
  check Alcotest.string "valid" "valid" (Drup.check_result_to_string Drup.Valid);
  let r =
    Drup.Invalid { step = 3; clause = cl [ 1; -2 ]; reason = "not RUP" }
  in
  check Alcotest.string "invalid" "step 3: not RUP: [1 -2]"
    (Drup.check_result_to_string r)

(* ------------------------------------------------------------------ *)
(* End-to-end: solver proofs check on every UNSAT family.              *)

let solver_proof_cases =
  let unsat_instances =
    [
      Berkmin_gen.Pigeonhole.instance 5 4;
      Berkmin_gen.Pigeonhole.instance 6 5;
      Berkmin_gen.Hanoi.unsat_instance 2;
      Berkmin_gen.Blocksworld.unsat_instance 3;
      Berkmin_gen.Instance.make "cycle10" Berkmin_gen.Instance.Expect_unsat
        (Berkmin_gen.Parity.inconsistent_cycle ~num_vars:10);
      Berkmin_gen.Graph_coloring.clique_instance 5 ~colors:4;
      Berkmin_gen.Parity.tseitin_instance ~num_vars:8 ~degree:3 ~seed:7;
      Berkmin_gen.Circuit_bench.adder_miter ~width:4;
    ]
  in
  let configs =
    [ "berkmin", Berkmin.Config.berkmin; "chaff", Berkmin.Config.chaff ]
  in
  List.concat_map
    (fun (cname, config) ->
      List.map
        (fun inst ->
          let name =
            Printf.sprintf "%s proof on %s" cname
              inst.Berkmin_gen.Instance.name
          in
          Alcotest.test_case name `Slow (fun () ->
              let cnf = inst.Berkmin_gen.Instance.cnf in
              let solver = Berkmin.Solver.create ~config cnf in
              let proof = Drup.create () in
              Berkmin.Solver.set_proof_logger solver (Drup.record proof);
              (match Berkmin.Solver.solve solver with
              | Berkmin.Solver.Unsat -> ()
              | Berkmin.Solver.Sat _ | Berkmin.Solver.Unknown ->
                Alcotest.fail "expected UNSAT");
              check Alcotest.bool "proof valid" true
                (is_valid (Drup.check cnf proof))))
        unsat_instances)
    configs

(* Root facts must reach the proof with simplification off too.  With
   restarts every 10 conflicts, [reduce_db] on this instance deletes a
   learnt clause that was the only support of a level-0 fact; the
   proof stays checkable only if that fact was logged as a unit when
   it was derived. *)
let test_root_fact_outlives_its_support () =
  let cnf =
    Berkmin_gen.Random_ksat.generate ~num_vars:30 ~num_clauses:150 ~k:3
      ~seed:17
  in
  let config = { Berkmin.Config.berkmin with restart_mode = Fixed 10 } in
  let solver = Berkmin.Solver.create ~config cnf in
  let proof = Drup.create () in
  Berkmin.Solver.set_proof_logger solver (Drup.record proof);
  (match Berkmin.Solver.solve solver with
  | Berkmin.Solver.Unsat -> ()
  | Berkmin.Solver.Sat _ | Berkmin.Solver.Unknown ->
    Alcotest.fail "expected UNSAT");
  check Alcotest.string "proof" "valid"
    (Drup.check_result_to_string (Drup.check cnf proof))

let () =
  Alcotest.run "proof"
    [
      ( "is_rup",
        [
          Alcotest.test_case "direct conflict" `Quick test_is_rup_direct_conflict;
          Alcotest.test_case "uses extra" `Quick test_is_rup_uses_extra;
          Alcotest.test_case "tautology" `Quick test_is_rup_tautology;
          Alcotest.test_case "empty clause" `Quick test_is_rup_empty_clause;
        ] );
      ( "check",
        [
          Alcotest.test_case "hand proof" `Quick test_check_hand_proof;
          Alcotest.test_case "rejects non-RUP" `Quick test_check_rejects_non_rup;
          Alcotest.test_case "requires empty clause" `Quick
            test_check_requires_empty_clause;
          Alcotest.test_case "rejects unknown delete" `Quick
            test_check_rejects_unknown_delete;
          Alcotest.test_case "delete weakens" `Quick test_check_delete_weakens;
        ] );
      ( "serialisation",
        [
          Alcotest.test_case "to_string format" `Quick test_to_string_format;
          Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "parse rejects garbage" `Quick
            test_parse_rejects_garbage;
        ] );
      ( "negative",
        [
          Alcotest.test_case "parse rejects truncated line" `Quick
            test_parse_rejects_truncated_line;
          Alcotest.test_case "parse rejects interior zero" `Quick
            test_parse_rejects_interior_zero;
          Alcotest.test_case "parse rejects bare delete" `Quick
            test_parse_rejects_bare_delete;
          Alcotest.test_case "check rejects truncated proof" `Quick
            test_check_rejects_truncated_proof;
          Alcotest.test_case "check rejects corrupted step" `Quick
            test_check_rejects_corrupted_step;
          Alcotest.test_case "check rejects reordered proof" `Quick
            test_check_rejects_reordered_proof;
          Alcotest.test_case "check rejects delete before add" `Quick
            test_check_rejects_delete_before_add;
          Alcotest.test_case "check_result_to_string" `Quick
            test_check_result_to_string;
        ] );
      ( "end-to-end",
        Alcotest.test_case "root fact outlives its support" `Quick
          test_root_fact_outlives_its_support
        :: solver_proof_cases );
    ]

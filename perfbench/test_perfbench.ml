(* The benchmark's own checks: inputs are a function of the seed, and
   the answer checks reject wrong answers. *)

open Berkmin_types
module Inputs = Berkmin_perfbench.Inputs
module Checks = Berkmin_perfbench.Checks

let test_inputs_follow_the_seed workload () =
  let a = Inputs.generate ~workload ~seed:3 in
  let b = Inputs.generate ~workload ~seed:3 in
  let c = Inputs.generate ~workload ~seed:4 in
  Alcotest.(check (list (pair string string))) "same seed, same bytes" a b;
  Alcotest.(check int) "same file count" (List.length a) (List.length c);
  List.iter2
    (fun (name, x) (_, y) ->
      if name <> "manifest.json" then
        Alcotest.(check bool) (name ^ " differs across seeds") true (x <> y))
    a c

(* x0 or x1, not x0 or not x1, x2: satisfiable, and x2 is forced. *)
let small_cnf () =
  let cnf = Cnf.create () in
  Cnf.add_clause cnf [ Lit.pos 0; Lit.pos 1 ];
  Cnf.add_clause cnf [ Lit.neg_of 0; Lit.neg_of 1 ];
  Cnf.add_clause cnf [ Lit.pos 2 ];
  cnf

let test_corrupted_model_rejected () =
  let cnf = small_cnf () in
  let model = [| true; false; true |] in
  Alcotest.(check bool) "model accepted" true
    (Checks.model_ok cnf ~assumps:[ Lit.pos 0 ] model);
  Alcotest.(check bool) "flipped variable rejected" false
    (Checks.model_ok cnf ~assumps:[] [| true; true; true |]);
  Alcotest.(check bool) "short model rejected" false
    (Checks.model_ok cnf ~assumps:[] [| true; false |]);
  Alcotest.(check bool) "violated assumption rejected" false
    (Checks.model_ok cnf ~assumps:[ Lit.pos 1 ] model);
  let decoded line =
    match Checks.decode_answer ~num_vars:3 line with
    | Some (json, model) ->
      Alcotest.(check bool) "rest of the answer decoded" true
        (Json.member "status" json = Some (Json.String "sat"));
      model
    | None -> Alcotest.fail ("not decoded: " ^ line)
  in
  let answer digits = {|{"ok":true,"status":"sat","model":[|} ^ digits ^ "]}" in
  Alcotest.(check bool) "wire model decoded" true
    (decoded (answer "1,-2,3") = Some model);
  List.iter
    (fun digits ->
      Alcotest.(check bool) ("wire model " ^ digits ^ " rejected") true
        (decoded (answer digits) = None))
    [ "1,3,-2"; "1,-2"; "1,-2,3,"; "1,-2,3,4"; "1,--2,3"; "" ]

let test_core_checks () =
  let cnf = small_cnf () in
  let assumps = [ Lit.pos 0; Lit.pos 1; Lit.neg_of 2 ] in
  Alcotest.(check bool) "subset accepted" true
    (Checks.core_subset ~assumps [ Lit.pos 1; Lit.pos 0 ]);
  Alcotest.(check bool) "literal outside the assumptions rejected" false
    (Checks.core_subset ~assumps [ Lit.pos 0; Lit.pos 2 ]);
  Alcotest.(check bool) "negated assumption rejected" false
    (Checks.core_subset ~assumps [ Lit.neg_of 0 ]);
  Alcotest.(check bool) "unsatisfiable core confirmed" true
    (Checks.core_unsat cnf [ Lit.pos 0; Lit.pos 1 ]);
  Alcotest.(check bool) "satisfiable core rejected" false
    (Checks.core_unsat cnf [ Lit.pos 0 ]);
  Alcotest.(check bool) "empty core on a satisfiable formula rejected" false
    (Checks.core_unsat cnf [])

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        List.map
          (fun w ->
            Alcotest.test_case (w ^ " follows the seed") `Quick
              (test_inputs_follow_the_seed w))
          Inputs.workloads );
      ( "checks",
        [
          Alcotest.test_case "corrupted model rejected" `Quick
            test_corrupted_model_rejected;
          Alcotest.test_case "core checks" `Quick test_core_checks;
        ] );
    ]

(* Preprocessing/inprocessing tests: the simplification engine alone
   (subsumption, self-subsuming resolution, bounded variable
   elimination, failed-literal probing), its proof-soundness through
   the solver's DRUP stream, model reconstruction against the
   *original* clauses, and the incremental-interface guards around
   eliminated variables. *)

open Berkmin_types
module Solver = Berkmin.Solver
module Config = Berkmin.Config
module Engine = Berkmin_simplify.Engine
module Recon = Berkmin_simplify.Recon
module Drup = Berkmin_proof.Drup
module Pigeonhole = Berkmin_gen.Pigeonhole
module Random_ksat = Berkmin_gen.Random_ksat

let check = Alcotest.check
let lit = Lit.of_dimacs

let cnf_of lists =
  let cnf = Cnf.create () in
  List.iter (fun c -> Cnf.add_clause cnf (List.map lit c)) lists;
  cnf

let verdict_name = function
  | Solver.Sat _ -> "SAT"
  | Solver.Unsat -> "UNSAT"
  | Solver.Unknown -> "UNKNOWN"

let is_sat = function Solver.Sat _ -> true | _ -> false
let is_unsat = function Solver.Unsat -> true | _ -> false

(* Feed plain DIMACS-style clause lists to the engine. *)
let run_engine ?opts ?(frozen = fun _ -> false) ?(roots = []) ~nvars lists =
  let clauses =
    List.mapi
      (fun i c ->
        { Engine.lits = Array.of_list (List.map lit c);
          tag = i;
          redundant = false })
      lists
  in
  Engine.run ?opts ~nvars ~frozen ~roots ~proof:ignore clauses

let pre = Config.with_simplify Config.Simp_pre Config.berkmin
let inproc = Config.with_simplify Config.Simp_inprocess Config.berkmin

(* ------------------------------------------------------------------ *)
(* Engine: subsumption and strengthening                               *)

let test_engine_subsumes () =
  let out = run_engine ~nvars:4 [ [ 1; 2 ]; [ 1; 2; 3 ]; [ 2; 3; 4 ] ] in
  check Alcotest.int "one clause subsumed" 1 out.Engine.st.Engine.subsumed;
  check Alcotest.bool "victim gone" true
    (List.for_all (fun c -> c.Engine.tag <> 1) out.Engine.kept)

let test_engine_strengthens () =
  (* (1 2) with (-1 2 3): resolving on 1 gives (2 3) subsuming the
     second clause, so self-subsuming resolution drops -1 from it.
     BVE is switched off so the strengthened clause survives to be
     inspected. *)
  let opts = { Engine.default_opts with Engine.bve_max_occ = 0 } in
  let out = run_engine ~opts ~nvars:3 [ [ 1; 2 ]; [ -1; 2; 3 ] ] in
  check Alcotest.bool "strengthened" true (out.Engine.st.Engine.strengthened >= 1);
  let c1 = List.find (fun c -> c.Engine.tag = 1) out.Engine.kept in
  check Alcotest.bool "-1 dropped" true
    (not (Array.exists (fun l -> l = lit (-1)) c1.Engine.lits))

(* ------------------------------------------------------------------ *)
(* Engine: bounded variable elimination                                *)

let test_engine_eliminates_chain () =
  (* Implication chain 1 -> 2 -> 3 -> 4: every interior variable has
     one positive and one negative occurrence, so BVE resolves it away
     without growth. *)
  let out = run_engine ~nvars:4 [ [ -1; 2 ]; [ -2; 3 ]; [ -3; 4 ] ] in
  check Alcotest.bool "eliminated interior vars" true
    (out.Engine.st.Engine.eliminated_vars >= 1);
  check Alcotest.bool "not unsat" false out.Engine.unsat;
  (* reconstruction: extend any model of the residue to the chain *)
  let model = Array.make 4 false in
  model.(0) <- true;
  (* var 1 true forces 2, 3, 4 through the eliminated clauses *)
  List.iter
    (fun lits ->
      List.iter
        (fun l ->
          if not (Array.exists (fun k -> k.Engine.var = Lit.var l)
                    (Array.of_list out.Engine.eliminated))
          then model.(Lit.var l) <- true)
        (Array.to_list lits |> List.filter Lit.is_pos))
    out.Engine.resolvents;
  Recon.extend out.Engine.eliminated model;
  let sat_clause c = List.exists (fun d ->
      let v = Lit.var (lit d) in
      if d > 0 then model.(v) else not model.(v)) c
  in
  check Alcotest.bool "reconstructed model satisfies originals" true
    (List.for_all sat_clause [ [ -1; 2 ]; [ -2; 3 ]; [ -3; 4 ] ])

let test_engine_respects_frozen () =
  let out =
    run_engine ~nvars:4 ~frozen:(fun v -> v = 1)
      [ [ -1; 2 ]; [ -2; 3 ]; [ -3; 4 ] ]
  in
  check Alcotest.bool "frozen var kept" true
    (List.for_all (fun e -> e.Engine.var <> 1) out.Engine.eliminated)

let test_engine_growth_cap () =
  (* Variable 1 with 3 positive and 3 negative occurrences produces up
     to 9 resolvents for 6 removals; the default zero-growth cap must
     refuse. *)
  let lists =
    [ [ 1; 2 ]; [ 1; 3 ]; [ 1; 4 ]; [ -1; 5 ]; [ -1; 6 ]; [ -1; 7 ] ]
  in
  let out = run_engine ~nvars:7 lists in
  check Alcotest.bool "var 1 survives zero growth" true
    (List.for_all (fun e -> e.Engine.var <> 0) out.Engine.eliminated);
  let loose = { Engine.default_opts with Engine.bve_growth = 8 } in
  let out2 = run_engine ~opts:loose ~nvars:7 lists in
  check Alcotest.bool "eliminated under a loose cap" true
    (List.exists (fun e -> e.Engine.var = 0) out2.Engine.eliminated)

(* ------------------------------------------------------------------ *)
(* Engine: failed-literal probing                                      *)

let test_engine_failed_literal () =
  (* Two binary chains out of literal 1 meet on opposite phases of
     variable 3 (1 -> 2 -> 3 and 1 -> 4 -> ¬3): only probing — not a
     single resolution step — refutes 1. *)
  let out =
    run_engine ~nvars:5
      [ [ -1; 2 ]; [ -2; 3 ]; [ -1; 4 ]; [ -4; -3 ]; [ 1; 5 ] ]
  in
  check Alcotest.bool "failed literal found" true
    (out.Engine.st.Engine.failed_literals >= 1);
  check Alcotest.bool "unit -1 derived" true
    (List.mem (lit (-1)) out.Engine.units)

let test_engine_unsat_detected () =
  let out = run_engine ~nvars:2 [ [ 1; 2 ]; [ 1; -2 ]; [ -1; 2 ]; [ -1; -2 ] ] in
  check Alcotest.bool "root conflict" true out.Engine.unsat

(* ------------------------------------------------------------------ *)
(* Solver: BVE on SAT instances, model checked against the originals   *)

let chain_cnf n =
  (* 1 -> 2 -> ... -> n plus the unit 1: forces the whole chain, and
     every interior variable is BVE-eliminable. *)
  let cls = ref [ [ 1 ] ] in
  for i = 1 to n - 1 do
    cls := [ -i; i + 1 ] :: !cls
  done;
  cnf_of !cls

let test_solver_pre_sat_reconstructs () =
  let cnf = chain_cnf 12 in
  let s = Solver.create ~config:pre cnf in
  (match Solver.solve s with
  | Solver.Sat m ->
    check Alcotest.bool "model satisfies the original clauses" true
      (Solver.check_model cnf m)
  | r -> Alcotest.failf "expected SAT, got %s" (verdict_name r));
  check Alcotest.bool "simplify ran" true
    ((Solver.stats s).Berkmin.Stats.simplify_runs >= 1)

let test_solver_eliminates_vars () =
  (* A structured SAT instance with eliminable interior variables. *)
  let cls = ref [] in
  for i = 1 to 8 do
    let base = 3 * (i - 1) in
    (* x -> y -> z per block; y is interior and eliminable *)
    cls := [ -(base + 1); base + 2 ] :: [ -(base + 2); base + 3 ] :: !cls
  done;
  let cnf = cnf_of !cls in
  let s = Solver.create ~config:pre cnf in
  (match Solver.solve s with
  | Solver.Sat m ->
    check Alcotest.bool "model ok" true (Solver.check_model cnf m)
  | r -> Alcotest.failf "expected SAT, got %s" (verdict_name r));
  check Alcotest.bool "some variable eliminated" true
    ((Solver.stats s).Berkmin.Stats.eliminated_vars > 0);
  check Alcotest.int "num_eliminated_vars agrees"
    (Solver.num_eliminated_vars s)
    (Solver.stats s).Berkmin.Stats.eliminated_vars

(* ------------------------------------------------------------------ *)
(* Solver: DRUP forward-check on UNSAT after heavy simplification      *)

let drup_valid ~config cnf =
  let s = Solver.create ~config cnf in
  let proof = Drup.create () in
  Solver.set_proof_logger s (Drup.record proof);
  match Solver.solve s with
  | Solver.Unsat -> (
    match Drup.check cnf proof with
    | Drup.Valid -> true
    | Drup.Invalid { step; reason; _ } ->
      Alcotest.failf "proof invalid at step %d: %s" step reason)
  | r -> Alcotest.failf "expected UNSAT, got %s" (verdict_name r)

let test_solver_unsat_proof_subsumption () =
  (* UNSAT core over vars 1-2 buried under subsumable supersets. *)
  let cnf =
    cnf_of
      [
        [ 1; 2 ]; [ 1; -2 ]; [ -1; 2 ]; [ -1; -2 ];
        [ 1; 2; 3 ]; [ 1; 2; 4 ]; [ -1; 2; 3 ]; [ -1; -2; 4 ];
        [ 1; -2; 3; 4 ]; [ 2; 3; 4 ];
      ]
  in
  check Alcotest.bool "pre proof valid" true (drup_valid ~config:pre cnf);
  check Alcotest.bool "inprocess proof valid" true
    (drup_valid ~config:inproc cnf)

let test_solver_unsat_proof_pigeonhole () =
  let cnf = Pigeonhole.php 5 4 in
  check Alcotest.bool "pre proof valid" true (drup_valid ~config:pre cnf);
  check Alcotest.bool "inprocess proof valid" true
    (drup_valid ~config:inproc cnf)

let test_solver_unsat_proof_random () =
  (* Over-constrained random 3-SAT: almost surely UNSAT; every UNSAT
     run must carry a forward-checkable proof under both modes. *)
  let checked = ref 0 in
  for seed = 0 to 9 do
    let cnf = Random_ksat.generate ~num_vars:14 ~num_clauses:100 ~k:3 ~seed in
    let s = Solver.create cnf in
    if is_unsat (Solver.solve s) then begin
      incr checked;
      check Alcotest.bool "pre proof valid" true (drup_valid ~config:pre cnf);
      check Alcotest.bool "inprocess proof valid" true
        (drup_valid ~config:inproc cnf)
    end
  done;
  check Alcotest.bool "exercised at least one UNSAT instance" true (!checked > 0)

(* ------------------------------------------------------------------ *)
(* Solver: verdict agreement off vs pre vs inprocess                   *)

let test_solver_verdicts_agree () =
  for seed = 0 to 29 do
    let num_clauses = 40 + (seed * 3) in
    let cnf = Random_ksat.generate ~num_vars:12 ~num_clauses ~k:3 ~seed in
    let base = Solver.solve (Solver.create cnf) in
    List.iter
      (fun config ->
        match Solver.solve (Solver.create ~config cnf) with
        | Solver.Sat m ->
          check Alcotest.bool "base sat" true (is_sat base);
          check Alcotest.bool "model checks" true (Solver.check_model cnf m)
        | Solver.Unsat ->
          check Alcotest.bool "base unsat" true (is_unsat base)
        | Solver.Unknown -> Alcotest.fail "unbudgeted solve returned UNKNOWN")
      [ pre; inproc ]
  done

(* ------------------------------------------------------------------ *)
(* Solver: incremental-interface guards                                *)

let eliminated_var_of s nvars =
  let rec go v =
    if v >= nvars then None
    else if (Solver.value_of s v) = Value.Unassigned then Some v
    else go (v + 1)
  in
  go 0

let open_chain_cnf n =
  (* 1 -> 2 -> ... -> n with no forcing unit: nothing is assigned at
     level 0, so the interior (and pure endpoint) variables are all
     BVE-eliminable. *)
  let cls = ref [] in
  for i = 1 to n - 1 do
    cls := [ -i; i + 1 ] :: !cls
  done;
  cnf_of !cls

let test_solver_guards_eliminated () =
  let cnf = open_chain_cnf 10 in
  let s = Solver.create ~config:pre cnf in
  check Alcotest.bool "sat" true (is_sat (Solver.solve s));
  check Alcotest.bool "vars were eliminated" true
    (Solver.num_eliminated_vars s > 0);
  (* every variable the solver left unassigned after a complete SAT
     answer is an eliminated one *)
  match eliminated_var_of s 10 with
  | None -> Alcotest.fail "expected an unassigned (eliminated) variable"
  | Some v ->
    let d = v + 1 in
    Alcotest.check_raises "add_clause rejects eliminated var"
      (Invalid_argument "Solver.add_clause: variable eliminated by simplification")
      (fun () -> Solver.add_clause s [ lit d ]);
    Alcotest.check_raises "assumptions reject eliminated var"
      (Invalid_argument "Solver.solve: variable eliminated by simplification")
      (fun () -> ignore (Solver.solve ~assumps:[ lit d ] s))

let test_solver_assumption_vars_frozen () =
  (* Assumption variables must survive the pre-pass: solving the chain
     under the assumption -12 (head of the chain forces 12) must come
     back UNSAT with a core, then SAT without it. *)
  let cnf = chain_cnf 12 in
  let s = Solver.create ~config:pre cnf in
  (match Solver.solve ~assumps:[ lit (-12) ] s with
  | Solver.Unsat ->
    check Alcotest.bool "core exists" true (Solver.unsat_core s <> None)
  | r -> Alcotest.failf "expected UNSAT under -12, got %s" (verdict_name r));
  check Alcotest.bool "sat without assumptions" true (is_sat (Solver.solve s))

let test_solver_explicit_simplify () =
  let cnf = chain_cnf 8 in
  (* default config: simplification only when explicitly requested *)
  let s = Solver.create cnf in
  check Alcotest.int "no pass yet" 0 (Solver.stats s).Berkmin.Stats.simplify_runs;
  Solver.simplify s;
  check Alcotest.int "one pass" 1 (Solver.stats s).Berkmin.Stats.simplify_runs;
  check Alcotest.bool "still sat" true (is_sat (Solver.solve s))

(* ------------------------------------------------------------------ *)
(* Observability: trace event and stats JSON                           *)

let test_trace_emits_simplify () =
  let cnf = chain_cnf 10 in
  let s = Solver.create ~config:pre cnf in
  let events = ref [] in
  Solver.set_trace_sink s (Berkmin.Trace.Callback (fun e -> events := e :: !events));
  ignore (Solver.solve s);
  let simplify_events =
    List.filter
      (function Berkmin.Trace.Simplify _ -> true | _ -> false)
      !events
  in
  check Alcotest.bool "simplify event emitted" true (simplify_events <> []);
  match simplify_events with
  | Berkmin.Trace.Simplify f :: _ ->
    check Alcotest.bool "clauses shrank" true (f.clauses_after <= f.clauses_before)
  | _ -> ()

let test_stats_json_keys () =
  let cnf = chain_cnf 10 in
  let s = Solver.create ~config:pre cnf in
  ignore (Solver.solve s);
  match Berkmin.Stats.to_json (Solver.stats s) with
  | Json.Obj fields ->
    List.iter
      (fun k ->
        check Alcotest.bool (k ^ " present") true (List.mem_assoc k fields))
      [
        "simplify_runs"; "simplified_clauses"; "eliminated_vars";
        "subsumed"; "strengthened"; "failed_literals";
      ]
  | _ -> Alcotest.fail "stats JSON is not an object"

(* ------------------------------------------------------------------ *)
(* Preprocessing on small formulas                                     *)

let expect_sat cnf s =
  match Solver.solve s with
  | Solver.Sat m ->
    check Alcotest.bool "model satisfies the original" true
      (Solver.check_model cnf m);
    m
  | r -> Alcotest.failf "expected SAT, got %s" (verdict_name r)

let test_preprocess_units () =
  (* x1 is a unit and x1 -> x2; with both at the root, (-2 3 4) shrinks
     to (3 4), whose variables occur in one phase only: nothing is
     left of the database. *)
  let cnf = cnf_of [ [ 1 ]; [ -1; 2 ]; [ -2; 3; 4 ] ] in
  let s = Solver.create cnf in
  Solver.simplify s;
  check Alcotest.bool "x1 forced" true (Solver.value_of s 0 = Value.True);
  check Alcotest.bool "x2 forced" true (Solver.value_of s 1 = Value.True);
  check Alcotest.int "all clauses gone" 0 (Solver.arena_bytes s);
  ignore (expect_sat cnf s)

let test_preprocess_conflict () =
  (* Root propagation alone refutes the formula: no search follows. *)
  let s = Solver.create (cnf_of [ [ 1 ]; [ -1; 2 ]; [ -1; -2 ] ]) in
  Solver.simplify s;
  check Alcotest.bool "unsat" true (is_unsat (Solver.solve s));
  check Alcotest.int "no decisions" 0 (Solver.stats s).Berkmin.Stats.decisions

let test_preprocess_pure_literals () =
  (* x1 occurs only positively and nothing forces it: it is eliminated,
     not assigned, and the rebuilt model still satisfies its clauses. *)
  let cnf = cnf_of [ [ 1; 2 ]; [ 1; 3 ]; [ 2; 3 ] ] in
  let s = Solver.create cnf in
  Solver.simplify s;
  Alcotest.check_raises "x1 eliminated"
    (Invalid_argument "Solver.add_clause: variable eliminated by simplification")
    (fun () -> Solver.add_clause s [ lit 1 ]);
  ignore (expect_sat cnf s)

let test_preprocess_extend_model () =
  (* Units, then (3 4)(-3 5): eliminating x3 leaves (4 5), which goes
     too.  The database collapses, and the model is rebuilt for every
     eliminated variable. *)
  let cnf = cnf_of [ [ 1 ]; [ -1; 2 ]; [ 3; 4 ]; [ -3; 5 ] ] in
  let s = Solver.create cnf in
  Solver.simplify s;
  check Alcotest.bool "eliminated" true (Solver.num_eliminated_vars s > 0);
  check Alcotest.int "all clauses gone" 0 (Solver.arena_bytes s);
  ignore (expect_sat cnf s)

let () =
  Alcotest.run "simplify"
    [
      ( "engine",
        [
          Alcotest.test_case "subsumption" `Quick test_engine_subsumes;
          Alcotest.test_case "self-subsuming resolution" `Quick
            test_engine_strengthens;
          Alcotest.test_case "BVE eliminates a chain" `Quick
            test_engine_eliminates_chain;
          Alcotest.test_case "frozen variables survive" `Quick
            test_engine_respects_frozen;
          Alcotest.test_case "growth cap" `Quick test_engine_growth_cap;
          Alcotest.test_case "failed-literal probing" `Quick
            test_engine_failed_literal;
          Alcotest.test_case "root conflict detected" `Quick
            test_engine_unsat_detected;
        ] );
      ( "solver-sat",
        [
          Alcotest.test_case "pre-pass SAT model reconstructs" `Quick
            test_solver_pre_sat_reconstructs;
          Alcotest.test_case "variables eliminated on structure" `Quick
            test_solver_eliminates_vars;
          Alcotest.test_case "verdicts agree off/pre/inprocess" `Quick
            test_solver_verdicts_agree;
        ] );
      ( "solver-proof",
        [
          Alcotest.test_case "UNSAT proof after subsumption" `Quick
            test_solver_unsat_proof_subsumption;
          Alcotest.test_case "UNSAT proof on pigeonhole" `Quick
            test_solver_unsat_proof_pigeonhole;
          Alcotest.test_case "UNSAT proofs on random instances" `Quick
            test_solver_unsat_proof_random;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "eliminated vars rejected" `Quick
            test_solver_guards_eliminated;
          Alcotest.test_case "assumption vars frozen" `Quick
            test_solver_assumption_vars_frozen;
          Alcotest.test_case "explicit simplify call" `Quick
            test_solver_explicit_simplify;
        ] );
      ( "observability",
        [
          Alcotest.test_case "trace emits simplify" `Quick
            test_trace_emits_simplify;
          Alcotest.test_case "stats JSON keys" `Quick test_stats_json_keys;
        ] );
      ( "preprocess",
        [
          Alcotest.test_case "units" `Quick test_preprocess_units;
          Alcotest.test_case "conflict" `Quick test_preprocess_conflict;
          Alcotest.test_case "pure literals" `Quick test_preprocess_pure_literals;
          Alcotest.test_case "extend model" `Quick test_preprocess_extend_model;
        ] );
    ]

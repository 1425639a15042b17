open Berkmin_types
module Drup = Berkmin_proof.Drup

type answer =
  | A_sat of bool array
  | A_unsat of Drup.t option
  | A_unknown

type solver = {
  name : string;
  solve : Cnf.t -> answer;
}

let cdcl ?(config = Berkmin.Config.berkmin)
    ?(budget = Berkmin_harness.Runner.fuzz_budget) () =
  {
    name = "cdcl:" ^ Berkmin.Config.name_of config;
    solve =
      (fun cnf ->
        let solver = Berkmin.Solver.create ~config cnf in
        let proof = Drup.create () in
        Berkmin.Solver.set_proof_logger solver (Drup.record proof);
        match Berkmin.Solver.solve ~budget solver with
        | Berkmin.Solver.Sat m -> A_sat m
        | Berkmin.Solver.Unsat -> A_unsat (Some proof)
        | Berkmin.Solver.Unknown -> A_unknown);
  }

(* Simplification lanes: the same CDCL engine with the preprocessing /
   inprocessing pipeline switched on.  [Config.name_of] treats
   simplification as an orthogonal toggle (preset names stay stable),
   so the lane names are explicit.  Racing these against the plain
   CDCL and DPLL lanes makes the differential fuzzer a soundness check
   of every rewrite the simplifier performs: an unsound subsumption,
   elimination or probe shows up as a verdict/model/proof failure. *)
let simplify_cdcl ?(mode = Berkmin.Config.Simp_pre)
    ?(config = Berkmin.Config.berkmin)
    ?(budget = Berkmin_harness.Runner.fuzz_budget) () =
  let config = { config with Berkmin.Config.simplify = mode } in
  let base = cdcl ~config ~budget () in
  {
    base with
    name =
      Printf.sprintf "cdcl:simplify-%s"
        (Berkmin.Config.simplify_mode_to_string mode);
  }

(* A whole portfolio race as one oracle solver.  Races are
   timing-nondeterministic (which worker wins varies), but the oracles
   only judge what must be invariant: the verdict, the model, and that
   nothing crashes.  Pairing a share-on and a share-off lane in one
   campaign makes the differential fuzzer a soundness check of the
   clause exchange itself: an unsound import shows up as a verdict
   disagreement against the sequential solvers. *)
let portfolio ?(config = Berkmin.Config.berkmin) ?(workers = 2)
    ?(share = true) ?(budget = Berkmin_harness.Runner.fuzz_budget) () =
  let module Portfolio = Berkmin_portfolio.Portfolio in
  {
    name =
      Printf.sprintf "portfolio%d:%s" workers
        (if share then "share" else "noshare");
    solve =
      (fun cnf ->
        let p = Portfolio.solve_config ~budget ~workers ~share config cnf in
        match p.Portfolio.result with
        | Berkmin.Solver.Sat m -> A_sat m
        | Berkmin.Solver.Unsat -> A_unsat None
        | Berkmin.Solver.Unknown -> A_unknown);
  }

(* Search-quality strategy lanes: the CDCL engine with one modern
   heuristic switched on at a time, plus the all-on combination.  Like
   the simplify lanes, [Config.name_of] reports a modified preset as
   "custom", so each lane names itself explicitly.  Racing them against
   the plain CDCL and DPLL lanes makes the fuzzer a soundness gate for
   the strategies: ccmin dropping a needed literal, phase saving or a
   Luby schedule steering into an unsound state, or glue-driven
   reduction deleting a locked clause all surface as verdict, model or
   proof failures. *)
let strategy_cdcl ?(config = Berkmin.Config.berkmin)
    ?(budget = Berkmin_harness.Runner.fuzz_budget) ~name tweak () =
  let base = cdcl ~config:(tweak config) ~budget () in
  { base with name = "cdcl:" ^ name }

let strategy_solvers ?config ?budget () =
  [
    strategy_cdcl ?config ?budget ~name:"ccmin-deep"
      (fun base -> { base with Berkmin.Config.ccmin_mode = Ccmin_deep })
      ();
    strategy_cdcl ?config ?budget ~name:"phase-saving"
      (fun base -> { base with Berkmin.Config.phase_saving = true })
      ();
    strategy_cdcl ?config ?budget ~name:"luby"
      (fun base -> { base with Berkmin.Config.restart_mode = Luby 64 })
      ();
    strategy_cdcl ?config ?budget ~name:"glue-reduce"
      (fun base -> { base with Berkmin.Config.reduction_mode = Glue_lbd 3 })
      ();
    strategy_cdcl ?config ?budget ~name:"modern"
      (fun base ->
        {
          base with
          Berkmin.Config.ccmin_mode = Berkmin.Config.Ccmin_deep;
          phase_saving = true;
          restart_mode = Berkmin.Config.Luby 64;
          reduction_mode = Berkmin.Config.Glue_lbd 3;
        })
      ();
  ]

let dpll ?(max_nodes = 500_000) () =
  {
    name = "dpll";
    solve =
      (fun cnf ->
        match Berkmin.Dpll.solve ~max_nodes cnf with
        | Berkmin.Dpll.Sat m -> A_sat m
        | Berkmin.Dpll.Unsat -> A_unsat None
        | Berkmin.Dpll.Unknown -> A_unknown);
  }

let default_solvers () = [ cdcl (); dpll () ]

type failure = {
  culprit : string;
  oracle : string;
  detail : string;
}

type verdict =
  | V_sat
  | V_unsat
  | V_undecided

type result = {
  verdict : verdict;
  failures : failure list;
}

(* The forward DRUP checker is quadratic-ish; don't feed it derivations
   far beyond fuzz scale. *)
let max_checked_proof_steps = 50_000

let model_failure name cnf m =
  if Array.length m < Cnf.num_vars cnf then
    Some
      {
        culprit = name;
        oracle = "model";
        detail =
          Printf.sprintf "model covers %d of %d variables" (Array.length m)
            (Cnf.num_vars cnf);
      }
  else if Cnf.satisfied_by cnf m then None
  else
    Some
      {
        culprit = name;
        oracle = "model";
        detail = "model does not satisfy the formula";
      }

let proof_failure name cnf proof =
  if Drup.length proof > max_checked_proof_steps then None
  else
    match Drup.check cnf proof with
    | Drup.Valid -> None
    | Drup.Invalid _ as r ->
      Some
        {
          culprit = name;
          oracle = "proof";
          detail = Drup.check_result_to_string r;
        }

let differential ?solvers cnf =
  let solvers =
    match solvers with Some s -> s | None -> default_solvers ()
  in
  let answers =
    List.map
      (fun s ->
        match s.solve (Cnf.copy cnf) with
        | answer -> (s.name, Ok answer)
        | exception e -> (s.name, Error (Printexc.to_string e)))
      solvers
  in
  let failures = ref [] in
  let emit f = failures := f :: !failures in
  (* crash / model / proof oracles, per answer *)
  List.iter
    (fun (name, answer) ->
      match answer with
      | Error detail -> emit { culprit = name; oracle = "crash"; detail }
      | Ok (A_sat m) -> Option.iter emit (model_failure name cnf m)
      | Ok (A_unsat (Some proof)) -> Option.iter emit (proof_failure name cnf proof)
      | Ok (A_unsat None) | Ok A_unknown -> ())
    answers;
  (* verdict oracle: all decided answers must agree *)
  let decided =
    List.filter_map
      (fun (name, answer) ->
        match answer with
        | Ok (A_sat _) -> Some (name, true)
        | Ok (A_unsat _) -> Some (name, false)
        | Ok A_unknown | Error _ -> None)
      answers
  in
  let verdict =
    match decided with
    | [] -> V_undecided
    | (_, true) :: _ -> V_sat
    | (_, false) :: _ -> V_unsat
  in
  (match decided with
  | [] -> ()
  | (name0, v0) :: rest ->
    List.iter
      (fun (name, v) ->
        if v <> v0 then
          emit
            {
              culprit = name;
              oracle = "verdict";
              detail =
                Printf.sprintf "%s says %s but %s says %s" name0
                  (if v0 then "SAT" else "UNSAT")
                  name
                  (if v then "SAT" else "UNSAT");
            })
      rest);
  { verdict; failures = List.rev !failures }

let failure_to_json f =
  Json.Obj
    [
      ("solver", Json.String f.culprit);
      ("oracle", Json.String f.oracle);
      ("detail", Json.String f.detail);
    ]

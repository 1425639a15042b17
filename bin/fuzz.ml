(* Differential fuzzing front end.

   Runs a seeded campaign (lib/fuzz): generate a CNF case, mutate it,
   cross-check the CDCL engine against the reference DPLL, certify
   UNSAT answers with the DRUP checker and SAT answers by model
   evaluation, and delta-debug any disagreement down to a minimal
   counterexample.  Output (stdout, --json and artifact files) is a
   pure function of the flags — two runs with the same seed are
   bit-identical — so CI can both gate on it and reproduce from it. *)

module Runner = Berkmin_fuzz.Runner
module Dimacs = Berkmin_dimacs.Dimacs

let write_artifacts ~prefix ~seed ce =
  let base = Printf.sprintf "%s_s%d_r%d" prefix seed ce.Runner.round in
  let orig = base ^ ".cnf" in
  Dimacs.write_file orig ce.Runner.cnf;
  Printf.printf "counterexample written to %s\n" orig;
  match ce.Runner.minimized with
  | None -> ()
  | Some m ->
    let mini = base ^ ".min.cnf" in
    Dimacs.write_file mini m;
    Printf.printf "minimized counterexample written to %s\n" mini

let run seed rounds max_vars max_mutations shrink incremental_queries
    portfolio_workers simplify strategies json_out prefix =
  let simplify_lanes =
    (* With --simplify (the default), a preprocessing and an
       inprocessing lane join the pool as first-class oracle
       participants: their verdicts, models and DRUP proofs are
       cross-examined against the plain CDCL and DPLL lanes, so any
       unsound rewrite in lib/simplify surfaces as a counterexample. *)
    if not simplify then []
    else
      [
        Berkmin_fuzz.Oracle.simplify_cdcl ~mode:Berkmin.Config.Simp_pre ();
        Berkmin_fuzz.Oracle.simplify_cdcl ~mode:Berkmin.Config.Simp_inprocess
          ();
      ]
  in
  let strategy_lanes =
    (* With --strategies (the default), the search-quality lanes —
       ccmin-deep, phase-saving, luby, glue-reduce, each alone, plus
       the all-on "modern" combination — join the pool as first-class
       oracle participants, so a strategy that perturbs verdicts,
       models or proofs surfaces as a counterexample. *)
    if not strategies then [] else Berkmin_fuzz.Oracle.strategy_solvers ()
  in
  let portfolio_lanes =
    (* With --portfolio N, a share-on and a share-off race join the
       sequential CDCL and DPLL lanes, so any unsound clause import
       surfaces as a verdict disagreement. *)
    if portfolio_workers = 0 then []
    else
      [
        Berkmin_fuzz.Oracle.portfolio ~workers:portfolio_workers ~share:true
          ();
        Berkmin_fuzz.Oracle.portfolio ~workers:portfolio_workers ~share:false
          ();
      ]
  in
  let solvers =
    match simplify_lanes @ strategy_lanes @ portfolio_lanes with
    | [] -> None
    | extra -> Some (Berkmin_fuzz.Oracle.default_solvers () @ extra)
  in
  let config =
    {
      Runner.seed;
      rounds;
      max_vars;
      max_mutations;
      shrink;
      incremental_queries;
      solvers;
    }
  in
  let report = Runner.run ~log:print_endline config in
  List.iter (write_artifacts ~prefix ~seed) report.Runner.counterexamples;
  let disagreements = List.length report.Runner.counterexamples in
  Printf.printf
    "fuzz: seed %d, %d rounds, %d sat, %d unsat, %d undecided, %d mutations, \
     %d disagreements\n"
    seed rounds report.Runner.sat report.Runner.unsat report.Runner.undecided
    report.Runner.mutations_applied disagreements;
  Option.iter
    (fun path -> Flags.write_json path (Runner.report_to_json report))
    json_out;
  if disagreements = 0 then 0 else 1

open Cmdliner

let seed =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Master seed of the campaign.  Every generated case, mutation \
           and report field derives from it, so a CI failure is \
           reproduced exactly by re-running with the logged seed.")

let rounds =
  Arg.(
    value & opt (Flags.count ~min:1) 200
    & info [ "rounds" ] ~docv:"N"
        ~doc:"Number of fuzzing rounds to run (at least 1).")

let max_vars =
  Arg.(
    value & opt (Flags.count ~min:4) 30
    & info [ "max-vars" ] ~docv:"N"
        ~doc:"Variable cap for generated cases (at least 4).")

let max_mutations =
  Arg.(
    value & opt (Flags.count ~min:0) 4
    & info [ "mutations" ] ~docv:"N"
        ~doc:"Each round applies 0..$(docv) structured mutations.")

let shrink =
  Arg.(
    value & opt bool true
    & info [ "shrink" ] ~docv:"BOOL"
        ~doc:
          "Delta-debug each counterexample down to a minimal formula \
           that still triggers the same oracle failure.")

let incremental_queries =
  Arg.(
    value
    & opt (Flags.count ~min:0) Runner.default.Runner.incremental_queries
    & info
        [ "incremental-queries" ]
        ~docv:"N"
        ~doc:
          "Random assumption-set queries per round cross-checked by the \
           incremental oracle (resident solver vs fresh rebuild); 0 \
           disables the lane.  The per-round query stream derives from \
           the master seed either way, so toggling this never perturbs \
           the other oracles.")

let portfolio_workers =
  let off_or_race =
    Arg.conv
      ( (fun s ->
          match int_of_string_opt s with
          | Some n when n = 0 || n >= 2 -> Ok n
          | Some _ | None -> Flags.invalid s "0 or an integer >= 2"),
        Format.pp_print_int )
  in
  Arg.(
    value & opt off_or_race 0
    & info [ "portfolio" ] ~docv:"N"
        ~doc:
          "Add two portfolio lanes of $(docv) workers each — one with \
           learnt-clause sharing, one without — to the solver pool, \
           cross-checked against the sequential CDCL and DPLL lanes by \
           the same oracles.  0 (the default) keeps the campaign \
           sequential and bit-reproducible; with portfolio lanes the \
           set of verdicts is still deterministic, but which worker \
           wins each race is not.")

let simplify =
  Arg.(
    value & opt bool true
    & info [ "simplify" ] ~docv:"BOOL"
        ~doc:
          "Add two simplification lanes — the CDCL engine with the \
           preprocessing pipeline (simplify=pre) and with inprocessing \
           at restarts (simplify=inprocess) — to the solver pool as \
           first-class oracle participants.  Their models and DRUP \
           proofs are checked like any other lane's, so the campaign \
           doubles as a soundness gate for lib/simplify.  Case \
           generation derives from the master seed independently of \
           the lane set, so toggling this never perturbs the other \
           oracles.")

let strategies =
  Arg.(
    value & opt bool true
    & info [ "strategies" ] ~docv:"BOOL"
        ~doc:
          "Add the search-quality strategy lanes — conflict-clause \
           minimization (ccmin=deep), phase saving, Luby restarts and \
           glue-driven database reduction, each switched on alone, plus \
           the all-on $(b,modern) combination — to the solver pool as \
           first-class oracle participants.  Their verdicts, models and \
           DRUP proofs are cross-checked against the plain CDCL and \
           DPLL lanes, so the campaign doubles as a differential \
           ablation gate for docs/STRATEGIES.md.  Case generation \
           derives from the master seed independently of the lane set.")

let json_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Write the campaign report as JSON to $(docv) (\"-\" for \
           stdout); deterministic for a given seed.")

let prefix =
  Arg.(
    value & opt string "fuzz"
    & info [ "out" ] ~docv:"PREFIX"
        ~doc:
          "Prefix for counterexample artifacts; failures are written as \
           $(docv)_s<seed>_r<round>.cnf plus .min.cnf when shrinking.")

let cmd =
  let doc = "Differentially fuzz the BerkMin solver against its oracles" in
  Cmd.v
    (Cmd.info "berkmin-fuzz" ~doc)
    Term.(
      const run $ seed $ rounds $ max_vars $ max_mutations $ shrink
      $ incremental_queries $ portfolio_workers $ simplify $ strategies
      $ json_out $ prefix)

let () = exit (Cmd.eval' cmd)

(* Command-line SAT solver: reads DIMACS, prints a SAT-competition
   style answer, optionally emits a DRUP proof and statistics.

   Exit codes follow the SAT-solver convention: 10 = SATISFIABLE,
   20 = UNSATISFIABLE, 0 = UNKNOWN, 1 = failed --check (bad model or
   invalid proof), 2 = usage/input error. *)

open Berkmin_types
module Drup = Berkmin_proof.Drup
module Portfolio = Berkmin_portfolio.Portfolio

let find_config name =
  List.assoc_opt name Berkmin.Config.presets

let result_to_string = function
  | Berkmin.Solver.Sat _ -> "SAT"
  | Berkmin.Solver.Unsat -> "UNSAT"
  | Berkmin.Solver.Unknown -> "UNKNOWN"

(* Race the portfolio instead of running one solver.  Shares the
   sequential path's output conventions (c-lines, JSON shape, exit
   codes); the JSON gains a "portfolio" object with the per-worker
   records, and "stats" comes from the winning worker. *)
let run_portfolio ~config ~budget ~file ~stats_flag ~check ~quiet ~json_out cnf =
  let started = Unix.gettimeofday () in
  let p = Portfolio.solve_config ~budget config cnf in
  let seconds = Unix.gettimeofday () -. started in
  if not quiet then begin
    Format.printf "c portfolio of %d workers (%s)@."
      config.Berkmin.Config.workers
      (if config.Berkmin.Config.portfolio_diversify then "diversified"
       else "seed-only");
    List.iter
      (fun w ->
        Printf.printf "c worker %d: %-16s seed=%-6d %-12s %.3fs\n"
          w.Portfolio.w_index
          (Berkmin.Config.name_of w.Portfolio.w_config)
          w.Portfolio.w_config.Berkmin.Config.seed
          (Portfolio.status_to_string w.Portfolio.w_status)
          w.Portfolio.w_wall_seconds)
      p.Portfolio.workers
  end;
  let winner_stats =
    Option.bind p.Portfolio.winner (fun i ->
        Option.bind
          (List.find_opt (fun w -> w.Portfolio.w_index = i) p.Portfolio.workers)
          (fun w -> w.Portfolio.w_stats))
  in
  (match winner_stats with
  | Some st when stats_flag ->
    let text = Format.asprintf "%a" Berkmin.Stats.pp st in
    String.split_on_char '\n' text
    |> List.iter (fun line -> Printf.printf "c %s\n" line)
  | _ -> ());
  (match json_out with
  | None -> ()
  | Some path ->
    let json =
      Json.Obj
        [
          "instance", Json.String file;
          "strategy", Json.String (Berkmin.Config.name_of config);
          "result", Json.String (result_to_string p.Portfolio.result);
          ( "stats",
            match winner_stats with
            | Some st ->
              Berkmin.Stats.to_json ?worker:p.Portfolio.winner ~seconds st
            | None -> Json.Null );
          "portfolio", Portfolio.outcome_to_json p;
        ]
    in
    let text = Json.to_string_pretty json ^ "\n" in
    if path = "-" then print_string text
    else begin
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      if not quiet then Printf.printf "c json summary written to %s\n" path
    end);
  match p.Portfolio.result with
  | Berkmin.Solver.Sat model ->
    if check && not (Cnf.satisfied_by cnf model) then begin
      print_endline "c INTERNAL ERROR: model does not satisfy the formula";
      exit 1
    end;
    Format.printf "%a@."
      (fun fmt () -> Berkmin_dimacs.Dimacs.print_solution fmt (Some model))
      ();
    10
  | Berkmin.Solver.Unsat ->
    print_endline "s UNSATISFIABLE";
    20
  | Berkmin.Solver.Unknown ->
    print_endline "s UNKNOWN";
    0

let run file strategy max_conflicts max_seconds proof_file stats_flag check
    seed quiet json_out trace_file heartbeat profile workers diversify
    worker_timeout share share_max_len share_max_glue simplify simplify_growth
    ccmin phase_saving restarts reduce =
  match find_config strategy with
  | None ->
    Printf.eprintf "unknown strategy %S; available: %s\n" strategy
      (String.concat ", " (List.map fst Berkmin.Config.presets));
    2
  | Some config -> (
    let config =
      match seed with
      | Some s -> Berkmin.Config.with_seed s config
      | None -> config
    in
    let config =
      match trace_file with
      | Some path -> Berkmin.Config.with_trace_jsonl path config
      | None -> config
    in
    let config =
      if heartbeat > 0 then Berkmin.Config.with_heartbeat heartbeat config
      else config
    in
    let config =
      if profile then Berkmin.Config.with_profile_timers config else config
    in
    if workers < 1 then begin
      Printf.eprintf "--workers must be at least 1 (got %d)\n" workers;
      exit 2
    end;
    if workers > 1 && proof_file <> None then begin
      Printf.eprintf
        "--proof needs a single worker: DRUP logging follows one solver's \
         derivation, not a race (drop --proof or use --workers 1)\n";
      exit 2
    end;
    if share_max_len < 1 || share_max_glue < 1 then begin
      Printf.eprintf "--share-max-len and --share-max-glue must be >= 1\n";
      exit 2
    end;
    let config = Berkmin.Config.with_workers workers config in
    let config = Berkmin.Config.with_portfolio_diversify diversify config in
    let config = Berkmin.Config.with_share_learnt share config in
    let config = Berkmin.Config.with_share_max_len share_max_len config in
    let config = Berkmin.Config.with_share_max_glue share_max_glue config in
    let config =
      match worker_timeout with
      | Some s -> Berkmin.Config.with_worker_wall_timeout s config
      | None -> config
    in
    let config =
      match
        Berkmin.Config.with_overrides ~simplify ~simplify_growth ?ccmin
          ?phase_saving ?restarts ?reduce config
      with
      | Ok config -> config
      | Error msg ->
        prerr_endline msg;
        exit 2
    in
    match Berkmin_dimacs.Dimacs.parse_file file with
    | exception Sys_error msg ->
      Printf.eprintf "cannot read %s: %s\n" file msg;
      2
    | exception Berkmin_dimacs.Dimacs.Parse_error { line; message } ->
      Printf.eprintf "%s:%d: %s\n" file line message;
      2
    | cnf when workers > 1 -> (
      let budget = { Berkmin.Solver.max_conflicts; max_seconds } in
      if not quiet then
        Format.printf "c strategy %a@." Berkmin.Config.pp config;
      try run_portfolio ~config ~budget ~file ~stats_flag ~check ~quiet
            ~json_out cnf
      with Sys_error msg ->
        Printf.eprintf "berkmin: %s\n" msg;
        2)
    | cnf ->
    try
      let solver = Berkmin.Solver.create ~config cnf in
      let proof =
        match proof_file with
        | None -> None
        | Some path ->
          let p = Drup.create () in
          Berkmin.Solver.set_proof_logger solver (Drup.record p);
          Some (path, p)
      in
      let budget =
        { Berkmin.Solver.max_conflicts; max_seconds }
      in
      let started = Sys.time () in
      let result = Berkmin.Solver.solve ~budget solver in
      let seconds = Sys.time () -. started in
      Berkmin.Solver.close_trace solver;
      if not quiet then
        Format.printf "c strategy %a@." Berkmin.Config.pp config;
      if stats_flag then begin
        let text =
          Format.asprintf "%a" Berkmin.Stats.pp (Berkmin.Solver.stats solver)
        in
        String.split_on_char '\n' text
        |> List.iter (fun line -> Printf.printf "c %s\n" line)
      end;
      (match json_out with
      | None -> ()
      | Some path ->
        let json =
          Json.Obj
            [
              "instance", Json.String file;
              "strategy", Json.String (Berkmin.Config.name_of config);
              "result", Json.String (result_to_string result);
              ( "stats",
                Berkmin.Stats.to_json ~seconds (Berkmin.Solver.stats solver)
              );
            ]
        in
        let text = Json.to_string_pretty json ^ "\n" in
        if path = "-" then print_string text
        else begin
          let oc = open_out path in
          output_string oc text;
          close_out oc;
          if not quiet then Printf.printf "c json summary written to %s\n" path
        end);
      (match result, proof with
      | Berkmin.Solver.Unsat, Some (path, p) ->
        Drup.write_file path p;
        if not quiet then Printf.printf "c proof written to %s\n" path;
        if check then begin
          match Drup.check cnf p with
          | Drup.Valid -> print_endline "c proof checked: VALID"
          | Drup.Invalid { step; reason; _ } ->
            Printf.printf "c proof checked: INVALID at step %d (%s)\n" step
              reason;
            exit 1
        end
      | (Berkmin.Solver.Sat _ | Berkmin.Solver.Unknown), Some _ | _, None -> ());
      (match result with
      | Berkmin.Solver.Sat model ->
        if check && not (Cnf.satisfied_by cnf model) then begin
          print_endline "c INTERNAL ERROR: model does not satisfy the formula";
          exit 1
        end;
        Format.printf "%a@."
          (fun fmt () ->
            Berkmin_dimacs.Dimacs.print_solution fmt (Some model))
          ();
        10
      | Berkmin.Solver.Unsat ->
        print_endline "s UNSATISFIABLE";
        20
      | Berkmin.Solver.Unknown ->
        print_endline "s UNKNOWN";
        0)
    with Sys_error msg ->
      (* unwritable --trace / --json / --proof destinations *)
      Printf.eprintf "berkmin: %s\n" msg;
      2)

open Cmdliner

let file =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE.cnf" ~doc:"DIMACS CNF input file.")

let strategy =
  Arg.(
    value & opt string "berkmin"
    & info [ "s"; "strategy" ] ~docv:"NAME"
        ~doc:
          "Solver configuration preset (berkmin, chaff, less_mobility, ...; \
           see --help).")

let max_conflicts =
  let non_negative =
    Arg.conv
      ( (fun s ->
          match int_of_string_opt s with
          | Some n when n >= 0 -> Ok n
          | Some _ | None -> Error (`Msg "expected a non-negative integer")),
        Format.pp_print_int )
  in
  Arg.(
    value
    & opt (some non_negative) None
    & info [ "max-conflicts" ] ~docv:"N" ~doc:"Abort after N conflicts.")

let max_seconds =
  Arg.(
    value
    & opt (some float) None
    & info [ "max-seconds" ] ~docv:"S" ~doc:"Abort after S CPU seconds.")

let proof_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "proof" ] ~docv:"FILE"
        ~doc:"Write a DRUP proof here when the answer is UNSATISFIABLE.")

let stats_flag =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print solver statistics.")

let check =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Verify the model (SAT) or the emitted proof (UNSAT); exit 1 \
           if the check fails.")

let seed =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"N" ~doc:"Override the heuristic RNG seed.")

let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Less c-line chatter.")

let json_out =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Write a JSON summary (result plus full statistics) to $(docv); \
           plain --json or FILE \"-\" prints it to stdout.")

let trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Stream structured trace events (decide/propagate/conflict/learn/\
           backjump/restart/reduce-db) to $(docv) as JSON Lines.")

let heartbeat =
  Arg.(
    value & opt int 0
    & info [ "heartbeat" ] ~docv:"N"
        ~doc:
          "Emit a heartbeat trace event every N conflicts (0 disables; \
           needs --trace to be visible).")

let profile =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Time the BCP / conflict-analysis / reduce-db phases (small \
           per-conflict overhead; shows in --stats and --json).")

let workers =
  Arg.(
    value & opt int 1
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Race $(docv) diversified solver processes on the formula and \
           answer with the first definitive verdict (a portfolio).  1 — \
           the default — solves sequentially in this process.")

let diversify =
  Arg.(
    value & opt bool true
    & info [ "portfolio-diversify" ] ~docv:"BOOL"
        ~doc:
          "With --workers > 1: diversify the portfolio across restart \
           policies, decision sensitivity and clause-DB aggressiveness \
           (default), or — when false — race identical copies differing \
           only in RNG seed.")

let worker_timeout =
  Arg.(
    value
    & opt (some float) None
    & info [ "worker-timeout" ] ~docv:"S"
        ~doc:
          "Kill any portfolio worker still running after $(docv) wall \
           seconds (contrast --max-seconds, which budgets CPU time \
           inside each solver).")

let share =
  Arg.(
    value & opt bool true
    & info [ "share" ] ~docv:"BOOL"
        ~doc:
          "With --workers > 1: exchange learnt clauses between the \
           portfolio workers (default).  Each worker exports clauses \
           passing the --share-max-len / --share-max-glue filter; the \
           parent rebroadcasts each distinct clause to the other \
           workers, which adopt it at their next restart.  See \
           docs/PARALLEL.md for the protocol.")

let share_max_len =
  Arg.(
    value & opt int 8
    & info [ "share-max-len" ] ~docv:"K"
        ~doc:
          "Export only learnt clauses of at most $(docv) literals \
           (default 8).")

let share_max_glue =
  Arg.(
    value & opt int 4
    & info [ "share-max-glue" ] ~docv:"G"
        ~doc:
          "Export only learnt clauses whose learn-time glue (LBD: \
           distinct decision levels among the clause's literals) is at \
           most $(docv) (default 4).")

let simplify =
  Arg.(
    value & opt string "off"
    & info [ "simplify" ] ~docv:"MODE"
        ~doc:
          "Clause-database simplification: $(b,off) (default), $(b,pre) \
           (one pass — subsumption, self-subsuming resolution, bounded \
           variable elimination, failed-literal probing — before \
           search) or $(b,inprocess) (the same pipeline again at every \
           restart).  Eliminated variables are reconstructed into the \
           printed model; with --proof every rewrite is logged, so the \
           DRUP certificate stays checkable.  See docs/SIMPLIFY.md.")

let simplify_growth =
  Arg.(
    value & opt int 0
    & info [ "simplify-growth" ] ~docv:"N"
        ~doc:
          "Bounded variable elimination may grow the clause count by at \
           most $(docv) clauses per eliminated variable (default 0: \
           eliminate only when the database shrinks or stays even).")

let ccmin =
  Arg.(
    value
    & opt (some string) None
    & info [ "ccmin" ] ~docv:"MODE"
        ~doc:
          "Conflict-clause minimization: $(b,off), $(b,basic) \
           (self-subsumption against the reason of each learnt literal) \
           or $(b,deep) (recursive reason-chain redundancy).  Overrides \
           the strategy preset.  See docs/STRATEGIES.md.")

let phase_saving =
  Arg.(
    value
    & opt (some bool) None
    & info [ "phase-saving" ] ~docv:"BOOL"
        ~doc:
          "Remember each variable's last assigned polarity and reuse it \
           on later decisions, overriding the configured polarity \
           heuristic for previously-assigned variables.  Overrides the \
           strategy preset.")

let restarts =
  Arg.(
    value
    & opt (some string) None
    & info [ "restarts" ] ~docv:"MODE"
        ~doc:
          "Restart schedule: $(b,fixed:N) (every $(b,N) conflicts, the \
           paper's scheme), $(b,luby:N) (Luby sequence with unit \
           $(b,N)) or $(b,none).  Overrides the strategy preset.")

let reduce =
  Arg.(
    value
    & opt (some string) None
    & info [ "reduce" ] ~docv:"MODE"
        ~doc:
          "Learnt-database reduction: $(b,berkmin) (the paper's \
           aging/activity scheme), $(b,length:N), $(b,glue:N) (keep \
           clauses with learn-time glue at most $(b,N), plus the \
           youngest band) or $(b,keep-all).  Overrides the strategy \
           preset.")

let cmd =
  let doc = "BerkMin-style CDCL SAT solver" in
  Cmd.v
    (Cmd.info "berkmin" ~doc)
    Term.(
      const run $ file $ strategy $ max_conflicts $ max_seconds $ proof_file
      $ stats_flag $ check $ seed $ quiet $ json_out $ trace_file $ heartbeat
      $ profile $ workers $ diversify $ worker_timeout $ share $ share_max_len
      $ share_max_glue $ simplify $ simplify_growth $ ccmin $ phase_saving
      $ restarts $ reduce)

let () = exit (Cmd.eval' cmd)

(* Command-line SAT solver: reads DIMACS, prints a SAT-competition
   style answer, optionally emits a DRUP proof and statistics.

   Exit codes follow the SAT-solver convention: 10 = SATISFIABLE,
   20 = UNSATISFIABLE, 0 = UNKNOWN, 1 = failed --check (bad model or
   invalid proof), 2 = unreadable or malformed input or an unwritable
   output path, 124 = command-line error. *)

open Berkmin_types
module Drup = Berkmin_proof.Drup
module Portfolio = Berkmin_portfolio.Portfolio

(* The summary both paths print once the search is over: the --stats
   c-lines and the --json object.  [stats] is the run's counters (a
   race has them only from its winner); [extra] adds fields after
   "stats". *)
let report ~file ~config ~quiet ~stats_flag ~json_out ?worker ?(extra = [])
    ~seconds stats result =
  (match stats with
  | Some st when stats_flag ->
    let text = Format.asprintf "%a" Berkmin.Stats.pp st in
    String.split_on_char '\n' text
    |> List.iter (fun line -> Printf.printf "c %s\n" line)
  | _ -> ());
  match json_out with
  | None -> ()
  | Some path ->
    let json =
      Json.Obj
        ([
           "instance", Json.String file;
           "strategy", Json.String (Berkmin.Config.name_of config);
           "result", Json.String (Portfolio.result_to_string result);
           ( "stats",
             match stats with
             | Some st -> Berkmin.Stats.to_json ?worker ~seconds st
             | None -> Json.Null );
         ]
        @ extra)
    in
    let text = Json.to_string_pretty json ^ "\n" in
    if path = "-" then print_string text
    else begin
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      if not quiet then Printf.printf "c json summary written to %s\n" path
    end

(* The answer both paths end with: a --check of the model, the s-line
   (and v-lines) and the exit code. *)
let answer ~check cnf = function
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

(* Race the portfolio instead of running one solver.  The JSON gains a
   "portfolio" object with the per-worker records, and "stats" comes
   from the winning worker. *)
let run_portfolio ~race ~workers ~diversify ~config ~file ~stats_flag ~check
    ~quiet ~json_out cnf =
  let started = Unix.gettimeofday () in
  let p = race cnf in
  let seconds = Unix.gettimeofday () -. started in
  if not quiet then begin
    Format.printf "c portfolio of %d workers (%s)@." workers
      (if diversify = Some false then "seed-only" else "diversified");
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
  report ~file ~config ~quiet ~stats_flag ~json_out ?worker:p.Portfolio.winner
    ~extra:[ "portfolio", Portfolio.outcome_to_json p ]
    ~seconds winner_stats p.Portfolio.result;
  answer ~check cnf p.Portfolio.result

(* Flags that exclude each other are usage errors, like a malformed
   value: the race's own settings mean nothing to a sequential solve,
   and DRUP logging follows one solver's derivation, not a race. *)
let run file config simplify_growth budget proof_file stats_flag check seed
    quiet json_out trace_file heartbeat profile workers diversify
    worker_timeout share share_max_len share_max_glue =
  let portfolio_only =
    List.filter_map
      (fun (flag, given) -> if given then Some flag else None)
      [
        "--portfolio-diversify", diversify <> None;
        "--worker-timeout", worker_timeout <> None;
        "--share", share <> None;
        "--share-max-len", share_max_len <> None;
        "--share-max-glue", share_max_glue <> None;
      ]
  in
  if workers > 1 && proof_file <> None then
    `Error
      ( true,
        "--proof needs a single worker: DRUP logging follows one solver's \
         derivation, not a race (drop --proof or use --workers 1)" )
  else if workers = 1 && portfolio_only <> [] then
    `Error
      ( true,
        String.concat ", " portfolio_only
        ^ ": portfolio only, needs --workers > 1" )
  else
    let config =
      {
        config with
        Berkmin.Config.simplify_growth;
        seed = Option.value seed ~default:config.Berkmin.Config.seed;
        heartbeat_interval = heartbeat;
        profile_timers = profile;
      }
    in
    `Ok
      (match Berkmin_dimacs.Dimacs.parse_file file with
      | exception Sys_error msg ->
        Printf.eprintf "cannot read %s: %s\n" file msg;
        2
      | exception Berkmin_dimacs.Dimacs.Parse_error { line; message } ->
        Printf.eprintf "%s:%d: %s\n" file line message;
        2
      | cnf when workers > 1 -> (
        if not quiet then
          Format.printf "c strategy %a@." Berkmin.Config.pp config;
        let race =
          Portfolio.solve_config ~budget ~workers ?diversify
            ?wall_timeout:worker_timeout ?share ?share_max_len ?share_max_glue
            ?trace_jsonl:trace_file config
        in
        try
          run_portfolio ~race ~workers ~diversify ~config ~file ~stats_flag
            ~check ~quiet ~json_out cnf
        with Sys_error msg ->
          Printf.eprintf "berkmin: %s\n" msg;
          2)
      | cnf -> (
        try
          let solver = Berkmin.Solver.create ~config cnf in
          Option.iter
            (fun path ->
              Berkmin.Solver.set_trace_sink solver
                (Berkmin.Trace.open_jsonl path))
            trace_file;
          let proof =
            match proof_file with
            | None -> None
            | Some path ->
              let p = Drup.create () in
              Berkmin.Solver.set_proof_logger solver (Drup.record p);
              Some (path, p)
          in
          let started = Sys.time () in
          let result = Berkmin.Solver.solve ~budget solver in
          let seconds = Sys.time () -. started in
          Berkmin.Solver.close_trace solver;
          if not quiet then
            Format.printf "c strategy %a@." Berkmin.Config.pp config;
          report ~file ~config ~quiet ~stats_flag ~json_out ~seconds
            (Some (Berkmin.Solver.stats solver))
            result;
          (match result, proof with
          | Berkmin.Solver.Unsat, Some (path, p) ->
            Drup.write_file path p;
            if not quiet then Printf.printf "c proof written to %s\n" path;
            if check then begin
              match Drup.check cnf p with
              | Drup.Valid -> print_endline "c proof checked: VALID"
              | Drup.Invalid { step; reason; _ } ->
                Printf.printf "c proof checked: INVALID at step %d (%s)\n"
                  step reason;
                exit 1
            end
          | (Berkmin.Solver.Sat _ | Berkmin.Solver.Unknown), Some _ | _, None
            -> ());
          answer ~check cnf result
        with Sys_error msg ->
          (* unwritable --trace / --json / --proof destinations *)
          Printf.eprintf "berkmin: %s\n" msg;
          2))

open Cmdliner

let file =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE.cnf" ~doc:"DIMACS CNF input file.")

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
    value
    & opt (Flags.count ~min:0) 0
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
    value
    & opt (Flags.count ~min:1) 1
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Race $(docv) diversified solver processes on the formula and \
           answer with the first definitive verdict (a portfolio).  1 — \
           the default — solves sequentially in this process.")

let diversify =
  Arg.(
    value
    & opt (some bool) None
    & info [ "portfolio-diversify" ] ~docv:"BOOL"
        ~doc:
          "With --workers > 1: diversify the portfolio across restart \
           policies, decision sensitivity and clause-DB aggressiveness \
           (default), or — when false — race identical copies differing \
           only in RNG seed.")

let worker_timeout =
  Arg.(
    value
    & opt (some Flags.seconds) None
    & info [ "worker-timeout" ] ~docv:"S"
        ~doc:
          "Kill any portfolio worker still running after $(docv) wall \
           seconds (contrast --max-seconds, which budgets CPU time \
           inside each solver).")

let share =
  Arg.(
    value
    & opt (some bool) None
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
    value
    & opt (some (Flags.count ~min:1)) None
    & info [ "share-max-len" ] ~docv:"K"
        ~doc:
          "Export only learnt clauses of at most $(docv) literals \
           (default 8).")

let share_max_glue =
  Arg.(
    value
    & opt (some (Flags.count ~min:1)) None
    & info [ "share-max-glue" ] ~docv:"G"
        ~doc:
          "Export only learnt clauses whose learn-time glue (LBD: \
           distinct decision levels among the clause's literals) is at \
           most $(docv) (default 4).")

let simplify_growth =
  Arg.(
    value
    & opt (Flags.count ~min:0) 0
    & info [ "simplify-growth" ] ~docv:"N"
        ~doc:
          "Bounded variable elimination may grow the clause count by at \
           most $(docv) clauses per eliminated variable (default 0: \
           eliminate only when the database shrinks or stays even).")

let cmd =
  let doc = "BerkMin-style CDCL SAT solver" in
  Cmd.v
    (Cmd.info "berkmin" ~doc)
    Term.(
      ret
        (const run $ file $ Flags.config $ simplify_growth $ Flags.budget
       $ proof_file $ stats_flag $ check $ seed $ quiet $ json_out $ trace_file
       $ heartbeat $ profile $ workers $ diversify $ worker_timeout $ share
       $ share_max_len $ share_max_glue))

let () = exit (Cmd.eval' cmd)

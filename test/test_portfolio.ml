(* Tests for the process-parallel portfolio: sequential equivalence,
   deterministic races with a known winner, crash injection (clean
   exits and SIGKILL mid-solve), wall-clock timeouts, diversification,
   the range checks on the race settings and the merged per-worker
   JSONL trace. *)

open Berkmin_types
module Config = Berkmin.Config
module Solver = Berkmin.Solver
module Stats = Berkmin.Stats
module Portfolio = Berkmin_portfolio.Portfolio

let check = Alcotest.check

let hole n = (Berkmin_gen.Pigeonhole.instance n (n - 1)).Berkmin_gen.Instance.cnf

(* A small satisfiable formula: planted random 3-SAT. *)
let easy_sat =
  lazy (Berkmin_gen.Random_ksat.planted ~num_vars:30 ~num_clauses:120 ~k:3 ~seed:7)

let result_kind = function
  | Solver.Sat _ -> "SAT"
  | Solver.Unsat -> "UNSAT"
  | Solver.Unknown -> "UNKNOWN"

let statuses outcome =
  List.map (fun w -> w.Portfolio.w_status) outcome.Portfolio.workers

(* ------------------------------------------------------------------ *)
(* workers = 1: the sequential fallback must match Solver.solve.       *)

let test_sequential_equivalence () =
  let cnf = hole 6 in
  let solver = Solver.create ~config:Config.berkmin cnf in
  let expected = Solver.solve solver in
  let st = Solver.stats solver in
  let outcome =
    Portfolio.solve_specs
      [ { Portfolio.sp_config = Config.berkmin; sp_budget = Solver.no_budget } ]
      cnf
  in
  check Alcotest.string "same verdict" (result_kind expected)
    (result_kind outcome.Portfolio.result);
  check (Alcotest.option Alcotest.int) "worker 0 wins" (Some 0)
    outcome.Portfolio.winner;
  (match outcome.Portfolio.workers with
  | [ w ] -> (
    match w.Portfolio.w_stats with
    | Some pst ->
      check Alcotest.int "same conflicts" st.Stats.conflicts
        pst.Stats.conflicts;
      check Alcotest.int "same decisions" st.Stats.decisions
        pst.Stats.decisions;
      check Alcotest.int "same propagations" st.Stats.propagations
        pst.Stats.propagations
    | None -> Alcotest.fail "sequential worker has no stats")
  | ws -> Alcotest.failf "expected 1 worker record, got %d" (List.length ws));
  (* and via the one-worker race *)
  let outcome' = Portfolio.solve_config ~workers:1 Config.berkmin cnf in
  check Alcotest.string "solve_config same verdict" (result_kind expected)
    (result_kind outcome'.Portfolio.result)

(* ------------------------------------------------------------------ *)
(* Forked races with a fixed order of events.                          *)

(* Poll [f] every millisecond until it holds or [seconds] pass. *)
let wait_until ~seconds f =
  let deadline = Unix.gettimeofday () +. seconds in
  while (not (f ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done

(* The process state letter of /proc/<pid>/stat ("Z" for a zombie):
   the field after the parenthesised command name.  [None] once the
   process is gone. *)
let proc_state pid =
  let path = Printf.sprintf "/proc/%d/stat" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | stat -> (
    match String.rindex_opt stat ')' with
    | Some i when i + 2 < String.length stat -> Some stat.[i + 2]
    | Some _ | None -> None)

(* A two-worker race in which worker [dies] publishes its pid (by an
   atomic rename), then runs [hook], and the other worker starts
   solving only once /proc shows [dies] a zombie or gone (waiting at
   most 10 s).  The survivor's win then always comes after the other
   worker's end, however the processes are scheduled. *)
let race_after_death ~dies hook specs cnf =
  let pid_file = Filename.temp_file "race" ".pid" in
  Sys.remove pid_file;
  let worker_hook i =
    if i = dies then begin
      let tmp = pid_file ^ ".tmp" in
      Out_channel.with_open_text tmp (fun oc ->
          output_string oc (string_of_int (Unix.getpid ())));
      Sys.rename tmp pid_file
    end
    else
      wait_until ~seconds:10.0 (fun () ->
          match In_channel.with_open_text pid_file In_channel.input_all with
          | exception Sys_error _ -> false
          | pid -> (
            match proc_state (int_of_string pid) with
            | Some 'Z' | None -> true
            | Some _ -> false));
    hook i
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove pid_file with Sys_error _ -> ())
    (fun () -> Portfolio.solve_specs ~worker_hook specs cnf)

(* ------------------------------------------------------------------ *)
(* A race whose winner is forced: one worker is budget-starved to     *)
(* Unknown, so the other must deliver the verdict.                     *)

let test_known_winner () =
  let cnf = hole 6 in
  let starved =
    {
      Portfolio.sp_config = Config.berkmin;
      sp_budget = Solver.budget_conflicts 0;
    }
  in
  let able =
    { Portfolio.sp_config = Config.berkmin; sp_budget = Solver.no_budget }
  in
  let outcome = race_after_death ~dies:0 ignore [ starved; able ] cnf in
  check Alcotest.string "UNSAT wins" "UNSAT"
    (result_kind outcome.Portfolio.result);
  check (Alcotest.option Alcotest.int) "worker 1 wins" (Some 1)
    outcome.Portfolio.winner;
  let w0 = List.nth outcome.Portfolio.workers 0 in
  check Alcotest.string "worker 0 exhausted" "exhausted"
    (Portfolio.status_to_string w0.Portfolio.w_status)

let test_sat_race_agrees_with_sequential () =
  let cnf = Lazy.force easy_sat in
  let sequential = Portfolio.solve_config Config.berkmin cnf in
  let configs = Portfolio.diversify ~workers:4 Config.berkmin in
  check Alcotest.int "4 configs" 4 (List.length configs);
  let outcome = Portfolio.solve_config ~workers:4 Config.berkmin cnf in
  check Alcotest.string "same verdict as sequential"
    (result_kind sequential.Portfolio.result)
    (result_kind outcome.Portfolio.result);
  (* the parent re-verified the winner's model, so SAT here is proven *)
  check Alcotest.bool "has a winner" true
    (outcome.Portfolio.winner <> None);
  check Alcotest.int "4 worker records" 4
    (List.length outcome.Portfolio.workers)

(* ------------------------------------------------------------------ *)
(* Crash injection: a worker exits 2 mid-solve; the race degrades     *)
(* gracefully to the survivors' verdict.                               *)

let test_crash_injection () =
  let cnf = hole 6 in
  let spec = { Portfolio.sp_config = Config.berkmin; sp_budget = Solver.no_budget } in
  let outcome =
    race_after_death ~dies:0 (fun i -> if i = 0 then exit 2) [ spec; spec ] cnf
  in
  check Alcotest.string "survivor's verdict" "UNSAT"
    (result_kind outcome.Portfolio.result);
  check (Alcotest.option Alcotest.int) "worker 1 wins" (Some 1)
    outcome.Portfolio.winner;
  match statuses outcome with
  | [ Portfolio.W_crashed 2; Portfolio.W_won ] -> ()
  | _ ->
    Alcotest.failf "unexpected statuses: %s"
      (String.concat ", "
         (List.map Portfolio.status_to_string (statuses outcome)))

let test_sigkill_injection () =
  let cnf = hole 6 in
  let spec = { Portfolio.sp_config = Config.berkmin; sp_budget = Solver.no_budget } in
  let outcome =
    race_after_death ~dies:1 (fun i ->
        if i = 1 then Unix.kill (Unix.getpid ()) Sys.sigkill)
      [ spec; spec ] cnf
  in
  check Alcotest.string "survivor's verdict" "UNSAT"
    (result_kind outcome.Portfolio.result);
  check (Alcotest.option Alcotest.int) "worker 0 wins" (Some 0)
    outcome.Portfolio.winner;
  let w1 = List.nth outcome.Portfolio.workers 1 in
  match w1.Portfolio.w_status with
  | Portfolio.W_signaled _ -> ()
  | st ->
    Alcotest.failf "worker 1 should be signaled, was %s"
      (Portfolio.status_to_string st)

let test_all_workers_fail () =
  let cnf = hole 6 in
  let spec = { Portfolio.sp_config = Config.berkmin; sp_budget = Solver.no_budget } in
  let hook _ = exit 3 in
  let outcome = Portfolio.solve_specs ~worker_hook:hook [ spec; spec ] cnf in
  check Alcotest.string "no verdict" "UNKNOWN"
    (result_kind outcome.Portfolio.result);
  check (Alcotest.option Alcotest.int) "no winner" None
    outcome.Portfolio.winner

let test_wall_timeout () =
  (* Workers that would run essentially forever are killed at the
     deadline and the aggregate degrades to Unknown. *)
  let cnf = hole 9 in
  let spec =
    { Portfolio.sp_config = Config.berkmin; sp_budget = Solver.no_budget }
  in
  let outcome =
    Portfolio.solve_specs ~wall_timeout:0.2 [ spec; spec ] cnf
  in
  check Alcotest.string "timeout -> UNKNOWN" "UNKNOWN"
    (result_kind outcome.Portfolio.result);
  List.iter
    (fun w ->
      match w.Portfolio.w_status with
      | Portfolio.W_timed_out -> ()
      | st ->
        Alcotest.failf "expected timed_out, got %s"
          (Portfolio.status_to_string st))
    outcome.Portfolio.workers

(* ------------------------------------------------------------------ *)
(* Diversification.                                                    *)

let test_diversify () =
  let configs = Portfolio.diversify ~workers:8 Config.berkmin in
  check Alcotest.int "8 configs" 8 (List.length configs);
  (* worker 0 is the base configuration *)
  check Alcotest.string "worker 0 is base" "berkmin"
    (Config.name_of (List.hd configs));
  (* seeds are pairwise distinct *)
  let seeds = List.map (fun c -> c.Config.seed) configs in
  check Alcotest.int "distinct seeds" 8
    (List.length (List.sort_uniq compare seeds));
  (* at least one lane changes the restart policy and one the DB *)
  let restarts =
    List.sort_uniq compare
      (List.map (fun c -> Format.asprintf "%a" Config.pp c) configs)
  in
  check Alcotest.bool "lanes differ" true (List.length restarts > 4);
  (* seed-only mode keeps the heuristics identical *)
  let same = Portfolio.diversify ~diversify:false ~workers:3 Config.berkmin in
  List.iter
    (fun c ->
      check Alcotest.string "seed-only keeps preset" "berkmin"
        (Config.name_of c))
    same

(* ------------------------------------------------------------------ *)
(* Race settings out of range are refused before any worker forks.     *)

let test_invalid_settings () =
  let cnf = hole 5 in
  let spec =
    { Portfolio.sp_config = Config.berkmin; sp_budget = Solver.no_budget }
  in
  Alcotest.check_raises "no workers"
    (Invalid_argument "Portfolio.diversify: need at least one worker")
    (fun () -> ignore (Portfolio.solve_config ~workers:0 Config.berkmin cnf));
  let caps =
    Invalid_argument "Portfolio.solve_specs: share caps need at least 1"
  in
  Alcotest.check_raises "length cap 0" caps (fun () ->
      ignore (Portfolio.solve_specs ~share_max_len:0 [ spec; spec ] cnf));
  Alcotest.check_raises "glue cap 0" caps (fun () ->
      ignore
        (Portfolio.solve_config ~workers:2 ~share_max_glue:0 Config.berkmin
           cnf));
  let timeout =
    Invalid_argument "Portfolio.solve_specs: negative wall timeout"
  in
  Alcotest.check_raises "negative wall timeout" timeout (fun () ->
      ignore (Portfolio.solve_specs ~wall_timeout:(-1.0) [ spec; spec ] cnf));
  Alcotest.check_raises "NaN wall timeout" timeout (fun () ->
      ignore (Portfolio.solve_specs ~wall_timeout:Float.nan [ spec ] cnf))

(* ------------------------------------------------------------------ *)
(* Merged trace with per-worker tags.                                  *)

let test_merged_trace () =
  let path = Filename.temp_file "portfolio_trace" ".jsonl" in
  let cnf = hole 5 in
  let outcome =
    Portfolio.solve_config ~workers:2 ~trace_jsonl:path Config.berkmin cnf
  in
  check Alcotest.string "traced race still UNSAT" "UNSAT"
    (result_kind outcome.Portfolio.result);
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  check Alcotest.bool "trace nonempty" true (!lines <> []);
  let workers_seen =
    List.filter_map
      (fun line ->
        match Json.member "worker" (Json.of_string line) with
        | Some (Json.Int w) -> Some w
        | _ -> None)
      !lines
    |> List.sort_uniq compare
  in
  (* every line is tagged; the winner's lines are present at least *)
  check Alcotest.int "all lines tagged" (List.length !lines)
    (List.length
       (List.filter
          (fun l -> Json.member "worker" (Json.of_string l) <> None)
          !lines));
  check Alcotest.bool "winner's worker tag present" true
    (match outcome.Portfolio.winner with
    | Some w -> List.mem w workers_seen
    | None -> false);
  (* no stray per-worker files left behind *)
  check Alcotest.bool "worker files merged and removed" true
    (not (Sys.file_exists (path ^ ".w0") || Sys.file_exists (path ^ ".w1")))

(* One worker solves in this process and traces straight to [path]:
   the same events as a solver built and traced by hand, untagged. *)
let test_sequential_trace () =
  let path = Filename.temp_file "portfolio_trace" ".jsonl" in
  let cnf = hole 5 in
  let outcome =
    Portfolio.solve_config ~trace_jsonl:path Config.berkmin cnf
  in
  let lines = In_channel.with_open_text path In_channel.input_lines in
  Sys.remove path;
  check Alcotest.string "traced solve UNSAT" "UNSAT"
    (result_kind outcome.Portfolio.result);
  let solver = Solver.create cnf in
  let events = ref 0 in
  Solver.set_trace_sink solver (Berkmin.Trace.Callback (fun _ -> incr events));
  ignore (Solver.solve solver);
  check Alcotest.int "one line per event" !events (List.length lines);
  check Alcotest.bool "no worker tag" true
    (List.for_all (fun l -> Json.member "worker" (Json.of_string l) = None) lines)

(* ------------------------------------------------------------------ *)
(* JSON shape.                                                         *)

let test_outcome_json () =
  let cnf = hole 6 in
  let outcome = Portfolio.solve_config ~workers:2 Config.berkmin cnf in
  let json = Portfolio.outcome_to_json outcome in
  (* round-trips through the hand-rolled parser *)
  let json = Json.of_string (Json.to_string json) in
  check (Alcotest.option Alcotest.string) "result field" (Some "UNSAT")
    (Option.bind (Json.member "result" json) Json.to_string_opt);
  match Option.bind (Json.member "workers" json) Json.to_list_opt with
  | Some ws ->
    check Alcotest.int "worker records" 2 (List.length ws);
    List.iter
      (fun w ->
        check Alcotest.bool "has status" true (Json.member "status" w <> None);
        check Alcotest.bool "has strategy" true
          (Json.member "strategy" w <> None))
      ws
  | None -> Alcotest.fail "no workers array"

let () =
  Alcotest.run "portfolio"
    [
      ( "sequential",
        [
          Alcotest.test_case "workers=1 equivalence" `Quick
            test_sequential_equivalence;
        ] );
      ( "race",
        [
          Alcotest.test_case "known winner" `Quick test_known_winner;
          Alcotest.test_case "sat race agrees" `Quick
            test_sat_race_agrees_with_sequential;
          Alcotest.test_case "wall timeout" `Quick test_wall_timeout;
        ] );
      ( "faults",
        [
          Alcotest.test_case "crash injection" `Quick test_crash_injection;
          Alcotest.test_case "sigkill injection" `Quick test_sigkill_injection;
          Alcotest.test_case "all workers fail" `Quick test_all_workers_fail;
        ] );
      ( "diversify", [ Alcotest.test_case "lanes" `Quick test_diversify ] );
      ( "settings",
        [ Alcotest.test_case "out of range" `Quick test_invalid_settings ] );
      ( "observability",
        [
          Alcotest.test_case "merged trace" `Quick test_merged_trace;
          Alcotest.test_case "sequential trace" `Quick test_sequential_trace;
          Alcotest.test_case "outcome json" `Quick test_outcome_json;
        ] );
    ]

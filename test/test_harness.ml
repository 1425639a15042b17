(* Tests for the experiment harness: runner records, table formatting,
   stats helpers. *)

module Runner = Berkmin_harness.Runner
module Table = Berkmin_harness.Table
module Experiments = Berkmin_harness.Experiments
module Stats = Berkmin.Stats

let check = Alcotest.check

let test_run_instance_sat () =
  let inst = Berkmin_gen.Pigeonhole.instance 4 4 in
  let o = Runner.run_instance Berkmin.Config.berkmin inst in
  check Alcotest.bool "verdict" true (o.Runner.verdict = Runner.V_sat);
  check Alcotest.bool "correct" true o.Runner.correct;
  check Alcotest.bool "time recorded" true (o.Runner.seconds >= 0.0);
  check Alcotest.bool "initial clauses" true (o.Runner.initial_clauses > 0)

let test_run_instance_unsat () =
  let inst = Berkmin_gen.Pigeonhole.instance 5 4 in
  let o = Runner.run_instance Berkmin.Config.berkmin inst in
  check Alcotest.bool "verdict" true (o.Runner.verdict = Runner.V_unsat);
  check Alcotest.bool "correct" true o.Runner.correct

let test_run_instance_abort () =
  let inst = Berkmin_gen.Pigeonhole.instance 10 9 in
  let o =
    Runner.run_instance
      ~budget:(Berkmin.Solver.budget_conflicts 100)
      Berkmin.Config.berkmin inst
  in
  check Alcotest.bool "aborted" true (o.Runner.verdict = Runner.V_aborted);
  check Alcotest.bool "abort counted correct" true o.Runner.correct

let test_run_class () =
  let instances =
    [ Berkmin_gen.Pigeonhole.instance 4 4; Berkmin_gen.Pigeonhole.instance 5 4 ]
  in
  let r =
    Runner.class_of_outcomes "Hole"
      (List.map (Runner.run_instance Berkmin.Config.berkmin) instances)
  in
  check Alcotest.int "outcomes" 2 (List.length r.Runner.outcomes);
  check Alcotest.int "no aborts" 0 r.Runner.aborted;
  check Alcotest.int "no wrong" 0 r.Runner.wrong;
  check (Alcotest.float 0.001) "adjusted = total when no aborts"
    r.Runner.total_seconds
    (Table.penalized r.Runner.total_seconds r.Runner.aborted ~penalty:100.0)

let test_adjusted_seconds_with_aborts () =
  let instances = [ Berkmin_gen.Pigeonhole.instance 9 8 ] in
  let r =
    Runner.class_of_outcomes "Hole"
      (List.map
         (Runner.run_instance
            ~budget:(Berkmin.Solver.budget_conflicts 10)
            Berkmin.Config.berkmin)
         instances)
  in
  check Alcotest.int "one abort" 1 r.Runner.aborted;
  check Alcotest.bool "penalty applied" true
    (Table.penalized r.Runner.total_seconds r.Runner.aborted ~penalty:50.0
     >= 50.0)

(* ------------------------------------------------------------------ *)

let test_table_render () =
  let out =
    Table.render
      ~header:[ "a"; "b" ]
      [ [ "x"; "1" ]; [ "longer"; "22" ] ]
  in
  let lines = String.split_on_char '\n' out in
  check Alcotest.int "4 lines + trailing" 5 (List.length lines);
  (* All non-empty lines are equally wide. *)
  let widths =
    List.filter_map
      (fun l -> if l = "" then None else Some (String.length l))
      lines
  in
  List.iter (fun w -> check Alcotest.int "aligned" (List.hd widths) w) widths

(* Table 6's winner reads the seconds the rows print: results 3 ms
   apart both print 0.00 and tie, whichever is really faster; the
   abort penalty counts. *)
let test_table_winner () =
  let result total_seconds aborted =
    { Runner.class_name = "Par16"; outcomes = []; total_seconds; aborted;
      wrong = 0 }
  in
  let winner ch bm =
    Experiments.winner Experiments.quick_opts ~chaff:ch ~berkmin:bm
  in
  check Alcotest.string "below print precision" "tie"
    (winner (result 0.001 0) (result 0.004 0));
  check Alcotest.string "the other way round" "tie"
    (winner (result 0.004 0) (result 0.001 0));
  check Alcotest.string "a printed difference" "chaff"
    (winner (result 0.001 0) (result 0.009 0));
  check Alcotest.string "abort penalty counts" "berkmin"
    (winner (result 0.5 1) (result 1.2 0))

let test_table_seconds () =
  check Alcotest.string "plain" "12.35" (Table.seconds 12.345);
  check Alcotest.string "no aborts" "1.00"
    (Table.seconds_aborted 1.0 0 ~penalty:60.0);
  check Alcotest.string "with aborts" "> 121.00 (2)"
    (Table.seconds_aborted 1.0 2 ~penalty:60.0)

(* ------------------------------------------------------------------ *)

let test_stats_skin () =
  let st = Stats.create () in
  Stats.record_skin st 0;
  Stats.record_skin st 0;
  Stats.record_skin st 5;
  Stats.record_skin st 1000;
  check Alcotest.int "f(0)" 2 (Stats.skin_at st 0);
  check Alcotest.int "f(5)" 1 (Stats.skin_at st 5);
  check Alcotest.int "f(1000)" 1 (Stats.skin_at st 1000);
  check Alcotest.int "f(3) empty" 0 (Stats.skin_at st 3);
  check Alcotest.int "out of range" 0 (Stats.skin_at st 999999)

let test_stats_ratios () =
  let st = Stats.create () in
  st.Stats.learnt_total <- 20;
  Stats.note_live_clauses st 35;
  check (Alcotest.float 0.001) "db ratio" 3.0 (Stats.db_ratio st ~initial:10);
  check (Alcotest.float 0.001) "peak ratio" 3.5 (Stats.peak_ratio st ~initial:10);
  check (Alcotest.float 0.001) "zero initial" 0.0 (Stats.db_ratio st ~initial:0)

(* --profile's phase timers reach the --stats block. *)
let test_stats_pp_profile () =
  let st = Stats.create () in
  st.Stats.time_bcp <- 0.25;
  let lines = String.split_on_char '\n' (Format.asprintf "%a" Stats.pp st) in
  check Alcotest.bool "profile line names the bcp timer" true
    (List.mem "profile        : bcp 0.250s, analyze 0.000s, reduce 0.000s (CPU)"
       lines)

(* ------------------------------------------------------------------ *)

let test_config_presets_distinct () =
  let presets = Berkmin.Config.presets in
  check Alcotest.int "twelve presets" 12 (List.length presets);
  let names = List.map fst presets in
  check Alcotest.int "unique names" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (name, c) ->
      check Alcotest.string ("name_of " ^ name) name (Berkmin.Config.name_of c);
      (* the observability and simplifier fields are not part of a
         preset's identity... *)
      List.iter
        (fun (field, c) ->
          check Alcotest.string
            (Printf.sprintf "%s with %s" name field)
            name (Berkmin.Config.name_of c))
        [
          "seed", { c with seed = c.seed + 7 };
          "heartbeat_interval", { c with heartbeat_interval = 10 };
          "profile_timers", { c with profile_timers = true };
          "simplify", { c with simplify = Simp_inprocess };
          "simplify_growth", { c with simplify_growth = 5 };
        ];
      (* ...but every search field is *)
      check Alcotest.string (name ^ " with top_window = 2") "custom"
        (Berkmin.Config.name_of { c with top_window = 2 }))
    presets

module Json = Berkmin_types.Json

let test_experiment_names () =
  let names = Experiments.names in
  check Alcotest.int "sixteen experiments" 16 (List.length names);
  check Alcotest.bool "table7 present" true (List.mem "table7" names);
  check Alcotest.bool "figure1 present" true (List.mem "figure1" names);
  check Alcotest.bool "ext-restarts present" true (List.mem "ext-restarts" names);
  match Experiments.run Experiments.quick_opts [ "nonsense" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown experiment accepted"

(* Conflict-only budgets keep the shared-column runs small; a column
   two tables share must then be the same run, timings included. *)
let small_opts =
  {
    Experiments.budget = Berkmin.Solver.budget_conflicts 200;
    hard_budget = Berkmin.Solver.budget_conflicts 200;
    abort_penalty = 1.0;
  }

let json = Alcotest.testable Json.pp ( = )

let field path j =
  List.fold_left
    (fun j key ->
      match Json.member key j with
      | Some v -> v
      | None -> Alcotest.failf "no %S in %s" key (Json.to_string j))
    j path

let items j = Option.get (Json.to_list_opt j)

let test_hard_pairs_shared () =
  let twins, wrong = Experiments.run small_opts [ "table8"; "table9" ] in
  check Alcotest.int "no wrong answer" 0 (List.length wrong);
  let pairs name = items (field [ "instances" ] (List.assoc name twins)) in
  check Alcotest.int "five hard instances" 5 (List.length (pairs "table8"));
  List.iter2
    (fun t8 t9 ->
      check json "chaff run" (field [ "chaff" ] t8) (field [ "chaff" ] t9);
      check json "berkmin run" (field [ "berkmin" ] t8) (field [ "berkmin" ] t9))
    (pairs "table8") (pairs "table9")

let test_berkmin_column_shared () =
  let twins, _ = Experiments.run small_opts [ "table1"; "table2" ] in
  let berkmin name =
    List.find
      (fun c -> field [ "config" ] c = Json.String "BerkMin")
      (items (field [ "configs" ] (List.assoc name twins)))
  in
  check json "BerkMin classes"
    (field [ "classes" ] (berkmin "table1"))
    (field [ "classes" ] (berkmin "table2"))

let () =
  Alcotest.run "harness"
    [
      ( "runner",
        [
          Alcotest.test_case "sat outcome" `Quick test_run_instance_sat;
          Alcotest.test_case "unsat outcome" `Quick test_run_instance_unsat;
          Alcotest.test_case "abort outcome" `Quick test_run_instance_abort;
          Alcotest.test_case "class" `Quick test_run_class;
          Alcotest.test_case "adjusted seconds" `Quick
            test_adjusted_seconds_with_aborts;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "seconds" `Quick test_table_seconds;
          Alcotest.test_case "winner at print precision" `Quick
            test_table_winner;
        ] );
      ( "stats",
        [
          Alcotest.test_case "skin" `Quick test_stats_skin;
          Alcotest.test_case "ratios" `Quick test_stats_ratios;
          Alcotest.test_case "pp profile" `Quick test_stats_pp_profile;
        ] );
      ( "config",
        [
          Alcotest.test_case "presets distinct" `Quick test_config_presets_distinct;
          Alcotest.test_case "experiment names" `Quick test_experiment_names;
        ] );
      ( "run set",
        [
          Alcotest.test_case "tables 8 and 9 share the hard runs" `Quick
            test_hard_pairs_shared;
          Alcotest.test_case "tables 1 and 2 share the BerkMin column" `Quick
            test_berkmin_column_shared;
        ] );
    ]

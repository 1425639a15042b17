open Berkmin_gen
module Config = Berkmin.Config
module Stats = Berkmin.Stats
module Json = Berkmin_types.Json

type opts = {
  budget : Berkmin.Solver.budget;
  hard_budget : Berkmin.Solver.budget;
  abort_penalty : float;
}

(* ------------------------------------------------------------------ *)
(* Machine-readable trail: every experiment records its data here as
   it prints, so the bench harness can dump a JSON companion to the
   plain-text report.                                                  *)

let json_log : (string * Json.t) list ref = ref []

let reset_json () = json_log := []

let record_json name j = json_log := (name, j) :: !json_log

let collected_json () = List.rev !json_log

(* Budgets are sized so the full evaluation finishes in tens of
   minutes on one core: the reference solver's hardest solve
   (pipe3_w3, ~25 CPU s) fits comfortably, and each abort by a
   baseline costs at most the cap. *)
let default_opts = {
  budget = { Berkmin.Solver.max_conflicts = Some 400_000; max_seconds = Some 45.0 };
  hard_budget =
    { Berkmin.Solver.max_conflicts = Some 600_000; max_seconds = Some 60.0 };
  abort_penalty = 100.0;
}

let quick_opts = {
  budget = Runner.quick_budget;
  hard_budget = Runner.quick_budget;
  abort_penalty = 20.0;
}

(* ------------------------------------------------------------------ *)
(* Shared sweep machinery: run several configurations over the twelve
   classes and print one column per configuration, as Tables 1/2/4/5
   do.                                                                  *)

let check_no_wrong results =
  List.iter
    (fun (r : Runner.class_result) ->
      if r.wrong > 0 then
        Printf.printf
          "WARNING: %d incorrect verdict(s) in class %s — investigate!\n"
          r.wrong r.class_name)
    results

let class_sweep ~name opts configs =
  let classes = Suites.all () in
  (* results.(i) = per-class results of configuration i, class order
     preserved. *)
  let results =
    List.map
      (fun (_, config) ->
        List.map
          (fun (name, instances) ->
            Runner.run_class ~budget:opts.budget config name instances)
          classes)
      configs
  in
  List.iter check_no_wrong results;
  let rows =
    List.mapi
      (fun ci (class_name, _) ->
        class_name
        :: List.map
             (fun per_class ->
               let r = List.nth per_class ci in
               Table.seconds_aborted r.Runner.total_seconds r.Runner.aborted
                 ~penalty:opts.abort_penalty)
             results)
      classes
  in
  let totals =
    "Total"
    :: List.map
         (fun per_class ->
           let t =
             List.fold_left
               (fun acc (r : Runner.class_result) ->
                 acc +. Runner.adjusted_seconds ~penalty:opts.abort_penalty r)
               0.0 per_class
           in
           let aborts =
             List.fold_left
               (fun acc (r : Runner.class_result) -> acc + r.Runner.aborted)
               0 per_class
           in
           if aborts = 0 then Table.seconds t
           else Printf.sprintf "> %.2f (%d)" t aborts)
         results
  in
  let header = "Class" :: List.map fst configs in
  Table.print ~header (rows @ [ totals ]);
  record_json name
    (Json.Obj
       [
         "table", Table.to_json ~header (rows @ [ totals ]);
         ( "configs",
           Json.List
             (List.map2
                (fun (config_name, _) per_class ->
                  Json.Obj
                    [
                      "config", Json.String config_name;
                      ( "classes",
                        Json.List
                          (List.map Runner.class_result_to_json per_class) );
                    ])
                configs results) );
       ])

(* ------------------------------------------------------------------ *)

let table1 opts =
  Table.section "Table 1 — Changing sensitivity of decision-making (seconds)";
  print_endline
    "Paper: BerkMin total 20,412 s vs Less_sensitivity 51,498 s; the gap\n\
     comes from the hard classes (Hanoi, Miters, Fvp_unsat2.0).";
  class_sweep ~name:"table1" opts
    [ "BerkMin", Config.berkmin; "Less_sensitivity", Config.less_sensitivity ]

let table2 opts =
  Table.section "Table 2 — Changing mobility of decision-making (seconds)";
  print_endline
    "Paper: BerkMin total 20,412 s vs Less_mobility > 258,959 s with 3\n\
     aborts (Beijing x2, Fvp_unsat2.0); biggest single novelty.";
  class_sweep ~name:"table2" opts
    [ "BerkMin", Config.berkmin; "Less_mobility", Config.less_mobility ]

let table4 opts =
  Table.section "Table 4 — Branch selection heuristics (seconds)";
  print_endline
    "Paper: BerkMin 20,412 s; Sat_top 36,153; Unsat_top > 155,393 (2);\n\
     Take_0 53,624; Take_1 > 213,808 (3); Take_rand 24,845.  Symmetrize\n\
     and Take_rand are the two good ones.";
  class_sweep ~name:"table4" opts
    [
      "BerkMin", Config.berkmin;
      "Sat_top", Config.sat_top;
      "Unsat_top", Config.unsat_top;
      "Take_0", Config.take_zero;
      "Take_1", Config.take_one;
      "Take_rand", Config.take_random;
    ]

let table5 opts =
  Table.section "Table 5 — Clause database management (seconds)";
  print_endline
    "Paper: BerkMin 20,412 s vs Limited_keeping (GRASP-style, remove\n\
     length > 42) 57,881 s; factor >= 2 on Hanoi, Miters, Fvp_unsat2.0.";
  class_sweep ~name:"table5" opts
    [ "BerkMin", Config.berkmin; "Limited_keeping", Config.limited_keeping ]

(* ------------------------------------------------------------------ *)

let table3 opts =
  Table.section "Table 3 — Skin effect: f(r) by distance from stack top";
  print_endline
    "Paper: f(r) decreases steeply with r on all five hard instances\n\
     (f(0) is small because the topmost clause is consumed by BCP\n\
     immediately after being learnt).";
  let instances = Suites.hard_instances () in
  let outcomes =
    List.map
      (Runner.run_instance ~budget:opts.hard_budget Config.berkmin)
      instances
  in
  let distances = [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 50; 100; 500; 1000; 2000 ] in
  let header =
    "distance" :: List.map (fun o -> o.Runner.instance_name) outcomes
  in
  let rows =
    List.map
      (fun r ->
        Printf.sprintf "f(%d)" r
        :: List.map
             (fun o -> string_of_int (Stats.skin_at o.Runner.stats r))
             outcomes)
      distances
  in
  Table.print ~header rows;
  record_json "table3"
    (Json.Obj
       [
         "table", Table.to_json ~header rows;
         "instances", Json.List (List.map Runner.outcome_to_json outcomes);
       ])

(* ------------------------------------------------------------------ *)

let comparable_classes () =
  List.filter
    (fun (name, _) ->
      List.mem name
        [
          "Blocksworld"; "Hole"; "Par16"; "Sss1.0"; "Sss1.0a"; "Sss_sat1.0";
          "Fvp_unsat1.0"; "Vliw_sat1.0";
        ])
    (Suites.all ())

let dominated_classes () =
  List.filter
    (fun (name, _) ->
      List.mem name [ "Beijing"; "Miters"; "Hanoi"; "Fvp_unsat2.0" ])
    (Suites.all ())

let table6 opts =
  Table.section "Table 6 — BerkMin vs Chaff: comparable classes (seconds)";
  print_endline
    "Paper: Chaff wins Hole (38 vs 339 s) and Fvp_unsat1.0; BerkMin wins\n\
     the rest; neither aborts anything.";
  let classes = comparable_classes () in
  let results =
    List.map
      (fun (name, instances) ->
        let ch = Runner.run_class ~budget:opts.budget Config.chaff name instances in
        let bm = Runner.run_class ~budget:opts.budget Config.berkmin name instances in
        check_no_wrong [ ch; bm ];
        (name, instances, ch, bm))
      classes
  in
  let rows =
    List.map
      (fun (name, instances, (ch : Runner.class_result), bm) ->
        [
          name;
          string_of_int (List.length instances);
          Table.seconds_aborted ch.total_seconds ch.aborted
            ~penalty:opts.abort_penalty;
          Table.seconds_aborted bm.Runner.total_seconds bm.Runner.aborted
            ~penalty:opts.abort_penalty;
          (if ch.total_seconds < bm.Runner.total_seconds then "chaff"
           else "berkmin");
        ])
      results
  in
  let header = [ "Class"; "#inst"; "zChaff"; "BerkMin"; "winner" ] in
  Table.print ~header rows;
  record_json "table6"
    (Json.Obj
       [
         "table", Table.to_json ~header rows;
         ( "classes",
           Json.List
             (List.map
                (fun (_, _, ch, bm) ->
                  Json.Obj
                    [
                      "chaff", Runner.class_result_to_json ch;
                      "berkmin", Runner.class_result_to_json bm;
                    ])
                results) );
       ])

let table7 opts =
  Table.section "Table 7 — Classes where BerkMin dominates (seconds)";
  Printf.printf
    "Paper: Chaff aborts 2 of Beijing, 2 of Miters, 2 of Fvp-unsat2.0;\n\
     BerkMin aborts nothing.  Abort penalty here: %.0f s per abort.\n"
    opts.abort_penalty;
  let classes = dominated_classes () in
  let results =
    List.map
      (fun (name, instances) ->
        let ch =
          Runner.run_class ~budget:opts.hard_budget Config.chaff name instances
        in
        let bm =
          Runner.run_class ~budget:opts.hard_budget Config.berkmin name instances
        in
        check_no_wrong [ ch; bm ];
        (name, instances, ch, bm))
      classes
  in
  let rows =
    List.map
      (fun (name, instances, (ch : Runner.class_result), bm) ->
        [
          name;
          string_of_int (List.length instances);
          Table.seconds_aborted ch.total_seconds ch.aborted
            ~penalty:opts.abort_penalty;
          string_of_int ch.aborted;
          Table.seconds_aborted bm.Runner.total_seconds bm.Runner.aborted
            ~penalty:opts.abort_penalty;
          string_of_int bm.Runner.aborted;
        ])
      results
  in
  let header = [ "Class"; "#inst"; "zChaff"; "ab"; "BerkMin"; "ab" ] in
  Table.print ~header rows;
  record_json "table7"
    (Json.Obj
       [
         "table", Table.to_json ~header rows;
         ( "classes",
           Json.List
             (List.map
                (fun (_, _, ch, bm) ->
                  Json.Obj
                    [
                      "chaff", Runner.class_result_to_json ch;
                      "berkmin", Runner.class_result_to_json bm;
                    ])
                results) );
       ])

let table8 opts =
  Table.section "Table 8 — Decisions and runtimes on hard instances";
  print_endline
    "Paper: BerkMin builds much smaller search trees (e.g. 4pipe 144k vs\n\
     467k decisions) and solves 7pipe where Chaff times out.";
  let instances = Suites.hard_instances () in
  let results =
    List.map
      (fun inst ->
        let ch = Runner.run_instance ~budget:opts.hard_budget Config.chaff inst in
        let bm =
          Runner.run_instance ~budget:opts.hard_budget Config.berkmin inst
        in
        (inst, ch, bm))
      instances
  in
  let rows =
    List.map
      (fun (inst, ch, bm) ->
        [
          inst.Instance.name;
          Instance.expected_to_string inst.Instance.expected;
          string_of_int ch.Runner.stats.Stats.decisions
          ^ (if ch.Runner.verdict = Runner.V_aborted then "*" else "");
          Table.seconds ch.Runner.seconds;
          string_of_int bm.Runner.stats.Stats.decisions
          ^ (if bm.Runner.verdict = Runner.V_aborted then "*" else "");
          Table.seconds bm.Runner.seconds;
        ])
      results
  in
  let header =
    [ "Instance"; "sat?"; "zChaff dec"; "time"; "BerkMin dec"; "time" ]
  in
  Table.print ~header rows;
  print_endline "(* = aborted at the budget)";
  record_json "table8"
    (Json.Obj
       [
         "table", Table.to_json ~header rows;
         ( "instances",
           Json.List
             (List.map
                (fun (_, ch, bm) ->
                  Json.Obj
                    [
                      "chaff", Runner.outcome_to_json ch;
                      "berkmin", Runner.outcome_to_json bm;
                    ])
                results) );
       ])

let table9 opts =
  Table.section "Table 9 — Database size relative to the initial CNF";
  print_endline
    "Paper: BerkMin's (generated)/(initial) ratio is well below Chaff's\n\
     (e.g. hanoi6: 19.6 vs 93.3) and its peak live database stays within\n\
     ~1-4x of the initial CNF.";
  let instances = Suites.hard_instances () in
  let results =
    List.map
      (fun inst ->
        let ch = Runner.run_instance ~budget:opts.hard_budget Config.chaff inst in
        let bm =
          Runner.run_instance ~budget:opts.hard_budget Config.berkmin inst
        in
        (inst, ch, bm))
      instances
  in
  let gen_ratio (o : Runner.outcome) =
    Stats.db_ratio o.stats ~initial:o.initial_clauses
  in
  let peak_ratio (o : Runner.outcome) =
    Stats.peak_ratio o.stats ~initial:o.initial_clauses
  in
  let rows =
    List.map
      (fun (inst, ch, bm) ->
        [
          inst.Instance.name;
          Table.ratio (gen_ratio ch);
          Table.ratio (gen_ratio bm);
          Table.ratio (peak_ratio bm);
        ])
      results
  in
  let header =
    [ "Instance"; "zChaff gen/init"; "BerkMin gen/init"; "BerkMin peak/init" ]
  in
  Table.print ~header rows;
  record_json "table9"
    (Json.Obj
       [
         "table", Table.to_json ~header rows;
         ( "instances",
           Json.List
             (List.map
                (fun (inst, ch, bm) ->
                  Json.Obj
                    [
                      "instance", Json.String inst.Instance.name;
                      "chaff_gen_ratio", Json.Float (gen_ratio ch);
                      "berkmin_gen_ratio", Json.Float (gen_ratio bm);
                      "berkmin_peak_ratio", Json.Float (peak_ratio bm);
                      "chaff", Runner.outcome_to_json ch;
                      "berkmin", Runner.outcome_to_json bm;
                    ])
                results) );
       ])

let table10 opts =
  Table.section "Table 10 — Competition-style robustness (hard set)";
  print_endline
    "Paper: of the SAT-2002 final 31 instances BerkMin solves 15 (5 sat),\n\
     zChaff 7 (1 sat), limmat 4 (2 sat).";
  let instances =
    Suites.hard_instances ()
    @ [
        Pigeonhole.instance 9 8;
        Circuit_bench.pipeline_unsat ~stages:2 ~width:4;
        Circuit_bench.pipeline_unsat ~stages:2 ~width:5;
        Circuit_bench.pipeline_sat ~stages:4 ~width:4;
        Parity.tseitin_instance ~num_vars:22 ~degree:3 ~seed:9;
        Hanoi.unsat_instance 4;
        Circuit_bench.mul_miter ~width:5;
      ]
  in
  let configs =
    [
      "BerkMin", Config.berkmin;
      "zChaff", Config.chaff;
      "limmat", Config.limmat_like;
    ]
  in
  let outcomes =
    List.map
      (fun (name, config) ->
        ( name,
          List.map (Runner.run_instance ~budget:opts.hard_budget config) instances
        ))
      configs
  in
  let rows =
    List.mapi
      (fun i inst ->
        inst.Instance.name
        :: Instance.expected_to_string inst.Instance.expected
        :: List.map
             (fun (_, outs) ->
               let o = List.nth outs i in
               match o.Runner.verdict with
               | Runner.V_aborted -> "*"
               | Runner.V_sat | Runner.V_unsat -> Table.seconds o.Runner.seconds)
             outcomes)
      instances
  in
  Table.print
    ~header:("Instance" :: "sat?" :: List.map fst configs)
    rows;
  let solved (_, outs) =
    List.length (List.filter (fun o -> o.Runner.verdict <> Runner.V_aborted) outs)
  in
  let solved_sat (_, outs) =
    List.length (List.filter (fun o -> o.Runner.verdict = Runner.V_sat) outs)
  in
  List.iter
    (fun entry ->
      let name, _ = entry in
      Printf.printf "%s: solved %d (satisfiable %d)\n" name (solved entry)
        (solved_sat entry))
    outcomes;
  record_json "table10"
    (Json.Obj
       [
         ( "table",
           Table.to_json ~header:("Instance" :: "sat?" :: List.map fst configs)
             rows );
         ( "solvers",
           Json.List
             (List.map
                (fun ((name, outs) as entry) ->
                  Json.Obj
                    [
                      "solver", Json.String name;
                      "solved", Json.Int (solved entry);
                      "solved_sat", Json.Int (solved_sat entry);
                      ( "instances",
                        Json.List (List.map Runner.outcome_to_json outs) );
                    ])
                outcomes) );
       ])

(* ------------------------------------------------------------------ *)

let figure1 opts =
  Table.section "Figure 1 — Cone mobility: decisions entering a gated cone";
  print_endline
    "Paper Fig. 1: a cone of logic feeding an AND gate is idle while the\n\
     gate's other pin is 0 and springs to life when it switches to 1.\n\
     This UNSAT miter pairs a gated cone (equivalent two ways) with a\n\
     pipelined-datapath sub-miter: cone variables can join conflicts\n\
     only while the search explores control=1.  Per 200-decision window,\n\
     the percentage of decisions on cone variables shows how sharply\n\
     each heuristic migrates in and out of the cone as it activates.";
  let cnf, in_cone = Circuit_bench.cone_demo_cnf ~cone_gates:300 ~seed:42 in
  let window = 200 in
  let run config =
    let solver = Berkmin.Solver.create ~config cnf in
    let windows = ref [] in
    let count = ref 0 and cone = ref 0 in
    Berkmin.Solver.set_decision_hook solver (fun v _ ->
        incr count;
        if in_cone v then incr cone;
        if !count = window then begin
          windows := (100.0 *. float_of_int !cone /. float_of_int window) :: !windows;
          count := 0;
          cone := 0
        end);
    let result = Berkmin.Solver.solve ~budget:opts.hard_budget solver in
    (result, List.rev !windows)
  in
  let _, bm = run Config.berkmin in
  let _, lm = run Config.less_mobility in
  let n = max (List.length bm) (List.length lm) in
  let cell ws i =
    match List.nth_opt ws i with
    | Some pct -> Printf.sprintf "%.0f%%" pct
    | None -> "-"
  in
  let shown = min n 20 in
  let rows =
    List.init shown (fun i ->
        [ Printf.sprintf "window %d" (i + 1); cell bm i; cell lm i ])
  in
  Table.print ~header:[ "decisions"; "BerkMin"; "Less_mobility" ] rows;
  Printf.printf
    "(windows of %d decisions; '-' = run finished before that window)\n" window;
  let pcts ws = Json.List (List.map (fun p -> Json.Float p) ws) in
  record_json "figure1"
    (Json.Obj
       [
         "window_decisions", Json.Int window;
         "berkmin_cone_pct", pcts bm;
         "less_mobility_cone_pct", pcts lm;
       ])

(* ------------------------------------------------------------------ *)
(* Extension ablations: design choices DESIGN.md calls out plus the
   paper's stated future-work directions (Remarks 1 and 2, the
   conclusion's note on restart strategies) and one post-2002 feature
   (learnt-clause minimization).                                       *)

let ext_restarts opts =
  Table.section "Ablation — restart strategy (paper conclusions: \"very primitive ... can be significantly improved\")";
  class_sweep ~name:"ext-restarts" opts
    [
      "Fixed 100", { Config.berkmin with Config.restart_mode = Config.Fixed 100 };
      "Fixed 550 (paper)", Config.berkmin;
      "Fixed 2000", { Config.berkmin with Config.restart_mode = Config.Fixed 2000 };
      "Luby 64", { Config.berkmin with Config.restart_mode = Config.Luby 64 };
      "None", { Config.berkmin with Config.restart_mode = Config.No_restarts };
    ]

let ext_window opts =
  Table.section "Ablation — decision window over top clauses (Remark 2)";
  print_endline
    "Paper: \"whether this heuristic can be relaxed and a broader set of\n\
     top clauses be examined\" — left as future work; this runs it.";
  class_sweep ~name:"ext-window" opts
    [
      "w=1 (paper)", Config.berkmin;
      "w=2", { Config.berkmin with Config.top_window = 2 };
      "w=4", { Config.berkmin with Config.top_window = 4 };
      "w=16", { Config.berkmin with Config.top_window = 16 };
    ]

let ext_minimize opts =
  Table.section "Ablation — learnt-clause minimization (post-2002 extension)";
  class_sweep ~name:"ext-minimize" opts
    [
      "Off (paper)", Config.berkmin;
      "Basic", { Config.berkmin with Config.ccmin_mode = Config.Ccmin_basic };
      "Deep", { Config.berkmin with Config.ccmin_mode = Config.Ccmin_deep };
    ]

let ext_dbparams opts =
  Table.section "Ablation — database-management constants (Section 8)";
  print_endline
    "The paper fixes young fraction 1/16, keep-length 43/9, activity\n\
     bars 7/60; this varies the young fraction and the keep bars.";
  class_sweep ~name:"ext-dbparams" opts
    [
      "Paper", Config.berkmin;
      "Young 1/4", { Config.berkmin with Config.young_fraction = 0.25 };
      "Young 1/2", { Config.berkmin with Config.young_fraction = 0.5 };
      ( "Strict",
        { Config.berkmin with
          Config.young_keep_length = 20;
          old_keep_length = 4;
        } );
      ( "Lenient",
        { Config.berkmin with
          Config.young_keep_length = 100;
          old_keep_length = 30;
        } );
    ]

let ext_decay opts =
  Table.section "Ablation — activity aging (divide by 4 every 64 conflicts)";
  class_sweep ~name:"ext-decay" opts
    [
      "Paper (64, /4)", Config.berkmin;
      ( "Slow (256, /2)",
        { Config.berkmin with
          Config.var_decay_interval = 256;
          var_decay_factor = 2.0;
        } );
      ( "Fast (16, /8)",
        { Config.berkmin with
          Config.var_decay_interval = 16;
          var_decay_factor = 8.0;
        } );
      ( "No decay",
        { Config.berkmin with Config.var_decay_interval = 0 } );
    ]

(* ------------------------------------------------------------------ *)

let experiments = [
  "table1", table1;
  "table2", table2;
  "table3", table3;
  "table4", table4;
  "table5", table5;
  "table6", table6;
  "table7", table7;
  "table8", table8;
  "table9", table9;
  "table10", table10;
  "figure1", figure1;
  "ext-restarts", ext_restarts;
  "ext-window", ext_window;
  "ext-minimize", ext_minimize;
  "ext-dbparams", ext_dbparams;
  "ext-decay", ext_decay;
]

(* The paper tables; the ext-* ablations run only when asked. *)
let paper_experiments =
  List.filter
    (fun (name, _) -> not (String.length name >= 4 && String.sub name 0 4 = "ext-"))
    experiments

let names = List.map fst experiments

let run_all opts = List.iter (fun (_, f) -> f opts) paper_experiments

let run_extensions opts =
  List.iter
    (fun (name, f) -> if not (List.mem_assoc name paper_experiments) then f opts)
    experiments

let run_one opts name =
  match List.assoc_opt name experiments with
  | Some f ->
    f opts;
    true
  | None -> false

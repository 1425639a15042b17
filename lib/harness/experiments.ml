open Berkmin_gen
module Config = Berkmin.Config
module Stats = Berkmin.Stats
module Json = Berkmin_types.Json

type opts = {
  budget : Berkmin.Solver.budget;
  hard_budget : Berkmin.Solver.budget;
  abort_penalty : float;
}

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
(* The run set: every table solves through it, so each (configuration,
   instance, budget) is solved once per [run] call and a column that
   several tables share prints the same numbers in each.  An
   instance's name identifies its formula across the suites.           *)

type runs =
  (Config.t * string * Berkmin.Solver.budget, Runner.outcome) Hashtbl.t

let solve (runs : runs) ~budget config inst =
  let key = (config, inst.Instance.name, budget) in
  match Hashtbl.find_opt runs key with
  | Some outcome -> outcome
  | None ->
    let outcome = Runner.run_instance ~budget config inst in
    Hashtbl.add runs key outcome;
    outcome

let solve_class runs ~budget config (name, instances) =
  Runner.class_of_outcomes name
    (List.map (solve runs ~budget config) instances)

let class_seconds opts (r : Runner.class_result) =
  Table.seconds_aborted r.total_seconds r.aborted ~penalty:opts.abort_penalty

(* Decided on the seconds each row prints, so timer noise below the
   print precision cannot pick a side. *)
let winner opts ~chaff ~berkmin =
  let printed (r : Runner.class_result) =
    float_of_string
      (Table.seconds
         (Table.penalized r.total_seconds r.aborted ~penalty:opts.abort_penalty))
  in
  let c = printed chaff and b = printed berkmin in
  if c < b then "chaff" else if b < c then "berkmin" else "tie"

(* ------------------------------------------------------------------ *)
(* Shared sweep machinery: run several configurations over the twelve
   classes and print one column per configuration, as Tables 1/2/4/5
   do.                                                                  *)

let class_sweep runs opts configs =
  let classes = Suites.all () in
  (* results.(i) = per-class results of configuration i, class order
     preserved. *)
  let results =
    List.map
      (fun (_, config) ->
        List.map (solve_class runs ~budget:opts.budget config) classes)
      configs
  in
  let rows =
    List.mapi
      (fun ci (class_name, _) ->
        class_name
        :: List.map
             (fun per_class -> class_seconds opts (List.nth per_class ci))
             results)
      classes
  in
  (* A configuration's total is one class holding all its outcomes. *)
  let total per_class =
    List.concat_map (fun (r : Runner.class_result) -> r.outcomes) per_class
    |> Runner.class_of_outcomes "Total"
    |> class_seconds opts
  in
  let rows = rows @ [ "Total" :: List.map total results ] in
  let header = "Class" :: List.map fst configs in
  Table.print ~header rows;
  Json.Obj
    [
      "table", Table.to_json ~header rows;
      ( "configs",
        Json.List
          (List.map2
             (fun (config_name, _) per_class ->
               Json.Obj
                 [
                   "config", Json.String config_name;
                   ( "classes",
                     Json.List (List.map Runner.class_result_to_json per_class)
                   );
                 ])
             configs results) );
    ]

(* ------------------------------------------------------------------ *)

let table1 runs opts =
  Table.section "Table 1 — Changing sensitivity of decision-making (seconds)";
  print_endline
    "Paper: BerkMin total 20,412 s vs Less_sensitivity 51,498 s; the gap\n\
     comes from the hard classes (Hanoi, Miters, Fvp_unsat2.0).";
  class_sweep runs opts
    [ "BerkMin", Config.berkmin; "Less_sensitivity", Config.less_sensitivity ]

let table2 runs opts =
  Table.section "Table 2 — Changing mobility of decision-making (seconds)";
  print_endline
    "Paper: BerkMin total 20,412 s vs Less_mobility > 258,959 s with 3\n\
     aborts (Beijing x2, Fvp_unsat2.0); biggest single novelty.";
  class_sweep runs opts
    [ "BerkMin", Config.berkmin; "Less_mobility", Config.less_mobility ]

let table4 runs opts =
  Table.section "Table 4 — Branch selection heuristics (seconds)";
  print_endline
    "Paper: BerkMin 20,412 s; Sat_top 36,153; Unsat_top > 155,393 (2);\n\
     Take_0 53,624; Take_1 > 213,808 (3); Take_rand 24,845.  Symmetrize\n\
     and Take_rand are the two good ones.";
  class_sweep runs opts
    [
      "BerkMin", Config.berkmin;
      "Sat_top", Config.sat_top;
      "Unsat_top", Config.unsat_top;
      "Take_0", Config.take_zero;
      "Take_1", Config.take_one;
      "Take_rand", Config.take_random;
    ]

let table5 runs opts =
  Table.section "Table 5 — Clause database management (seconds)";
  print_endline
    "Paper: BerkMin 20,412 s vs Limited_keeping (GRASP-style, remove\n\
     length > 42) 57,881 s; factor >= 2 on Hanoi, Miters, Fvp_unsat2.0.";
  class_sweep runs opts
    [ "BerkMin", Config.berkmin; "Limited_keeping", Config.limited_keeping ]

(* ------------------------------------------------------------------ *)

let table3 runs opts =
  Table.section "Table 3 — Skin effect: f(r) by distance from stack top";
  print_endline
    "Paper: f(r) decreases steeply with r on all five hard instances\n\
     (f(0) is small because the topmost clause is consumed by BCP\n\
     immediately after being learnt).";
  let outcomes =
    List.map
      (solve runs ~budget:opts.hard_budget Config.berkmin)
      (Suites.hard_instances ())
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
  Json.Obj
    [
      "table", Table.to_json ~header rows;
      "instances", Json.List (List.map Runner.outcome_to_json outcomes);
    ]

(* ------------------------------------------------------------------ *)

(* Tables 6 and 7: zChaff against BerkMin on some of the classes, one
   row per class; [cells] fills the columns after the class's name and
   instance count. *)
let versus_chaff runs ~budget ~columns ~cells class_names =
  let results =
    List.map
      (fun name ->
        let instances = Suites.find_class name in
        let ch = solve_class runs ~budget Config.chaff (name, instances) in
        let bm = solve_class runs ~budget Config.berkmin (name, instances) in
        (ch, bm))
      class_names
  in
  let rows =
    List.map
      (fun ((ch : Runner.class_result), bm) ->
        ch.class_name :: string_of_int (List.length ch.outcomes) :: cells ch bm)
      results
  in
  let header = "Class" :: "#inst" :: columns in
  Table.print ~header rows;
  Json.Obj
    [
      "table", Table.to_json ~header rows;
      ( "classes",
        Json.List
          (List.map
             (fun (ch, bm) ->
               Json.Obj
                 [
                   "chaff", Runner.class_result_to_json ch;
                   "berkmin", Runner.class_result_to_json bm;
                 ])
             results) );
    ]

let table6 runs opts =
  Table.section "Table 6 — BerkMin vs Chaff: comparable classes (seconds)";
  print_endline
    "Paper: Chaff wins Hole (38 vs 339 s) and Fvp_unsat1.0; BerkMin wins\n\
     the rest; neither aborts anything.";
  versus_chaff runs ~budget:opts.budget
    ~columns:[ "zChaff"; "BerkMin"; "winner" ]
    ~cells:(fun ch bm ->
      [
        class_seconds opts ch;
        class_seconds opts bm;
        winner opts ~chaff:ch ~berkmin:bm;
      ])
    [
      "Hole"; "Blocksworld"; "Par16"; "Sss1.0"; "Sss1.0a"; "Sss_sat1.0";
      "Fvp_unsat1.0"; "Vliw_sat1.0";
    ]

let table7 runs opts =
  Table.section "Table 7 — Classes where BerkMin dominates (seconds)";
  Printf.printf
    "Paper: Chaff aborts 2 of Beijing, 2 of Miters, 2 of Fvp-unsat2.0;\n\
     BerkMin aborts nothing.  Abort penalty here: %.0f s per abort.\n"
    opts.abort_penalty;
  versus_chaff runs ~budget:opts.hard_budget
    ~columns:[ "zChaff"; "ab"; "BerkMin"; "ab" ]
    ~cells:(fun ch bm ->
      [
        class_seconds opts ch;
        string_of_int ch.aborted;
        class_seconds opts bm;
        string_of_int bm.aborted;
      ])
    [ "Beijing"; "Hanoi"; "Miters"; "Fvp_unsat2.0" ]

(* Tables 8 and 9: zChaff and BerkMin on each hard instance. *)
let hard_pairs runs opts =
  List.map
    (fun inst ->
      let ch = solve runs ~budget:opts.hard_budget Config.chaff inst in
      let bm = solve runs ~budget:opts.hard_budget Config.berkmin inst in
      (inst, ch, bm))
    (Suites.hard_instances ())

let table8 runs opts =
  Table.section "Table 8 — Decisions and runtimes on hard instances";
  print_endline
    "Paper: BerkMin builds much smaller search trees (e.g. 4pipe 144k vs\n\
     467k decisions) and solves 7pipe where Chaff times out.";
  let results = hard_pairs runs opts in
  let decisions (o : Runner.outcome) =
    string_of_int o.stats.decisions
    ^ if o.verdict = Runner.V_aborted then "*" else ""
  in
  let rows =
    List.map
      (fun (inst, ch, bm) ->
        [
          inst.Instance.name;
          Instance.expected_to_string inst.Instance.expected;
          decisions ch;
          Table.seconds ch.Runner.seconds;
          decisions bm;
          Table.seconds bm.Runner.seconds;
        ])
      results
  in
  let header =
    [ "Instance"; "sat?"; "zChaff dec"; "time"; "BerkMin dec"; "time" ]
  in
  Table.print ~header rows;
  print_endline "(* = aborted at the budget)";
  Json.Obj
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
    ]

let table9 runs opts =
  Table.section "Table 9 — Database size relative to the initial CNF";
  print_endline
    "Paper: BerkMin's (generated)/(initial) ratio is well below Chaff's\n\
     (e.g. hanoi6: 19.6 vs 93.3) and its peak live database stays within\n\
     ~1-4x of the initial CNF.";
  let results = hard_pairs runs opts in
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
  Json.Obj
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
    ]

let table10 runs opts =
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
        (name, List.map (solve runs ~budget:opts.hard_budget config) instances))
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
  let header = "Instance" :: "sat?" :: List.map fst configs in
  Table.print ~header rows;
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
  Json.Obj
    [
      "table", Table.to_json ~header rows;
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
    ]

(* ------------------------------------------------------------------ *)

(* Figure 1 solves outside the run set: it needs the decision hook. *)
let figure1 _runs opts =
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
  Json.Obj
    [
      "window_decisions", Json.Int window;
      "berkmin_cone_pct", pcts bm;
      "less_mobility_cone_pct", pcts lm;
    ]

(* ------------------------------------------------------------------ *)
(* Extension ablations: design choices DESIGN.md calls out plus the
   paper's stated future-work directions (Remarks 1 and 2, the
   conclusion's note on restart strategies) and one post-2002 feature
   (learnt-clause minimization).                                       *)

let ext_restarts runs opts =
  Table.section "Ablation — restart strategy (paper conclusions: \"very primitive ... can be significantly improved\")";
  class_sweep runs opts
    [
      "Fixed 100", { Config.berkmin with Config.restart_mode = Config.Fixed 100 };
      "Fixed 550 (paper)", Config.berkmin;
      "Fixed 2000", { Config.berkmin with Config.restart_mode = Config.Fixed 2000 };
      "Luby 64", { Config.berkmin with Config.restart_mode = Config.Luby 64 };
      "None", { Config.berkmin with Config.restart_mode = Config.No_restarts };
    ]

let ext_window runs opts =
  Table.section "Ablation — decision window over top clauses (Remark 2)";
  print_endline
    "Paper: \"whether this heuristic can be relaxed and a broader set of\n\
     top clauses be examined\" — left as future work; this runs it.";
  class_sweep runs opts
    [
      "w=1 (paper)", Config.berkmin;
      "w=2", { Config.berkmin with Config.top_window = 2 };
      "w=4", { Config.berkmin with Config.top_window = 4 };
      "w=16", { Config.berkmin with Config.top_window = 16 };
    ]

let ext_minimize runs opts =
  Table.section "Ablation — learnt-clause minimization (post-2002 extension)";
  class_sweep runs opts
    [
      "Off (paper)", Config.berkmin;
      "Basic", { Config.berkmin with Config.ccmin_mode = Config.Ccmin_basic };
      "Deep", { Config.berkmin with Config.ccmin_mode = Config.Ccmin_deep };
    ]

let ext_dbparams runs opts =
  Table.section "Ablation — database-management constants (Section 8)";
  print_endline
    "The paper fixes young fraction 1/16, keep-length 43/9, activity\n\
     bars 7/60; this varies the young fraction and the keep bars.";
  class_sweep runs opts
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

let ext_decay runs opts =
  Table.section "Ablation — activity aging (divide by 4 every 64 conflicts)";
  class_sweep runs opts
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

let paper =
  [
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
  ]

let experiments =
  paper
  @ [
      "ext-restarts", ext_restarts;
      "ext-window", ext_window;
      "ext-minimize", ext_minimize;
      "ext-dbparams", ext_dbparams;
      "ext-decay", ext_decay;
    ]

let paper_names = List.map fst paper

let names = List.map fst experiments

let run opts names =
  let drivers =
    List.map
      (fun name ->
        match List.assoc_opt name experiments with
        | Some driver -> (name, driver)
        | None -> invalid_arg ("Experiments.run: unknown experiment " ^ name))
      names
  in
  let runs = Hashtbl.create 512 in
  let twins =
    List.map (fun (name, driver) -> (name, driver runs opts)) drivers
  in
  let wrong =
    Hashtbl.fold
      (fun (config, _, _) (o : Runner.outcome) acc ->
        if o.correct then acc else (config, o) :: acc)
      runs []
  in
  (twins, List.sort compare wrong)

type activity_mode =
  | Responsible_clauses
  | Conflict_clause_only

type decision_mode =
  | Top_clause
  | Global_most_active
  | Vsids_literal

type polarity_mode =
  | Symmetrize
  | Sat_top
  | Unsat_top
  | Take_zero
  | Take_one
  | Take_random

type global_polarity_mode =
  | Nb_two
  | Gp_take_zero

type reduction_mode =
  | Berkmin_age_activity
  | Length_limit of int
  | Glue_lbd of int
  | Keep_all

type restart_mode =
  | Fixed of int
  | Luby of int
  | No_restarts

type ccmin_mode =
  | Ccmin_off
  | Ccmin_basic
  | Ccmin_deep

type simplify_mode =
  | Simp_off
  | Simp_pre
  | Simp_inprocess

type t = {
  activity_mode : activity_mode;
  decision_mode : decision_mode;
  polarity_mode : polarity_mode;
  global_polarity : global_polarity_mode;
  reduction_mode : reduction_mode;
  restart_mode : restart_mode;
  var_decay_interval : int;
  var_decay_factor : float;
  young_fraction : float;
  young_keep_length : int;
  old_keep_length : int;
  old_activity_threshold : int;
  old_threshold_increment : int;
  top_window : int;
  ccmin_mode : ccmin_mode;
  phase_saving : bool;
  seed : int;
  heartbeat_interval : int;
  profile_timers : bool;
  simplify : simplify_mode;
  simplify_growth : int;
}

(* Constants follow Section 8 of the paper: young clauses are kept when
   shorter than 43 literals (or with activity above 7, fixed in
   [Solver]); old clauses when shorter than 9 literals or above a
   threshold starting at 60.  The restart interval of 550 conflicts and
   the activity decay (divide by 4 every 64 conflicts) match the
   released BerkMin56 binary. *)
let berkmin = {
  activity_mode = Responsible_clauses;
  decision_mode = Top_clause;
  polarity_mode = Symmetrize;
  global_polarity = Nb_two;
  reduction_mode = Berkmin_age_activity;
  restart_mode = Fixed 550;
  var_decay_interval = 64;
  var_decay_factor = 4.0;
  young_fraction = 1.0 /. 16.0;
  young_keep_length = 43;
  old_keep_length = 9;
  old_activity_threshold = 60;
  old_threshold_increment = 1;
  top_window = 1;
  ccmin_mode = Ccmin_off;
  phase_saving = false;
  seed = 1;
  heartbeat_interval = 0;
  profile_timers = false;
  simplify = Simp_off;
  simplify_growth = 0;
}

let less_sensitivity = { berkmin with activity_mode = Conflict_clause_only }
let less_mobility = { berkmin with decision_mode = Global_most_active }
let sat_top = { berkmin with polarity_mode = Sat_top }
let unsat_top = { berkmin with polarity_mode = Unsat_top }
let take_zero = { berkmin with polarity_mode = Take_zero }
let take_one = { berkmin with polarity_mode = Take_one }
let take_random = { berkmin with polarity_mode = Take_random }

let limited_keeping = { berkmin with reduction_mode = Length_limit 42 }

let chaff = {
  berkmin with
  activity_mode = Conflict_clause_only;
  decision_mode = Vsids_literal;
  polarity_mode = Sat_top; (* VSIDS assigns the chosen literal true *)
  global_polarity = Gp_take_zero;
  reduction_mode = Length_limit 100;
  restart_mode = Fixed 700;
  var_decay_interval = 100;
  var_decay_factor = 2.0;
}

(* Table 10's third solver.  Limmat was a competent but plainer CDCL
   than either contender; this stand-in keeps learning and restarts but
   uses a global variable-activity decision rule without BerkMin's
   top-clause mobility or Chaff's literal-phase scores — the weakest of
   the three presets, matching the competition ordering. *)
let limmat_like = {
  chaff with
  decision_mode = Global_most_active;
  restart_mode = Luby 64;
  polarity_mode = Take_one;
  reduction_mode = Length_limit 60;
}

(* The modern search-quality pack: every post-2002 strategy switched on
   at once on top of the paper's heuristics — deep conflict-clause
   minimization, phase saving, Luby restarts and glue(LBD)-driven
   database reduction (see docs/STRATEGIES.md). *)
let modern = {
  berkmin with
  ccmin_mode = Ccmin_deep;
  phase_saving = true;
  restart_mode = Luby 64;
  reduction_mode = Glue_lbd 3;
}

let simplify_mode_to_string = function
  | Simp_off -> "off"
  | Simp_pre -> "pre"
  | Simp_inprocess -> "inprocess"

let simplify_mode_of_string = function
  | "off" -> Some Simp_off
  | "pre" -> Some Simp_pre
  | "inprocess" -> Some Simp_inprocess
  | _ -> None

let ccmin_mode_to_string = function
  | Ccmin_off -> "off"
  | Ccmin_basic -> "basic"
  | Ccmin_deep -> "deep"

let ccmin_mode_of_string = function
  | "off" -> Some Ccmin_off
  | "basic" -> Some Ccmin_basic
  | "deep" -> Some Ccmin_deep
  | _ -> None

(* The CLI vocabulary for the parameterized modes is "name" or
   "name:N"; the bare name gets the conventional unit (the paper's 550
   for fixed restarts, MiniSat's 64 for Luby, glue<=3 for LBD
   reduction). *)
let positive_suffix s prefix =
  let pl = String.length prefix in
  if
    String.length s > pl + 1
    && String.sub s 0 pl = prefix
    && s.[pl] = ':'
  then
    match int_of_string_opt (String.sub s (pl + 1) (String.length s - pl - 1)) with
    | Some n when n > 0 -> Some n
    | _ -> None
  else None

let restart_mode_to_string = function
  | Fixed n -> Printf.sprintf "fixed:%d" n
  | Luby n -> Printf.sprintf "luby:%d" n
  | No_restarts -> "none"

let restart_mode_of_string s =
  match s with
  | "none" -> Some No_restarts
  | "fixed" -> Some (Fixed 550)
  | "luby" -> Some (Luby 64)
  | s -> (
    match positive_suffix s "fixed" with
    | Some n -> Some (Fixed n)
    | None -> (
      match positive_suffix s "luby" with
      | Some n -> Some (Luby n)
      | None -> None))

let reduction_mode_to_string = function
  | Berkmin_age_activity -> "berkmin"
  | Length_limit n -> Printf.sprintf "length:%d" n
  | Glue_lbd n -> Printf.sprintf "glue:%d" n
  | Keep_all -> "keep-all"

let reduction_mode_of_string s =
  match s with
  | "berkmin" -> Some Berkmin_age_activity
  | "keep-all" -> Some Keep_all
  | "glue" -> Some (Glue_lbd 3)
  | s -> (
    match positive_suffix s "length" with
    | Some n -> Some (Length_limit n)
    | None -> (
      match positive_suffix s "glue" with
      | Some n -> Some (Glue_lbd n)
      | None -> None))

let presets = [
  "berkmin", berkmin;
  "less_sensitivity", less_sensitivity;
  "less_mobility", less_mobility;
  "sat_top", sat_top;
  "unsat_top", unsat_top;
  "take_zero", take_zero;
  "take_one", take_one;
  "take_random", take_random;
  "limited_keeping", limited_keeping;
  "chaff", chaff;
  "limmat_like", limmat_like;
  "modern", modern;
]

let preset name =
  Option.to_result (List.assoc_opt name presets)
    ~none:
      (Printf.sprintf "unknown strategy %S; available: %s" name
         (String.concat ", " (List.map fst presets)))

(* The seed, the observation settings and the simplifier don't change
   the heuristics a search runs, so a preset with heartbeats or
   simplification on still reports its preset name. *)
let name_of t =
  match
    List.find_opt
      (fun (_, p) ->
        { p with
          seed = t.seed;
          heartbeat_interval = t.heartbeat_interval;
          profile_timers = t.profile_timers;
          simplify = t.simplify;
          simplify_growth = t.simplify_growth;
        }
        = t)
      presets
  with
  | Some (name, _) -> name
  | None -> "custom"

let pp fmt t =
  let activity = match t.activity_mode with
    | Responsible_clauses -> "responsible-clauses"
    | Conflict_clause_only -> "conflict-clause-only"
  in
  let decision = match t.decision_mode with
    | Top_clause -> "top-clause"
    | Global_most_active -> "global-most-active"
    | Vsids_literal -> "vsids-literal"
  in
  let polarity = match t.polarity_mode with
    | Symmetrize -> "symmetrize"
    | Sat_top -> "sat-top"
    | Unsat_top -> "unsat-top"
    | Take_zero -> "take-0"
    | Take_one -> "take-1"
    | Take_random -> "take-rand"
  in
  let reduction = match t.reduction_mode with
    | Berkmin_age_activity -> "berkmin"
    | Length_limit n -> Printf.sprintf "length<=%d" n
    | Glue_lbd n -> Printf.sprintf "glue<=%d" n
    | Keep_all -> "keep-all"
  in
  let restarts = match t.restart_mode with
    | Fixed n -> Printf.sprintf "fixed(%d)" n
    | Luby n -> Printf.sprintf "luby(%d)" n
    | No_restarts -> "none"
  in
  let simplify =
    match t.simplify with
    | Simp_off -> ""
    | m -> Printf.sprintf " simplify=%s" (simplify_mode_to_string m)
  in
  let ccmin =
    match t.ccmin_mode with
    | Ccmin_off -> ""
    | m -> Printf.sprintf " ccmin=%s" (ccmin_mode_to_string m)
  in
  let phases = if t.phase_saving then " phase-saving" else "" in
  Format.fprintf fmt
    "{%s: activity=%s decision=%s polarity=%s reduction=%s restarts=%s seed=%d%s%s%s}"
    (name_of t) activity decision polarity reduction restarts t.seed simplify
    ccmin phases

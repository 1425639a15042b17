(** Solver configuration: the settings of one search.

    Every heuristic the paper ablates is a field here, so each of the
    paper's comparison columns (Tables 1, 2, 4, 5) is a preset of the
    same engine differing in exactly one component — mirroring the
    paper's methodology.  Constants that nothing varies are fixed in
    {!Solver}, and portfolio settings belong to [Portfolio].  A variation
    is a record update over a preset, e.g.
    [{ Config.berkmin with ccmin_mode = Ccmin_deep }]. *)

(** How variable activities are updated at each conflict (Section 4). *)
type activity_mode =
  | Responsible_clauses
      (** BerkMin: bump [var_activity(x)] once per occurrence of a
          literal of [x] in every clause responsible for the conflict
          (the antecedents of the 1-UIP resolution chain plus the
          conflicting clause). *)
  | Conflict_clause_only
      (** Chaff-like ablation ("Less_sensitivity"): bump only variables
          occurring in the learnt clause, by 1. *)

(** How the next branching variable is picked (Section 5). *)
type decision_mode =
  | Top_clause
      (** BerkMin: the most active free variable of the topmost
          unsatisfied learnt clause; falls back to the globally most
          active free variable when every learnt clause is satisfied. *)
  | Global_most_active
      (** "Less_mobility" ablation: always the globally most active
          free variable (activities still computed per
          [activity_mode]). *)
  | Vsids_literal
      (** Chaff baseline: the free literal with the highest decaying
          VSIDS literal score; the variable is assigned so that this
          literal becomes true. *)

(** Which value the chosen branching variable gets first when the
    decision was made on the current top clause (Section 7, Table 4). *)
type polarity_mode =
  | Symmetrize
      (** BerkMin: compare [lit_activity] of the two phases and explore
          the branch producing learnt clauses with the rarer literal. *)
  | Sat_top  (** Always satisfy the current top clause. *)
  | Unsat_top  (** Always falsify the variable's literal in the top clause. *)
  | Take_zero
  | Take_one
  | Take_random

(** Which value is assigned first on global (non-top-clause) decisions. *)
type global_polarity_mode =
  | Nb_two
      (** BerkMin: the literal with the larger binary-clause
          neighbourhood [nb_two] is set to 0 (Section 7). *)
  | Gp_take_zero  (** Chaff baseline: always assign 0 first. *)

(** Learnt-clause database reduction at restarts (Section 8). *)
type reduction_mode =
  | Berkmin_age_activity
      (** Partition by age; young kept if short or recently active, old
          kept only if very short or very active (growing threshold). *)
  | Length_limit of int
      (** GRASP-like ("Limited_keeping"): remove learnt clauses longer
          than the limit, regardless of age and activity. *)
  | Glue_lbd of int
      (** Glucose-style (post-2002 extension): judge learnt clauses by
          their learn-time glue (LBD).  Clauses with glue at most the
          limit are kept unconditionally; the rest survive a reduction
          only while inside the young band ([young_fraction]). *)
  | Keep_all

type restart_mode =
  | Fixed of int  (** restart every [n] conflicts *)
  | Luby of int  (** Luby sequence scaled by the unit *)
  | No_restarts

(** Conflict-clause minimization at learn time (post-2002 extension,
    MiniSat lineage; off in the paper's configuration).  DRUP-sound:
    the minimized clause is derived by further resolutions against
    reason clauses, so it is still implied and forward-checks. *)
type ccmin_mode =
  | Ccmin_off
  | Ccmin_basic
      (** drop a learnt literal when its reason clause is subsumed by
          the rest of the learnt clause plus top-level facts *)
  | Ccmin_deep
      (** recursive reason-side redundancy: follow implication chains
          through reasons, removing a literal whenever every path back
          to the decisions stays inside the clause (strictly removes at
          least as much as [Ccmin_basic]) *)

(** When the clause-database simplifier (lib/simplify: subsumption,
    self-subsuming resolution, bounded variable elimination,
    failed-literal probing) runs.  A post-BerkMin extension, off in the
    paper's configuration. *)
type simplify_mode =
  | Simp_off  (** never (the default; search is byte-identical) *)
  | Simp_pre  (** once, before search starts *)
  | Simp_inprocess
      (** before search and again at every restart boundary, after DB
          reduction/GC and before the portfolio import drain *)

type t = {
  activity_mode : activity_mode;
  decision_mode : decision_mode;
  polarity_mode : polarity_mode;
  global_polarity : global_polarity_mode;
  reduction_mode : reduction_mode;
  restart_mode : restart_mode;
  var_decay_interval : int;  (** conflicts between var-activity decays *)
  var_decay_factor : float;  (** divide activities by this factor *)
  young_fraction : float;
      (** a learnt clause is "young" when its distance from the stack
          top is below this fraction of the stack size (paper: 1/16) *)
  young_keep_length : int;  (** keep young clauses shorter than this (43) *)
  old_keep_length : int;  (** keep old clauses shorter than this (9) *)
  old_activity_threshold : int;  (** initial old-clause activity bar (60) *)
  old_threshold_increment : int;  (** growth per reduction *)
  top_window : int;
      (** how many top unsatisfied learnt clauses the decision
          procedure considers (1 in the paper; Remark 2 proposes
          examining "a small set of conflict clauses that are close to
          the current top of the stack") *)
  debug_top_cursor : bool;
      (** cross-check every cursor-backed top-clause lookup against
          the naive full stack scan and fail loudly on any mismatch;
          off by default (the check re-reads the whole learnt stack
          per decision, exactly the cost the cursor removes) *)
  ccmin_mode : ccmin_mode;
      (** conflict-clause minimization at learn time ([Ccmin_off] in
          the paper's configuration); see {!ccmin_mode} *)
  phase_saving : bool;
      (** post-2002 extension: remember each variable's last assigned
          polarity and branch on it first, overriding the configured
          polarity heuristic for variables that have been assigned
          before; off in the paper's configuration *)
  seed : int;
  trace_jsonl : string option;
      (** when set, {!Solver.create} opens a JSONL trace sink on this
          path (see {!Trace}); [None] — the default everywhere — keeps
          tracing disabled at zero cost *)
  heartbeat_interval : int;
      (** emit a {!Trace.event.Heartbeat} every this many conflicts
          (0 = off); only visible when a trace sink is attached *)
  profile_timers : bool;
      (** accumulate CPU time spent in BCP, conflict analysis and
          database reduction into {!Stats.t} (off by default: the
          [Sys.time] sampling is cheap but not free) *)
  simplify : simplify_mode;
      (** when the clause-database simplifier runs ([Simp_off] by
          default) *)
  simplify_growth : int;
      (** bounded variable elimination may add this many resolvents
          beyond the clauses it removes (default 0: elimination must
          never grow the database) *)
}

val berkmin : t
(** The paper's default configuration. *)

val less_sensitivity : t
(** Table 1 ablation: Chaff-like activity updates. *)

val less_mobility : t
(** Table 2 ablation: global most-active decisions. *)

val sat_top : t
val unsat_top : t
val take_zero : t
val take_one : t
val take_random : t
(** Table 4 branch-selection ablations. *)

val limited_keeping : t
(** Table 5 ablation: GRASP-style length-only clause removal. *)

val chaff : t
(** Chaff/zChaff baseline for Tables 6–10: VSIDS literal decisions,
    learnt-clause-only bumping, periodic halving, length-based DB
    reduction. *)

val limmat_like : t
(** Stand-in for limmat in Table 10: a plain CDCL with fixed polarity
    and Luby restarts (documented substitution; see DESIGN.md). *)

val modern : t
(** The modern search-quality pack: BerkMin's heuristics plus every
    post-2002 strategy at once — deep conflict-clause minimization,
    phase saving, Luby restarts (unit 64) and glue(LBD)-driven database
    reduction (glue <= 3 kept).  See docs/STRATEGIES.md. *)

val simplify_mode_to_string : simplify_mode -> string
(** ["off"], ["pre"] or ["inprocess"] — the CLI flag vocabulary. *)

val simplify_mode_of_string : string -> simplify_mode option

val ccmin_mode_to_string : ccmin_mode -> string
(** ["off"], ["basic"] or ["deep"] — the CLI flag vocabulary. *)

val ccmin_mode_of_string : string -> ccmin_mode option

val restart_mode_to_string : restart_mode -> string
(** ["fixed:N"], ["luby:N"] or ["none"]. *)

val restart_mode_of_string : string -> restart_mode option
(** Accepts ["fixed:N"], ["luby:N"], ["none"], and the bare ["fixed"]
    (550, the paper's cadence) and ["luby"] (unit 64). *)

val reduction_mode_to_string : reduction_mode -> string
(** ["berkmin"], ["length:N"], ["glue:N"] or ["keep-all"]. *)

val reduction_mode_of_string : string -> reduction_mode option
(** Accepts ["berkmin"], ["length:N"], ["glue:N"] (bare ["glue"] means
    glue <= 3) and ["keep-all"]. *)

val name_of : t -> string
(** The name of the preset [t] matches, else ["custom"].  The match
    ignores the observability and simplifier fields ([seed],
    [trace_jsonl], [heartbeat_interval], [profile_timers],
    [debug_top_cursor], [simplify], [simplify_growth]): they are
    orthogonal toggles layered on a preset. *)

val presets : (string * t) list
(** All named presets, for CLIs and the bench harness. *)

val preset : string -> (t, string) result
(** The preset of this name, or [Error msg] listing the available
    names (["unknown strategy \"x\"; available: berkmin, ..."]). *)

val pp : Format.formatter -> t -> unit

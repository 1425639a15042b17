(** Solver configuration.

    Every heuristic the paper ablates is a field here, so each of the
    paper's comparison columns (Tables 1, 2, 4, 5) is a preset of the
    same engine differing in exactly one component — mirroring the
    paper's methodology. *)

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
  | Gp_take_zero
  | Gp_take_one
  | Gp_random

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
  vsids_decay_interval : int;  (** for the Chaff baseline's literal scores *)
  vsids_decay_factor : float;
  young_fraction : float;
      (** a learnt clause is "young" when its distance from the stack
          top is below this fraction of the stack size (paper: 1/16) *)
  young_keep_length : int;  (** keep young clauses shorter than this (43) *)
  young_keep_activity : int;  (** or with activity above this (7) *)
  old_keep_length : int;  (** keep old clauses shorter than this (9) *)
  old_activity_threshold : int;  (** initial old-clause activity bar (60) *)
  old_threshold_increment : int;  (** growth per reduction *)
  nb_two_threshold : int;  (** cap on nb_two computation (100) *)
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
  workers : int;
      (** how many portfolio workers a portfolio-aware driver (the
          CLI, [Runner], [Portfolio.solve_config]) should race on this
          formula; 1 — the default — means plain sequential solving.
          {!Solver} itself ignores this field: one solver object is
          always one search. *)
  portfolio_diversify : bool;
      (** when racing [workers > 1]: diversify the portfolio across
          restart policies, decision sensitivity and clause-DB
          aggressiveness (default), or — when [false] — run identical
          copies of this configuration differing only in RNG seed *)
  worker_wall_timeout : float option;
      (** kill any portfolio worker still running after this many wall
          seconds; [None] (default) leaves workers bounded only by the
          solve budget *)
  share_learnt : bool;
      (** when racing [workers > 1]: exchange learnt clauses between
          workers (export through the glue/length filter below, import
          at restart boundaries).  Default [true].  Irrelevant to a
          sequential solve — {!Solver} itself never shares; the
          portfolio driver wires the exchange. *)
  share_max_len : int;
      (** learnt clauses longer than this are never exported to other
          portfolio workers (default 8) *)
  share_max_glue : int;
      (** learnt clauses whose glue — the number of distinct decision
          levels among their literals at learn time (LBD) — exceeds
          this are never exported (default 4) *)
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

val with_seed : int -> t -> t

val with_trace_jsonl : string -> t -> t
(** Arrange for solvers created with this configuration to write a
    JSONL event trace to the given path. *)

val with_heartbeat : int -> t -> t
(** Set the heartbeat interval (conflicts between heartbeat events). *)

val with_profile_timers : t -> t
(** Enable the BCP/analysis/reduction phase timers. *)

val with_debug_top_cursor : t -> t
(** Enable the top-clause cursor cross-check (see
    {!t.debug_top_cursor}). *)

val with_workers : int -> t -> t
(** Set the portfolio worker count.
    @raise Invalid_argument when the count is below 1. *)

val with_portfolio_diversify : bool -> t -> t
(** Choose between a diversified portfolio and seed-only variation. *)

val with_worker_wall_timeout : float -> t -> t
(** Set the per-worker wall-clock timeout (seconds). *)

val with_share_learnt : bool -> t -> t
(** Enable or disable learnt-clause exchange between portfolio
    workers. *)

val with_share_max_len : int -> t -> t
(** Set the export length cap for shared learnt clauses.
    @raise Invalid_argument when below 1. *)

val with_share_max_glue : int -> t -> t
(** Set the export glue (LBD) cap for shared learnt clauses.
    @raise Invalid_argument when below 1. *)

val with_simplify : simplify_mode -> t -> t
(** Choose when the clause-database simplifier runs. *)

val with_simplify_growth : int -> t -> t
(** Set the variable-elimination growth cap.
    @raise Invalid_argument when negative. *)

val with_ccmin : ccmin_mode -> t -> t
(** Choose the conflict-clause minimization mode. *)

val with_phase_saving : bool -> t -> t
(** Enable or disable phase saving. *)

val with_restart_mode : restart_mode -> t -> t
(** Choose the restart strategy. *)

val with_reduction_mode : reduction_mode -> t -> t
(** Choose the learnt-clause database reduction strategy. *)

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

val with_overrides :
  ?simplify:string ->
  ?simplify_growth:int ->
  ?ccmin:string ->
  ?phase_saving:bool ->
  ?restarts:string ->
  ?reduce:string ->
  t ->
  (t, string) result
(** The strategy and simplify flags the command-line front ends share
    ([--simplify], [--simplify-growth], [--ccmin], [--phase-saving],
    [--restarts], [--reduce]), applied over a preset: each value given
    replaces the preset's, in the vocabulary of the [*_of_string]
    functions above.  Flags are checked in that order; [Error msg]
    describes the first bad one, e.g.
    ["--ccmin wants off, basic or deep (got \"x\")"], for the caller to
    print under its own program prefix. *)

val name_of : t -> string
(** Best-effort human name: matches a preset or describes the fields.
    Observability, portfolio and simplifier fields (trace, heartbeat,
    timers, cursor debug, workers, simplify) are ignored by the match —
    they are orthogonal toggles layered on a preset, and a
    simplify-enabled preset should still report its preset name. *)

val presets : (string * t) list
(** All named presets, for CLIs and the bench harness. *)

val pp : Format.formatter -> t -> unit

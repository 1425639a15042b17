(** The BerkMin CDCL engine.

    One mutable solver object per instance.  The engine implements the
    full conflict-driven clause-learning loop — two-watched-literal BCP
    (SATO/Chaff), 1-UIP conflict analysis and non-chronological
    backtracking (GRASP), restarts, learnt-clause stack and database
    reduction — with every heuristic the paper ablates selected by
    {!Config.t}.  Runs are deterministic for a given configuration and
    instance. *)

open Berkmin_types

type t

type result =
  | Sat of bool array  (** total assignment indexed by variable *)
  | Unsat
  | Unknown  (** budget exhausted *)

type budget = {
  max_conflicts : int option;
      (** conflicts this call may spend; a call that runs out has
          spent exactly this many *)
  max_seconds : float option;
      (** CPU seconds ([Sys.time]) this call's search may spend, read
          every 64 conflict-free iterations *)
}
(** A per-call budget: both fields count from the start of the
    {!solve} call they are passed to, whatever earlier calls spent. *)

val no_budget : budget

val budget_conflicts : int -> budget

val create : ?config:Config.t -> Cnf.t -> t
(** Loads the formula.  Every clause, here and in {!load},
    {!add_clause}, {!import_clause} and conflict learning, enters the
    database through one intake: normalization (literals sorted,
    duplicates merged, tautologies dropped), then storage in the arena
    with 2-clauses in the binary implication index.  Load time applies
    no root filter: unit clauses are enqueued as they arrive but not yet
    propagated, so later clauses are stored in full, and a unit
    contradicting an earlier one makes the formula UNSAT.  Default
    configuration is {!Config.berkmin}.  [create] and {!load} share one
    construction: size the per-variable state once, take each clause
    in, attach every watch in one pass.  Trace sinks, proof loggers and
    hooks are attached to the returned solver. *)

val load : ?config:Config.t -> Berkmin_dimacs.Dimacs.source -> t
(** Streams a DIMACS formula straight into a fresh solver — the
    large-instance fast path.  It runs {!create}'s construction, so the
    result is identical to [create (Dimacs.parse_file ...)] (same
    database, same verdicts, same
    {!Berkmin_dimacs.Dimacs.Parse_error}s), but no {!Cnf.t} is
    materialized: the [p cnf V C] header sizes the solver and its
    clause arena (a headerless file grows them as clauses arrive), and
    each clause moves from the parser's scratch buffer into the arena
    with a single blit.  Peak heap beyond the solver's own state is
    O(read chunk + largest clause), never O(file).  Parse+load wall
    time, literal counts and the final scratch size land in
    {!Stats.t} ([time_load], [load_clauses], [load_literals],
    [load_scratch_words]); a solver built by {!create} leaves them at
    0. *)

val load_string : ?config:Config.t -> string -> t
(** {!load} over an in-memory DIMACS document. *)

val load_file : ?config:Config.t -> string -> t
(** {!load} over a file.
    @raise Sys_error if the file cannot be opened. *)

val solve : ?budget:budget -> ?assumps:Lit.t list -> t -> result
(** Runs the search under [budget] (default {!no_budget}), which
    counts from this call; [Unknown] means it ran out.  The solver stays
    reusable after any outcome.  Without assumptions, a second call
    returns the cached verdict unless the first ended in [Unknown], in
    which case the search resumes where it stopped under the new
    budget.

    With [~assumps], the literals are tried in order as the first
    decisions (pseudo-decisions below the real search).  [Unsat] then
    means "unsatisfiable under these assumptions"; {!unsat_core}
    retrieves the failed-assumption core.  The solver backtracks to the
    root afterwards, so it can be reused with different assumptions;
    learnt clauses, activities and polarity counters are all retained
    across calls.
    @raise Invalid_argument on a negative [max_conflicts], a negative
    or NaN [max_seconds], or an assumption over a variable not yet
    allocated or eliminated by {!simplify} (a formula already known
    UNSAT answers [Unsat] without checking its assumptions). *)

(** {2 Incremental interface}

    MiniSat-shaped incremental solving: grow the formula between
    solves, query under assumptions, and bound individual calls.  The
    clause arena, binary implication index, learnt-clause stack and
    every activity/polarity counter survive across calls (restart-time
    GC relocates — never drops — clauses still referenced as reasons),
    so a sequence of related queries against one resident solver is far
    cheaper than fresh solves. *)

val new_var : t -> int
(** Allocates a fresh variable (the next index) and returns it.  All
    per-variable state is grown; the variable starts unassigned with
    zero activity.  Callable at any time — any pending search state is
    first backtracked to the root.  Invalidates a cached SAT verdict
    (the model would be too short); a definitive UNSAT is kept. *)

val add_clause : t -> Lit.t list -> unit
(** Adds a clause over existing variables; callable between solves.
    The clause takes the intake {!create} uses (tautologies dropped,
    duplicate literals merged) followed by the root filter it shares
    with {!import_clause}: at decision level 0, a clause with a literal
    already true there is dropped (it still counts in
    {!num_original_clauses}), literals already false there are removed
    (they are false forever), a remaining unit becomes a top-level
    fact, and an effectively empty clause is proof-logged and makes the
    solver permanently UNSAT.  Invalidates a cached SAT/Unknown verdict.
    @raise Invalid_argument if the clause mentions a variable not yet
    allocated ([new_var] first). *)

val unsat_core : t -> Lit.t list option
(** Failed-assumption core of the most recent [solve ~assumps] call
    that returned [Unsat]: [Some core] with [core] a subset of the
    assumptions whose conjunction already forces the conflict, or
    [Some []] when the formula is unsatisfiable regardless of the
    assumptions.  [None] after any other outcome (including plain
    [solve]). *)

val stats : t -> Stats.t

val trace : t -> Trace.t
(** The solver's trace stream, created with the [Null] sink. *)

val set_trace_sink : t -> Trace.sink -> unit
(** Installs a trace sink (replacing any existing one); a JSONL file is
    [set_trace_sink s (Trace.open_jsonl path)].  Install before [solve]
    to capture the whole search. *)

val close_trace : t -> unit
(** Closes a JSONL trace channel, if any, and disables tracing. *)

val num_vars : t -> int

val num_original_clauses : t -> int
(** Clauses actually loaded (tautologies excluded), the denominator of
    Table 9's ratios. *)

val num_learnt_live : t -> int

val num_binary_entries : t -> int
(** Live [(implied_lit, reason)] pairs in the binary implication index
    — two per stored 2-clause, original or learnt (see {!Binary}). *)

val old_activity_threshold : t -> int
(** Current value of the growing old-clause activity bar (Section 8). *)

val set_proof_logger : t -> (Berkmin_proof.Drup.event -> unit) -> unit
(** Installs a DRUP event callback.  Must be installed before [solve]
    to capture the whole derivation. *)

val set_decision_hook : t -> (int -> bool -> unit) -> unit
(** [hook var value] fires on every branching decision (used by the
    Figure-1 cone-mobility experiment). *)

val set_minimize_hook :
  t -> (before:Lit.t array -> after:Lit.t array -> unit) -> unit
(** [hook ~before ~after] fires once per conflict with the 1-UIP
    clause before and after conflict-clause minimization
    ({!Config.ccmin_mode}), asserting literal first in both arrays
    (identical contents when minimization is off).  The ccmin
    invariant tests — [after] a subset of [before], asserting literal
    preserved — live behind this hook.  Runs inside the search loop;
    keep it cheap and never let it raise. *)

(** {2 Learnt-clause exchange}

    Hooks the process-parallel portfolio ({!Berkmin_portfolio}) uses
    to share learnt clauses between workers.  The solver itself knows
    nothing about processes or pipes: it reports every learnt clause
    with its learn-time glue through the learn hook, and adopts
    foreign clauses delivered by the import source at restart
    boundaries.  A solver with neither installed behaves exactly as
    before. *)

val set_learn_hook : t -> (glue:int -> Lit.t array -> unit) -> unit
(** [hook ~glue lits] fires once per learnt clause — units included —
    with its learn-time glue (LBD: the number of distinct decision
    levels among the clause's literals at the moment of learning).
    The hook runs inside the search loop; keep it cheap and never let
    it raise. *)

val set_import_source : t -> (unit -> (int * Lit.t array) list) -> unit
(** Installs a pull source of foreign learnt clauses as
    [(glue, lits)] pairs.  The solver polls it at every restart, at
    decision level 0, and adopts each delivered clause via
    {!import_clause}. *)

val import_clause : t -> glue:int -> Lit.t array -> unit
(** Adopts a clause learnt by another solver of the same formula.
    Sound only for logical consequences of the formula (shared learnt
    clauses are).  Runs at decision level 0 (backtracking first if
    needed) through the same intake and root filter as {!add_clause}:
    tautologies dropped, duplicates merged, satisfied clauses dropped,
    permanently-false literals filtered, units enqueued as top-level
    facts, binaries routed to the implication index, an effectively
    empty clause making the solver UNSAT.  Unlike {!add_clause}, every
    clause that lands is proof-logged as derived, and a clause over a
    variable this solver eliminated is dropped rather than rejected.
    Stored clauses are learnt- and imported-flagged and join
    the learnt stack (so reduction and GC manage them normally).
    Duplicate imports (same literal set, any order) are dropped;
    {!Stats.t.clauses_imported} counts only clauses that landed.
    Unknown variables make the import a no-op. *)

val glue_of_learnt : t -> int -> int
(** Recorded learn-time glue of the [i]-th clause on the live learnt
    stack (index as in {!num_learnt_live}; for tests and DB-reduction
    experiments).
    @raise Invalid_argument when out of bounds. *)

val value_of : t -> int -> Value.t
(** Current assignment of a variable (mainly for tests). *)

val compact : t -> unit
(** Forces an arena compaction: every live clause is copied into a
    fresh buffer and all outstanding crefs — watch lists, trail
    reasons, the learnt stack, the original list and the binary
    implication index — are relocated.  Safe at any decision level.
    The search triggers this itself after every reduction that deletes
    clauses; the public hook exists for tests and memory-pressure
    callers. *)

val simplify : t -> unit
(** Forces one clause-database simplification pass (subsumption,
    self-subsuming resolution, bounded variable elimination,
    failed-literal probing — see {!Berkmin_simplify.Engine}) at
    decision level 0, regardless of {!Config.t.simplify}.  Backtracks
    to the root first and invalidates any cached non-UNSAT verdict.
    Variables eliminated here stay eliminated: they reject later
    {!add_clause}/assumption mentions and get their model values from
    the reconstruction stack.  With a proof logger attached, every
    rewrite is mirrored to the DRUP stream.  For tests and embedders;
    the search calls this itself according to the configured mode. *)

val num_eliminated_vars : t -> int
(** Variables removed so far by bounded variable elimination (the
    cumulative {!Stats.t.eliminated_vars} of this solver; O(nvars)). *)

val arena_bytes : t -> int
(** Current clause-arena footprint in bytes (headers + literals,
    live + not-yet-collected garbage). *)

val arena_wasted_bytes : t -> int
(** Bytes owned by deleted clauses awaiting compaction. *)

val watch_invariant_violations : t -> string list
(** Audits the watched-literal and binary-index invariants and returns
    a human-readable description of each violation (empty = healthy):
    watch lists hold well-formed (blocker, cref) pairs referencing
    live clauses by one of their two watch slots; every live clause of
    size > 2 is watched exactly once from each watch literal, or not
    at all only when it is satisfied at level 0; when called at
    decision level 0 with no pending propagations, both watches of
    every unsatisfied clause are non-false; every live 2-clause is
    indexed exactly once in each direction and never watched; every
    index entry matches a live 2-clause in the arena; and the two
    literals of every variable are both unassigned or hold opposite
    values; and {!top_cursor_violations} finds none.  O(database
    size); for tests. *)

val top_cursor_violations : t -> string list
(** Audits the invariant the top-clause cursor relies on: every learnt
    clause above it is satisfied, so resuming the scan there picks what
    a scan from the stack top would (paper Section 5).  One description
    per violation (empty = healthy).  O(learnt clauses); for tests,
    e.g. from {!set_decision_hook} at every decision. *)

val solve_cnf : ?config:Config.t -> ?budget:budget -> Cnf.t -> result
(** One-shot convenience wrapper. *)

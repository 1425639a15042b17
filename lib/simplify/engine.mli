(** Proof-sound clause-database simplification.

    Subsumption, self-subsuming resolution, bounded variable
    elimination (BVE) and failed-literal probing over an occurrence
    index, operating on a plain clause list so the engine can be driven
    by the solver (from its arena), by tests, or standalone.

    When a DRUP logger is attached, every rewrite is mirrored to it
    with derived clauses added {e before} the clauses they came from
    are deleted, so the emitted event stream splices into the solver's
    proof log and still forward-checks (see docs/SIMPLIFY.md for the
    full argument).
    Eliminated variables come back as an elimination stack; {!Recon}
    replays it to repair SAT models. *)

open Berkmin_types

type opts = {
  max_rounds : int;  (** fixpoint rounds before giving up *)
  bve_growth : int;
      (** BVE may add this many resolvents beyond the clauses removed *)
  bve_max_occ : int;
      (** skip elimination of variables with more total occurrences *)
  probe_budget : int;
      (** total binary-implication steps for probing: every edge a
          probe's DFS visits counts *)
  subsume_budget : int;
      (** total candidate tests for subsumption: every occurrence entry
          scanned counts, including entries of deleted clauses, which
          the occurrence lists keep *)
}

val default_opts : opts

type clause_in = {
  lits : Lit.t array;
  tag : int;  (** opaque caller cookie, returned in [kept]; must be >= 0 *)
  redundant : bool;
      (** learnt clauses: never drive BVE, dropped when their variable
          is eliminated, promoted to irredundant when they subsume an
          irredundant clause *)
}

type elim_entry = {
  var : int;
  clauses : Lit.t array list;
      (** the irredundant occurrences removed when [var] was
          eliminated; reconstruction picks the phase of [var]
          satisfying all of them *)
}

type stats = {
  mutable rounds : int;
  mutable subsumed : int;
  mutable strengthened : int;
  mutable eliminated_vars : int;
  mutable failed_literals : int;
  mutable simplified_clauses : int;  (** clauses deleted outright *)
  mutable resolvents_added : int;
}

type outcome = {
  kept : clause_in list;
      (** surviving input clauses, possibly strengthened or promoted,
          in input order *)
  resolvents : Lit.t array list;  (** new irredundant clauses from BVE *)
  units : Lit.t list;
      (** derived top-level facts in derivation order (each already
          emitted to the proof) *)
  unsat : bool;  (** a root-level conflict was derived *)
  eliminated : elim_entry list;  (** newest elimination first *)
  st : stats;
}

val run :
  ?opts:opts ->
  ?proof:(Berkmin_proof.Drup.event -> unit) ->
  nvars:int ->
  frozen:(int -> bool) ->
  roots:Lit.t list ->
  clause_in list ->
  outcome
(** [run ~nvars ~frozen ~roots clauses] simplifies [clauses].

    [frozen v] excludes [v] from variable elimination (assumption
    variables, variables the caller will mention again).  [roots] are
    already-established facts (the solver's level-0 trail): they seed
    the internal assignment and clean the database but are not
    re-emitted to the proof — the caller must have logged them (the
    solver logs every level-0 enqueue whenever a proof logger is
    attached).
    The [proof] logger receives every Add/Delete in a forward-
    checkable order.  Without one, no proof work happens: no event is
    built and no clause is copied for one.  The outcome, stats
    included, does not depend on whether a logger is attached. *)

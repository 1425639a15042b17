(** Process-parallel portfolio solving.

    A portfolio run races [N] diversified solver configurations on the
    same formula, one Unix process each, and returns the first
    definitive verdict (SAT/UNSAT); the losing workers are killed.
    Diversification varies exactly the axes the paper's evaluation
    shows to dominate runtime variance — restart policy (fixed
    interval vs Luby unit), decision sensitivity (BerkMin's
    responsible-clauses bumping vs conflict-clause-only), clause-DB
    aggressiveness, branch polarity and the RNG seed — so hard
    instances are attacked from several heuristic angles at once.

    Workers are plain [Unix.fork] children (no Domains, so the same
    code runs on OCaml 4.14 and 5.x): each solves in its own copy of
    the formula and talks to the parent over a pair of pipes carrying
    length-prefixed {!Share} frames.  While searching, each worker of a
    race with sharing on (the [share] setting of {!solve_specs})
    exports every learnt clause that passes the length/glue filter up
    its pipe; the parent
    rebroadcasts each distinct clause to every other worker, which
    adopts the imports at its next restart (see [docs/PARALLEL.md]
    for the wire protocol).  Sharing is best-effort: every export and
    rebroadcast write is non-blocking and drops the frame rather than
    stall anyone.  The worker's last act is a reply frame wrapping its
    marshalled verdict, statistics and wall time.  The parent
    multiplexes the pipes with [Unix.select], enforces an optional
    per-worker wall-clock timeout, and degrades gracefully: a worker
    that crashes, is killed by a signal, or exhausts its budget is
    recorded as such and the race simply continues with the
    survivors.  Only when no worker can produce a verdict does the
    aggregate result fall back to [Unknown].

    With a single worker (and no fault-injection hook) no process is
    forked: the solve runs in this process, bit-for-bit identical to
    {!Berkmin.Solver.solve} — existing sequential behaviour is
    untouched.

    Tracing composes with the race: when a JSONL trace path is set,
    each worker writes [path.w<i>] with every event tagged with its
    worker index (see {!Berkmin.Trace.set_worker}), and the parent
    merges the per-worker files into a single stream at [path] after
    the race. *)

open Berkmin_types

type spec = {
  sp_config : Berkmin.Config.t;  (** the worker's configuration *)
  sp_budget : Berkmin.Solver.budget;  (** its conflict/CPU budget *)
}
(** One worker: a configuration plus a solve budget.  Per-worker
    budgets make deterministic tests possible (starve one worker,
    the other must win). *)

(** How a worker's run ended, as observed by the parent. *)
type status =
  | W_won  (** delivered the winning SAT/UNSAT verdict *)
  | W_lost  (** killed because another worker won first *)
  | W_exhausted  (** reported [Unknown]: its budget ran out *)
  | W_crashed of int
      (** exited with this code without delivering a verdict *)
  | W_signaled of int
      (** killed by this signal (OCaml convention, e.g.
          [Sys.sigkill]) without delivering a verdict *)
  | W_timed_out  (** killed at the per-worker wall-clock timeout *)

type worker = {
  w_index : int;
  w_config : Berkmin.Config.t;
  w_status : status;
  w_wall_seconds : float;
      (** parent-observed wall time from spawn to termination *)
  w_stats : Berkmin.Stats.t option;
      (** solver statistics, for workers that delivered a reply
          ([W_won]/[W_exhausted]); [None] for killed or crashed ones *)
  w_frames_exported : int;
      (** clause frames the parent received from this worker — counted
          parent-side, so meaningful even for killed workers (unlike
          the worker's own [Stats.t.clauses_exported], which only
          survives in a delivered reply) *)
  w_frames_delivered : int;
      (** distinct clause frames the parent successfully wrote into
          this worker's import pipe (drops under backpressure and
          writes to dead workers are not counted) *)
}

type outcome = {
  result : Berkmin.Solver.result;
      (** the aggregate verdict: the winner's, or [Unknown] when no
          worker produced one *)
  winner : int option;  (** index of the winning worker *)
  workers : worker list;  (** one record per worker, in index order *)
  wall_seconds : float;  (** wall time of the whole race *)
}

val diversify :
  ?diversify:bool -> workers:int -> Berkmin.Config.t -> Berkmin.Config.t list
(** [diversify ~workers base] is the portfolio of [workers]
    configurations raced for [base].  Worker 0 always runs [base]
    itself, so a portfolio answer can never be worse than the
    sequential configuration (modulo scheduling).  Further workers
    rotate through six lanes — a Chaff-like profile, Luby restarts
    with a growing unit, aggressive clause-DB reduction with fast
    restarts, low-sensitivity activity with fast decay, randomized
    polarity, and a low-mobility DB-hoarding profile — each with a
    distinct RNG seed.  With [~diversify:false] the workers differ
    only in seed.  Observability fields of [base] are preserved.  A
    {!Berkmin.Config.t} holds no worker count, so every configuration
    is one sequential search.
    @raise Invalid_argument when [workers < 1]. *)

val solve_specs :
  ?wall_timeout:float ->
  ?share:bool ->
  ?share_max_len:int ->
  ?share_max_glue:int ->
  ?worker_hook:(int -> unit) ->
  ?trace_jsonl:string ->
  spec list ->
  Cnf.t ->
  outcome
(** Race an explicit list of workers on the formula.

    [wall_timeout] kills any worker still running after that many wall
    seconds (default: workers are bounded only by their budgets).
    [share] (default [true]) exchanges learnt clauses between the
    workers: each exports the clauses of at most [share_max_len]
    literals (default 8) and glue at most [share_max_glue] (default 4),
    the parent rebroadcasts them, and the others import them at their
    next restart; with [false] no clause frame moves.  [worker_hook]
    runs in each child just before solving (fault injection for tests:
    a hook that calls [exit 2] or raises [Sys.sigkill] simulates a
    crashed worker); passing a hook forces forking even for a single
    worker.  [trace_jsonl] routes each worker's trace to [path.w<i>]
    and merges them into [path] afterwards; a single unforked worker
    traces straight to [path].

    SAT models are re-verified in the parent; a worker returning a
    model that does not satisfy the formula is treated as crashed and
    the race continues.
    @raise Invalid_argument on an empty spec list, a negative or NaN
    [wall_timeout], or a share cap below 1. *)

val solve_config :
  ?budget:Berkmin.Solver.budget ->
  ?workers:int ->
  ?diversify:bool ->
  ?wall_timeout:float ->
  ?share:bool ->
  ?share_max_len:int ->
  ?share_max_glue:int ->
  ?trace_jsonl:string ->
  Berkmin.Config.t ->
  Cnf.t ->
  outcome
(** The high-level entry point the CLI and harness use: races
    [diversify ?diversify ~workers config] (default one worker, which
    solves in this process), every worker under [budget] (default
    {!Berkmin.Solver.no_budget}).  The other settings, [trace_jsonl]
    among them, are {!solve_specs}'s.
    @raise Invalid_argument as {!diversify} and {!solve_specs} do. *)

val status_to_string : status -> string
(** ["won"], ["lost"], ["exhausted"], ["crashed(2)"],
    ["signaled(-7)"], ["timed_out"]. *)

val result_to_string : Berkmin.Solver.result -> string
(** ["SAT"], ["UNSAT"] or ["UNKNOWN"]. *)

val worker_to_json : worker -> Json.t
(** One worker as JSON: index, strategy name, seed, status, wall
    seconds, the parent-observed [frames_exported]/[frames_delivered]
    sharing counters, and (when delivered) the full statistics object
    tagged with the worker index. *)

val outcome_to_json : outcome -> Json.t
(** The whole race: aggregate result, winner index (null when none),
    total wall seconds and the per-worker records. *)

(** Structured trace-event stream for the CDCL search.

    Every interesting transition of the search loop — decision,
    BCP-implied literal, conflict, learnt clause, backjump, restart,
    database reduction, plus a periodic heartbeat — is a typed event.
    Events flow to a pluggable sink: [Null] (the default; the solver's
    emission sites guard on {!active}, so a disabled trace costs one
    mutable-bool load per site), a [Callback] for programmatic
    consumers (tests, live dashboards), or a [Jsonl] channel writing
    one JSON object per line.

    Literals appear in events in signed DIMACS convention (via
    {!Berkmin_types.Lit.to_dimacs}), matching the solver's external
    I/O. *)

open Berkmin_types

type decision_kind =
  | D_top_clause  (** decision from the current top clause *)
  | D_global  (** global fallback / VSIDS decision *)
  | D_assumption  (** assumption literal tried as a decision *)

type share_direction =
  | S_export  (** this worker sent a learnt clause to the parent *)
  | S_import  (** this worker adopted a clause learnt elsewhere *)

type event =
  | Decide of { level : int; var : int; value : bool; kind : decision_kind }
  | Propagate of { level : int; lit : Lit.t }
      (** a literal implied by BCP (not emitted for decisions) *)
  | Conflict of { level : int; conflict_no : int }
  | Learn of { size : int; asserting : Lit.t; backjump_level : int }
  | Backjump of { from_level : int; to_level : int }
  | Restart of { restart_no : int; conflict_no : int; seq_index : int }
      (** [seq_index] is the position in the restart sequence after
          this restart (for Luby, the index whose term now sets the
          interval; for fixed cadence, simply the restart count) *)
  | Reduce_db of {
      live_before : int;
      removed : int;
      threshold : int;
      glue_kept : int;
      glue_dropped : int;
    }
      (** [glue_kept]/[glue_dropped] count the clauses a [Glue_lbd]
          reduction kept unconditionally (glue at or below the limit)
          vs dropped; both 0 under the other reduction modes *)
  | Simplify of {
      rounds : int;
      subsumed : int;
      strengthened : int;
      eliminated_vars : int;
      failed_literals : int;
      clauses_before : int;
      clauses_after : int;
    }
      (** one clause-database simplification pass (pre-search or at a
          restart boundary): what it removed, shortened and eliminated,
          and the live original+learnt clause count on either side *)
  | Gc of {
      reclaimed_bytes : int;
      arena_bytes_before : int;
      arena_bytes_after : int;
    }
      (** clause-arena compaction: dead clause space physically
          reclaimed, crefs relocated *)
  | Heartbeat of {
      conflict_no : int;
      decisions : int;
      propagations : int;
      learnt_live : int;
      seconds : float;  (** CPU seconds since the solve started *)
    }
  | Share of { direction : share_direction; size : int; glue : int }
      (** one learnt clause crossing the portfolio exchange: exported
          through the length/glue filter, or imported (after
          simplification and dedup) at a restart boundary *)
  | Warn of { message : string }
      (** a broken-but-survivable invariant the solver degraded
          around instead of aborting *)
  | Server_request of {
      session : string;
      op : string;
      status : string;  (** response status, e.g. ["sat"], ["error"] *)
      conflicts : int;  (** conflicts spent by this request alone *)
      propagations : int;  (** propagations spent by this request alone *)
      latency_ms : float;  (** request wall-clock latency *)
    }
      (** one serviced request of the persistent solver daemon
          ({!Berkmin_server}); the per-request cost accounting the
          server's trace stream is made of *)

type sink =
  | Null
  | Callback of (event -> unit)
  | Jsonl of out_channel

type t = private {
  mutable sink : sink;
  mutable active : bool;
      (** [false] iff [sink = Null].  Exposed as a field (not a
          function) so the solver's per-propagation guard is a single
          load even without cross-module inlining.  Mutate only via
          {!set_sink}/{!close}. *)
  mutable emitted : int;
  mutable worker : int option;
      (** Portfolio worker tag.  When set (via {!set_worker}), every
          JSONL line carries a ["worker"] field so traces from several
          racing workers can be merged into one stream and still be
          told apart.  [None] — the default — adds nothing. *)
}

val create : unit -> t
(** A fresh trace with the [Null] sink. *)

val set_sink : t -> sink -> unit

val sink : t -> sink

val active : t -> bool
(** [false] iff the sink is [Null].  Emission sites check this before
    constructing an event, so disabled tracing allocates nothing. *)

val emit : t -> event -> unit
(** Sends the event to the sink ([Null] drops it).  [Jsonl] lines are
    flushed eagerly. *)

val emitted : t -> int
(** Events delivered to a non-null sink so far. *)

val set_worker : t -> int -> unit
(** Tag this trace with a portfolio worker index; subsequent JSONL
    lines gain a ["worker"] field.  Call before [solve]. *)

val worker : t -> int option
(** The worker tag, if any. *)

val event_to_json : ?worker:int -> event -> Json.t
(** The event as a JSON object; [worker] prepends a ["worker"] field
    (what the [Jsonl] sink writes for a tagged trace). *)

val open_jsonl : string -> sink
(** Opens (truncates) a JSONL trace file. *)

val close : t -> unit
(** Closes a [Jsonl] channel if present and resets the sink to
    [Null]. *)

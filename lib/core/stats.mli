(** Per-run solver statistics.

    Besides the usual CDCL counters, this records the data behind the
    paper's tables: the skin-effect histogram [f(r)] of Table 3
    (how far from the stack top the decision clause sat) and the
    database-size numbers of Table 9. *)

type t = {
  mutable decisions : int;
  mutable top_clause_decisions : int;
  mutable global_decisions : int;
  mutable conflicts : int;
  mutable propagations : int;
  mutable binary_propagations : int;
  mutable binary_conflicts : int;
  mutable watcher_visits : int;
  mutable blocker_hits : int;
  mutable top_cursor_steps : int;
  mutable nb_two_cache_hits : int;
  mutable clauses_exported : int;
  mutable clauses_imported : int;
  mutable imports_used_in_conflict : int;
  mutable restarts : int;
  mutable reductions : int;
  mutable simplify_runs : int;
  mutable simplified_clauses : int;
  mutable eliminated_vars : int;
  mutable subsumed : int;
  mutable strengthened : int;
  mutable failed_literals : int;
  mutable gc_runs : int;
  mutable gc_reclaimed_bytes : int;
  mutable arena_bytes : int;
  mutable learnt_total : int;
  mutable learnt_literals : int;
  mutable minimized_literals : int;
  mutable saved_phase_hits : int;
  mutable restart_seq_index : int;
  mutable glue_reduction_kept : int;
  mutable glue_reduction_dropped : int;
  mutable removed_clauses : int;
  mutable max_live_clauses : int;
  mutable max_learnt_live : int;
  mutable skin : int array;  (** [skin.(r)] = decisions from stack distance [r] *)
  mutable skin_overflow : int;
  mutable time_bcp : float;
  mutable time_analyze : float;
  mutable time_reduce : float;
  mutable load_clauses : int;
  mutable load_literals : int;
  mutable load_scratch_words : int;
  mutable time_load : float;
}
(** One mutable field per counter, so a hot-path update is one store.
    What each field counts is its row's [meaning] in {!counters}. *)

val create : unit -> t

val copy : t -> t
(** A frozen copy, histogram included. *)

type reader =
  | Int of (t -> int)
  | Seconds of (t -> float)

type counter = { name : string; meaning : string; read : reader }

val counters : counter list
(** One row per counter, in JSON order: its JSON key, what it counts
    (the table in docs/OBSERVABILITY.md repeats this text, and a test
    holds the two equal) and how to read it.  A new counter is one
    record field, its {!create} value and one row here. *)

val select : string list -> t -> (string * Berkmin_types.Json.t) list
(** [select names] looks every name up in {!counters} at once, raising
    [Invalid_argument] on a name that has no row, and returns a reader
    of those counters as JSON members in the order given.  Apply it at
    module initialisation so a misspelt name fails every run. *)

val record_skin : t -> int -> unit
(** Record a top-clause decision at stack distance [r] (grows the
    histogram as needed, up to a fixed cap). *)

val skin_at : t -> int -> int
(** [f(r)]; 0 beyond the recorded range. *)

val note_live_clauses : t -> int -> unit

val db_ratio : t -> initial:int -> float
(** Table 9 first column: (initial + total learnt) / initial. *)

val peak_ratio : t -> initial:int -> float
(** Table 9 second column: peak live clauses / initial. *)

val avg_learnt_length : t -> float

val skin_to_json : t -> Berkmin_types.Json.t
(** The histogram trimmed to its last non-zero bucket. *)

val props_per_sec : t -> seconds:float -> float
(** Propagations per second given the run's wall/CPU time; 0 when
    [seconds <= 0]. *)

val to_json : ?worker:int -> ?seconds:float -> t -> Berkmin_types.Json.t
(** Every row of {!counters}, then ["avg_learnt_length"] and the
    trimmed ["skin"] histogram.  When [seconds] is passed, adds
    ["seconds"] and the derived ["props_per_sec"] (also under its long
    alias ["propagations_per_sec"]); [worker] prepends the portfolio
    worker index so per-worker records are self-describing. *)

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable dump. *)

val pp_line : Format.formatter -> t -> unit
(** One-line summary. *)

open Berkmin_types

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
  mutable skin : int array;
  mutable skin_overflow : int;
  mutable time_bcp : float;
  mutable time_analyze : float;
  mutable time_reduce : float;
  mutable load_clauses : int;
  mutable load_literals : int;
  mutable load_scratch_words : int;
  mutable time_load : float;
}

let skin_cap = 1 lsl 16

let create () = {
  decisions = 0;
  top_clause_decisions = 0;
  global_decisions = 0;
  conflicts = 0;
  propagations = 0;
  binary_propagations = 0;
  binary_conflicts = 0;
  watcher_visits = 0;
  blocker_hits = 0;
  top_cursor_steps = 0;
  nb_two_cache_hits = 0;
  clauses_exported = 0;
  clauses_imported = 0;
  imports_used_in_conflict = 0;
  restarts = 0;
  reductions = 0;
  simplify_runs = 0;
  simplified_clauses = 0;
  eliminated_vars = 0;
  subsumed = 0;
  strengthened = 0;
  failed_literals = 0;
  gc_runs = 0;
  gc_reclaimed_bytes = 0;
  arena_bytes = 0;
  learnt_total = 0;
  learnt_literals = 0;
  minimized_literals = 0;
  saved_phase_hits = 0;
  restart_seq_index = 0;
  glue_reduction_kept = 0;
  glue_reduction_dropped = 0;
  removed_clauses = 0;
  max_live_clauses = 0;
  max_learnt_live = 0;
  skin = Array.make 64 0;
  skin_overflow = 0;
  time_bcp = 0.0;
  time_analyze = 0.0;
  time_reduce = 0.0;
  load_clauses = 0;
  load_literals = 0;
  load_scratch_words = 0;
  time_load = 0.0;
}

let copy t = { t with skin = Array.copy t.skin }

let record_skin t r =
  if r >= skin_cap then t.skin_overflow <- t.skin_overflow + 1
  else begin
    if r >= Array.length t.skin then begin
      let n = ref (Array.length t.skin) in
      while r >= !n do
        n := 2 * !n
      done;
      let skin = Array.make !n 0 in
      Array.blit t.skin 0 skin 0 (Array.length t.skin);
      t.skin <- skin
    end;
    t.skin.(r) <- t.skin.(r) + 1
  end

let skin_at t r = if r < 0 || r >= Array.length t.skin then 0 else t.skin.(r)

let note_live_clauses t n =
  if n > t.max_live_clauses then t.max_live_clauses <- n

let db_ratio t ~initial =
  if initial = 0 then 0.0
  else float_of_int (initial + t.learnt_total) /. float_of_int initial

let peak_ratio t ~initial =
  if initial = 0 then 0.0
  else float_of_int t.max_live_clauses /. float_of_int initial

let avg_learnt_length t =
  if t.learnt_total = 0 then 0.0
  else float_of_int t.learnt_literals /. float_of_int t.learnt_total

(* The skin histogram is emitted trimmed to its last non-zero bucket;
   [of_json]-style consumers index it positionally. *)
let skin_to_json t =
  let last = ref (-1) in
  Array.iteri (fun i n -> if n > 0 then last := i) t.skin;
  Json.List
    (List.init (!last + 1) (fun i -> Json.Int t.skin.(i)))

let props_per_sec t ~seconds =
  if seconds <= 0.0 then 0.0 else float_of_int t.propagations /. seconds

type reader =
  | Int of (t -> int)
  | Seconds of (t -> float)

type counter = { name : string; meaning : string; read : reader }

let count name meaning read = { name; meaning; read = Int read }
let timer name meaning read = { name; meaning; read = Seconds read }

let counters =
  [
    count "decisions" "branching decisions" (fun t -> t.decisions);
    count "top_clause_decisions"
      "decisions taken from the top unsatisfied learnt clause" (fun t ->
        t.top_clause_decisions);
    count "global_decisions"
      "fallback whole-formula decisions, taken when every learnt clause is \
       satisfied" (fun t -> t.global_decisions);
    count "conflicts" "conflicts hit" (fun t -> t.conflicts);
    count "propagations" "literals assigned by BCP" (fun t -> t.propagations);
    count "binary_propagations"
      "subset of `propagations` implied straight from the binary implication \
       index, bypassing the watch lists and the arena" (fun t ->
        t.binary_propagations);
    count "binary_conflicts"
      "conflicts detected inside the binary-implication drain, before any \
       watch list or arena read" (fun t -> t.binary_conflicts);
    count "watcher_visits"
      "`(blocker, cref)` watcher pairs examined by BCP; binary clauses are not \
       watched, so they never contribute" (fun t -> t.watcher_visits);
    count "blocker_hits"
      "watcher visits short-circuited by a true blocker, with no arena read"
      (fun t -> t.blocker_hits);
    count "top_cursor_steps"
      "learnt-stack entries examined by the cached top-clause cursor; a \
       rescan would pay one step per clause above the first unsatisfied one \
       on every decision" (fun t -> t.top_cursor_steps);
    count "nb_two_cache_hits"
      "`nb_two` binary-degree lookups answered from the per-assignment-epoch \
       memo instead of rescanning the index" (fun t -> t.nb_two_cache_hits);
    count "clauses_exported"
      "learnt clauses exported to portfolio siblings: passed the length/glue \
       filter and the pipe write succeeded; 0 in sequential runs" (fun t ->
        t.clauses_exported);
    count "clauses_imported"
      "foreign learnt clauses that landed after the filter, dedup and \
       level-0 simplification; 0 in sequential runs" (fun t ->
        t.clauses_imported);
    count "imports_used_in_conflict"
      "uses of an imported clause as an antecedent in conflict analysis: \
       sharing that steered the search, not just arrived" (fun t ->
        t.imports_used_in_conflict);
    count "restarts" "restarts performed" (fun t -> t.restarts);
    count "reductions" "clause-DB reduction passes" (fun t -> t.reductions);
    count "simplify_runs"
      "simplification passes (`lib/simplify`): one per presolve, plus one per \
       restart under `--simplify inprocess`" (fun t -> t.simplify_runs);
    count "simplified_clauses"
      "clauses the simplifier removed: subsumed, satisfied at level 0, or \
       resolved away by variable elimination" (fun t -> t.simplified_clauses);
    count "eliminated_vars"
      "variables removed by bounded variable elimination; models are \
       reconstructed through the elimination stack" (fun t ->
        t.eliminated_vars);
    count "subsumed" "clauses dropped by backward subsumption" (fun t ->
        t.subsumed);
    count "strengthened"
      "clauses shortened by self-subsuming resolution or by stripping \
       literals false at level 0" (fun t -> t.strengthened);
    count "failed_literals"
      "level-0 probes over the binary implication graph that failed, each \
       forcing the opposite unit" (fun t -> t.failed_literals);
    count "gc_runs" "arena compactions performed" (fun t -> t.gc_runs);
    count "gc_reclaimed_bytes" "clause bytes physically reclaimed by compaction"
      (fun t -> t.gc_reclaimed_bytes);
    count "arena_bytes"
      "clause-arena footprint in bytes, as of the last allocation or \
       compaction" (fun t -> t.arena_bytes);
    count "learnt_total" "clauses learnt, units included" (fun t ->
        t.learnt_total);
    count "learnt_literals" "total literals across learnt clauses" (fun t ->
        t.learnt_literals);
    count "minimized_literals"
      "literals removed by conflict-clause minimization (`--ccmin basic` or \
       `deep`)" (fun t -> t.minimized_literals);
    count "saved_phase_hits"
      "decisions whose polarity came from the saved phase \
       (`--phase-saving true`)" (fun t -> t.saved_phase_hits);
    count "restart_seq_index"
      "position in the restart sequence after the latest restart (the Luby \
       index under `--restarts luby:N`); 0 before the first" (fun t ->
        t.restart_seq_index);
    count "glue_reduction_kept"
      "learnt clauses kept by glue-driven reduction (`--reduce glue:N`) \
       because their learn-time glue was at or below the limit" (fun t ->
        t.glue_reduction_kept);
    count "glue_reduction_dropped"
      "learnt clauses deleted by glue-driven reduction: glue above the limit \
       and outside the protected young band" (fun t ->
        t.glue_reduction_dropped);
    count "removed_clauses" "learnt clauses deleted by DB reduction" (fun t ->
        t.removed_clauses);
    count "max_live_clauses" "peak live clauses, original plus learnt"
      (fun t -> t.max_live_clauses);
    count "max_learnt_live" "peak live learnt clauses" (fun t ->
        t.max_learnt_live);
    count "skin_overflow" "decisions deeper than the 65536-bucket `skin` cap"
      (fun t -> t.skin_overflow);
    timer "time_bcp" "CPU seconds inside BCP, under `--profile`" (fun t ->
        t.time_bcp);
    timer "time_analyze" "CPU seconds in conflict analysis, under `--profile`"
      (fun t -> t.time_analyze);
    timer "time_reduce" "CPU seconds in DB reduction, under `--profile`"
      (fun t -> t.time_reduce);
    count "load_clauses"
      "clauses stored by the bulk-load path (`Solver.load`), tautologies \
       excluded" (fun t -> t.load_clauses);
    count "load_literals"
      "literals the bulk-load path read from the DIMACS text" (fun t ->
        t.load_literals);
    count "load_scratch_words"
      "final parser scratch capacity: the largest-clause term of the \
       streaming memory bound" (fun t -> t.load_scratch_words);
    timer "time_load" "wall-clock seconds of the streaming parse and bulk load"
      (fun t -> t.time_load);
  ]

let member t c =
  ( c.name,
    match c.read with Int f -> Json.Int (f t) | Seconds f -> Json.Float (f t) )

let members rows t = List.map (member t) rows

let select names =
  let find name =
    match List.find_opt (fun c -> c.name = name) counters with
    | Some c -> c
    | None -> invalid_arg ("Stats.select: no counter named " ^ name)
  in
  members (List.map find names)

let to_json ?worker ?seconds t =
  let tag =
    match worker with
    | None -> []
    | Some w -> [ "worker", Json.Int w ]
  in
  let derived =
    match seconds with
    | None -> []
    | Some s ->
      let rate = Json.Float (props_per_sec t ~seconds:s) in
      [
        "seconds", Json.Float s;
        "props_per_sec", rate;
        "propagations_per_sec", rate;
      ]
  in
  Json.Obj
    (tag
    @ members counters t
    @ [
        "avg_learnt_length", Json.Float (avg_learnt_length t);
        "skin", skin_to_json t;
      ]
    @ derived)

let pp fmt t =
  Format.fprintf fmt
    "decisions      : %d (top-clause %d, global %d)@\n\
     conflicts      : %d (binary %d)@\n\
     propagations   : %d (binary %d)@\n\
     watcher visits : %d (blocker hits %d)@\n\
     restarts       : %d (reductions %d)@\n\
     learnt         : %d (avg len %.1f, removed %d)@\n\
     peak live DB   : %d clauses@\n\
     arena          : %d bytes (%d GCs, %d bytes reclaimed)"
    t.decisions t.top_clause_decisions t.global_decisions t.conflicts
    t.binary_conflicts t.propagations t.binary_propagations t.watcher_visits
    t.blocker_hits t.restarts t.reductions t.learnt_total
    (avg_learnt_length t) t.removed_clauses t.max_live_clauses t.arena_bytes
    t.gc_runs t.gc_reclaimed_bytes;
  if t.simplify_runs > 0 then
    Format.fprintf fmt
      "@\nsimplify       : %d runs (%d clauses removed, %d vars eliminated, \
       %d subsumed, %d strengthened, %d failed lits)"
      t.simplify_runs t.simplified_clauses t.eliminated_vars t.subsumed
      t.strengthened t.failed_literals;
  if t.load_clauses > 0 then
    Format.fprintf fmt
      "@\nload           : %d clauses, %d literals in %.3fs (scratch %d words)"
      t.load_clauses t.load_literals t.time_load t.load_scratch_words;
  if t.time_bcp > 0.0 || t.time_analyze > 0.0 || t.time_reduce > 0.0 then
    Format.fprintf fmt
      "@\nprofile        : bcp %.3fs, analyze %.3fs, reduce %.3fs (CPU)"
      t.time_bcp t.time_analyze t.time_reduce;
  (* restart_seq_index also ticks under the paper's fixed cadence
     (where it equals the restart count, printed above), so it does
     not gate this line on its own. *)
  if
    t.minimized_literals > 0 || t.saved_phase_hits > 0
    || t.glue_reduction_kept + t.glue_reduction_dropped > 0
  then
    Format.fprintf fmt
      "@\nstrategies     : %d lits minimized, %d saved-phase hits, \
       glue kept/dropped %d/%d"
      t.minimized_literals t.saved_phase_hits t.glue_reduction_kept
      t.glue_reduction_dropped

let pp_line fmt t =
  Format.fprintf fmt "dec=%d conf=%d prop=%d rst=%d learnt=%d"
    t.decisions t.conflicts t.propagations t.restarts t.learnt_total

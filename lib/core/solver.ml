open Berkmin_types
module Drup = Berkmin_proof.Drup
module Dimacs = Berkmin_dimacs.Dimacs

type result =
  | Sat of bool array
  | Unsat
  | Unknown

type budget = {
  max_conflicts : int option;
  max_seconds : float option;
}

let no_budget = { max_conflicts = None; max_seconds = None }
let budget_conflicts n = { max_conflicts = Some n; max_seconds = None }

(* Clauses live in a flat int arena ({!Arena}); a clause is a [cref]
   offset into it.  For clauses of three or more literals, literals 0
   and 1 are the watched literals; a clause acting as the reason of an
   implied literal holds that literal in one of its first two slots
   (conflict analysis skips it by variable, not by position).  The
   arena's per-clause activity slot is the paper's clause_activity:
   the number of conflicts the clause has been responsible for.

   Watch lists are stride-2 int vectors of (blocker, cref) pairs: the
   blocker is some literal of the clause (initially the other watch);
   when it is already true the clause is satisfied and BCP skips the
   arena read entirely.

   Two-literal clauses never enter the watch lists: they live in the
   {!Binary} implication index, and [propagate] drains all binary
   implications of an assigned literal — straight out of the packed
   per-literal arrays, with no arena reads and no allocation — before
   touching any long-clause watcher. *)

(* Per-variable and per-literal arrays are mutable fields: incremental
   solving ([new_var] between solves) replaces them with wider copies,
   so nothing outside this record may retain a reference to one. *)
type t = {
  cfg : Config.t;
  stats : Stats.t;
  tracer : Trace.t;
  rng : Rng.t;
  mutable nvars : int;
  mutable n_original : int;
  arena : Arena.t;
  original : Ivec.t;  (* crefs *)
  learnt : Ivec.t;  (* crefs: the chronological conflict-clause stack *)
  mutable watches : Ivec.t array;
      (* per literal: flattened (blocker, cref) pairs *)
  binary : Binary.t;  (* implication index of all stored 2-clauses *)
  mutable vals : Value.t array;
      (* per literal: [vals.(l)] is the value of [l] itself, so
         [vals.(Lit.negate l)] is always its opposite (both
         [Unassigned] while the variable is free); a variable's value
         sits at [Lit.pos v] *)
  mutable level : int array;
  mutable reason : Arena.cref array;  (* [Arena.cref_undef] = decision / level 0 *)
  trail : Ivec.t;  (* literals *)
  trail_lim : Ivec.t;
  mutable qhead : int;  (* long-clause (watch list) propagation head *)
  mutable bin_qhead : int;  (* binary-implication head, drained first *)
  mutable top_cursor : int;
  (* Learnt-stack index caching the top-clause scan: every clause
     strictly above it is satisfied under the current assignment
     ([-1] = the whole stack is).  Between conflicts the trail only
     grows, so satisfied clauses stay satisfied and the cursor only
     moves downward; any backtrack, learn or stack reshuffle resets it
     to the top. *)
  mutable assign_epoch : int;
  (* Bumped on every assignment change (enqueue or backtrack);
     versions the nb_two memo below. *)
  mutable nb_memo : int array;  (* per literal: memoized currently-binary degree *)
  mutable nb_memo_epoch : int array;  (* assign_epoch at which nb_memo was computed *)
  mutable var_act : float array;
  mutable lit_act : int array;  (* symmetrization counters, never decayed *)
  mutable vsids : float array;  (* Chaff-baseline literal scores, decayed *)
  mutable saved_phase : Value.t array;
      (* last value each variable was assigned, recorded only when
         [Config.phase_saving] is on; [Unassigned] = never assigned *)
  mutable seen : bool array;
  mutable level_stamp : int array;
      (* per decision level: the [glue_stamp] of the last conflict
         whose learnt clause had a literal at that level *)
  mutable glue_stamp : int;
  mutable assumptions : Lit.t array;  (* active only inside [solve ~assumps] *)
  mutable last_core : Lit.t list option;
      (* failed-assumption core of the most recent [solve ~assumps] that
         came back UNSAT; [None] after any other outcome *)
  mutable old_threshold : int;
  mutable restart_epoch : int;
  mutable conflicts_at_restart : int;
  mutable last_var_decay : int;
  mutable last_vsids_decay : int;
  mutable proof : (Drup.event -> unit) option;
  mutable on_decision : (int -> bool -> unit) option;
  mutable on_learn : (glue:int -> Lit.t array -> unit) option;
      (* fires once per learnt clause (units included) with its
         learn-time glue; the portfolio export path lives behind it *)
  mutable on_minimize : (before:Lit.t array -> after:Lit.t array -> unit) option;
      (* fires once per conflict with the 1-UIP clause before and
         after ccmin (asserting literal first in both; identical when
         minimization is off); the ccmin invariant tests live behind it *)
  mutable import_source : (unit -> (int * Lit.t array) list) option;
      (* polled at every restart, at decision level 0: foreign learnt
         clauses as (glue, lits), adopted via [import_clause] *)
  import_seen : (string, unit) Hashtbl.t;
      (* canonical keys of clauses already imported: double imports
         (the same clause relayed again, or learnt by two workers)
         must land at most once *)
  learnt_glue : Ivec.t;
      (* learn-time glue of each clause on the [learnt] stack, index
         for index — kept in lockstep by learning, import and DB
         reduction (GC preserves stack order, so relocation never
         perturbs it) *)
  mutable verdict : result option;
  mutable eliminated : bool array;
      (* variables removed by bounded variable elimination: never
         decided on, never re-assigned; their model values come from
         the reconstruction stack below *)
  mutable elim_stack : Berkmin_simplify.Engine.elim_entry list;
      (* model-reconstruction entries, newest elimination first — the
         replay order {!Berkmin_simplify.Recon.extend} expects *)
  mutable simplify_pre_done : bool;
      (* the pre-search simplification pass runs once per solver *)
  mutable ok : bool;  (* false once a top-level conflict is found *)
}

let stats s = s.stats
let trace s = s.tracer
let set_trace_sink s sink = Trace.set_sink s.tracer sink
let close_trace s = Trace.close s.tracer
let num_vars s = s.nvars
let num_original_clauses s = s.n_original
let num_learnt_live s = Ivec.length s.learnt
let old_activity_threshold s = s.old_threshold
let set_proof_logger s f = s.proof <- Some f
let set_decision_hook s f = s.on_decision <- Some f
let set_learn_hook s f = s.on_learn <- Some f
let set_minimize_hook s f = s.on_minimize <- Some f
let set_import_source s f = s.import_source <- Some f
let glue_of_learnt s i = Ivec.get s.learnt_glue i
let value_of s v = s.vals.(Lit.pos v)
let arena_bytes s = Arena.bytes s.arena
let arena_wasted_bytes s = Arena.wasted_bytes s.arena
let num_binary_entries s = Binary.num_entries s.binary

(* Events are built only when a logger is attached: without one, a
   learnt or deleted clause is neither copied nor sorted. *)
let log_add s lits =
  match s.proof with
  | None -> ()
  | Some f -> f (Drup.Add (Clause.of_array lits))

let log_delete s c =
  match s.proof with
  | None -> ()
  | Some f -> f (Drup.Delete (Clause.of_array (Arena.lits_array s.arena c)))

let decision_level s = Ivec.length s.trail_lim

let lit_value s l = s.vals.(l)

let enqueue s l reason =
  let v = Lit.var l in
  assert (s.vals.(l) = Value.Unassigned);
  s.assign_epoch <- s.assign_epoch + 1;
  s.vals.(l) <- Value.True;
  s.vals.(Lit.negate l) <- Value.False;
  (* Phase saving records at assignment time: the value cannot change
     while assigned, so this equals the classic save-on-backtrack. *)
  if s.cfg.Config.phase_saving then s.saved_phase.(v) <- s.vals.(Lit.pos v);
  let dl = decision_level s in
  s.level.(v) <- dl;
  (* Level-0 reasons are never consulted by conflict analysis and would
     pin clauses against deletion, so they are dropped. *)
  s.reason.(v) <- (if dl = 0 then Arena.cref_undef else reason);
  (* Every level-0 fact goes to the proof as a unit clause the moment
     it is derived (RUP: its support is still in the database here).
     Reduction and simplification may later delete that support —
     the dropped reason above no longer pins it — and the logged unit
     keeps the fact alive for the checker.  Duplicates (learnt/imported
     units log their own Add) are harmless — the checker counts
     multiplicity. *)
  if dl = 0 && s.proof <> None then log_add s [| l |];
  Ivec.push s.trail l

let unassign s l =
  let v = Lit.var l in
  s.vals.(l) <- Value.Unassigned;
  s.vals.(Lit.negate l) <- Value.Unassigned;
  s.reason.(v) <- Arena.cref_undef

let backtrack s lvl =
  if decision_level s > lvl then begin
    let limit = Ivec.get s.trail_lim lvl in
    for i = Ivec.length s.trail - 1 downto limit do
      unassign s (Ivec.get s.trail i)
    done;
    Ivec.shrink s.trail limit;
    Ivec.shrink s.trail_lim lvl;
    s.qhead <- limit;
    s.bin_qhead <- limit;
    s.assign_epoch <- s.assign_epoch + 1;
    (* Unassignments can desatisfy clauses above the cached top-clause
       cursor; repair lazily by resetting it to the stack top. *)
    s.top_cursor <- Ivec.length s.learnt - 1
  end

let attach s c =
  let l0 = Arena.lit s.arena c 0 and l1 = Arena.lit s.arena c 1 in
  (* Each watcher carries the other watch as its initial blocker. *)
  let w0 = s.watches.(l0) in
  Ivec.push w0 l1;
  Ivec.push w0 c;
  let w1 = s.watches.(l1) in
  Ivec.push w1 l0;
  Ivec.push w1 c

(* ------------------------------------------------------------------ *)
(* Clause intake.

   Every clause enters the database through [store].  What happens
   before it is each caller's policy:
   - construction ([create], [load]) normalizes ([load_clause]) and
     never filters at the root: units are enqueued but not yet
     propagated, and watches are attached in one pass at the end;
   - [add_clause] and [import_clause] normalize, then [root_filter]
     against the level-0 assignment, and an empty remainder makes the
     formula UNSAT;
   - [record_learnt] stores the conflict clause exactly as analysis
     ordered it (asserting literal first, backjump literal second);
   - [simplify_now] stores the simplifier's output unwatched and
     rebuilds the watches afterwards. *)

(* Sort, dedup and tautology-check [lits.(0) .. lits.(n - 1)] in place:
   the normalization [Clause.of_array] applies.  Returns the length of
   the normalized prefix, or [-1] for a tautology.  Clauses are short;
   insertion sort wins below ~32 literals and degenerate wide clauses
   fall back to [Array.sort] on a copy. *)
let normalize lits n =
  if n > 32 then begin
    let sub = Array.sub lits 0 n in
    Array.sort Int.compare sub;
    Array.blit sub 0 lits 0 n
  end
  else
    for i = 1 to n - 1 do
      let x = lits.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && lits.(!j) > x do
        lits.(!j + 1) <- lits.(!j);
        decr j
      done;
      lits.(!j + 1) <- x
    done;
  (* Sorted packed literals put the two phases of a variable next to
     each other, so a tautology shows as adjacent distinct literals of
     one variable. *)
  let m = ref (if n > 0 then 1 else 0) in
  let tautology = ref false in
  for i = 1 to n - 1 do
    let l = lits.(i) and prev = lits.(!m - 1) in
    if l <> prev then begin
      if Lit.var l = Lit.var prev then tautology := true;
      lits.(!m) <- l;
      incr m
    end
  done;
  if !tautology then -1 else !m

(* The root filter for clauses arriving between solves, at decision
   level 0.  Returns [-1] when a literal is already true there (the
   clause is satisfied for good); otherwise squeezes the literals false
   at level 0 out of [lits.(0) .. lits.(m - 1)], order kept, and
   returns the surviving length.  Those literals are false forever, so
   the clause keeps its meaning; left in, one could take a watch that
   BCP never revisits, since the level-0 trail may already be
   propagated. *)
let root_filter s lits m =
  let rec satisfied i =
    i < m && (lit_value s lits.(i) = Value.True || satisfied (i + 1))
  in
  if satisfied 0 then -1
  else begin
    let k = ref 0 in
    for i = 0 to m - 1 do
      let l = lits.(i) in
      if lit_value s l <> Value.False then begin
        lits.(!k) <- l;
        incr k
      end
    done;
    !k
  end

(* Store the clause [lits.(0) .. lits.(len - 1)] ([len >= 2]): allocate
   it in the arena, push it on the original list or on the learnt stack
   with its [glue], put it in the binary index when it has two
   literals, attach its watches when it is longer and [watch] is set,
   and update the size statistics ([glue] is ignored for originals).
   Neither [glue] nor [imported] is rewrapped in an option on the way:
   that would allocate once per learnt or loaded clause. *)
let store s ?imported ~learnt ~glue ~watch lits len =
  let c = Arena.alloc_sub ?imported s.arena ~learnt lits ~len in
  if learnt then begin
    Ivec.push s.learnt c;
    Ivec.push s.learnt_glue glue;
    (* The new clause tops the stack, so the top-clause cursor must
       restart from it. *)
    s.top_cursor <- Ivec.length s.learnt - 1;
    if Ivec.length s.learnt > s.stats.max_learnt_live then
      s.stats.max_learnt_live <- Ivec.length s.learnt
  end
  else Ivec.push s.original c;
  if len = 2 then Binary.add s.binary ~cref:c lits.(0) lits.(1)
  else if watch then attach s c;
  s.stats.arena_bytes <- Arena.bytes s.arena;
  Stats.note_live_clauses s.stats (s.n_original + Ivec.length s.learnt);
  c

(* Construction-time intake of one original clause, for [create] and
   [load] alike.  The clause is stored unwatched: construction attaches
   every watch in one pass once the last clause is in. *)
let load_clause s lits n =
  let m = normalize lits n in
  if m >= 0 then begin
    s.n_original <- s.n_original + 1;
    match m with
    | 0 -> s.ok <- false
    | 1 -> (
      match lit_value s lits.(0) with
      | Value.True -> ()
      | Value.False -> s.ok <- false
      | Value.Unassigned -> enqueue s lits.(0) Arena.cref_undef)
    | _ -> ignore (store s ~learnt:false ~glue:0 ~watch:false lits m)
  end

(* ------------------------------------------------------------------ *)
(* Boolean constraint propagation.

   Binary clauses first: the implications of every assigned literal
   are drained straight out of the {!Binary} packed per-literal
   arrays — the implied literal and the reason cref sit side by side
   in one flat int vector, so this inner loop performs no arena
   reads, no watch-list surgery and no allocation.  [bin_qhead] runs
   ahead of [qhead]: all binary consequences (including those of
   literals the binary drain itself enqueues) are known before any
   long-clause watcher is inspected.

   Long clauses then go through the classic two-watched-literal
   scheme with blocker-literal short-circuiting.  Returns the
   conflicting cref, or [Arena.cref_undef].

   The watch list of the falsified literal is compacted in place with
   two cursors: kept watchers are copied down to [j]; watchers whose
   clause found a replacement watch are dropped (the replacement was
   pushed onto another list).  Deleted clauses never appear here —
   deletion happens only at level 0, where the reduce/GC path clears
   and rebuilds every list — so the hot loop carries no deleted
   check. *)

let propagate s =
  let conflict = ref Arena.cref_undef in
  let ar = s.arena in
  let visits = ref 0 in
  let hits = ref 0 in
  let bin_props = ref 0 in
  (* [bin_qhead >= qhead] always: both reset to the same trail limit on
     backtrack, and the binary drain runs to the trail end before each
     long-clause step.  The outer loop therefore keys on [qhead]. *)
  while !conflict = Arena.cref_undef && s.qhead < Ivec.length s.trail do
    (* Saturate the binary layer before the next long-clause literal. *)
    while !conflict = Arena.cref_undef && s.bin_qhead < Ivec.length s.trail do
      let p = Ivec.get s.trail s.bin_qhead in
      s.bin_qhead <- s.bin_qhead + 1;
      let bs = Binary.implications s.binary p in
      let n = Ivec.length bs in
      let i = ref 0 in
      while !conflict = Arena.cref_undef && !i < n do
        let u = Ivec.get bs !i in
        (match lit_value s u with
        | Value.True -> ()
        | Value.Unassigned ->
          incr bin_props;
          enqueue s u (Ivec.get bs (!i + 1));
          if s.tracer.Trace.active then
            Trace.emit s.tracer
              (Trace.Propagate { level = decision_level s; lit = u })
        | Value.False ->
          s.stats.binary_conflicts <- s.stats.binary_conflicts + 1;
          conflict := Ivec.get bs (!i + 1));
        i := !i + 2
      done
    done;
    if !conflict = Arena.cref_undef then begin
    let p = Ivec.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.stats.propagations <- s.stats.propagations + 1;
    let false_lit = Lit.negate p in
    let ws = s.watches.(false_lit) in
    let n = Ivec.length ws in
    let i = ref 0 in
    let j = ref 0 in
    while !i < n do
      let blocker = Ivec.get ws !i in
      let c = Ivec.get ws (!i + 1) in
      incr visits;
      if lit_value s blocker = Value.True then begin
        (* Satisfied: keep the watcher without touching the arena. *)
        incr hits;
        Ivec.set ws !j blocker;
        Ivec.set ws (!j + 1) c;
        j := !j + 2;
        i := !i + 2
      end
      else begin
        let data = ar.Arena.data in
        let base = c + Arena.lits_offset in
        (* Ensure the falsified watch sits at index 1. *)
        if data.(base) = false_lit then begin
          data.(base) <- data.(base + 1);
          data.(base + 1) <- false_lit
        end;
        i := !i + 2;
        let first = data.(base) in
        if first <> blocker && lit_value s first = Value.True then begin
          (* Satisfied by the other watch: keep, with a better blocker. *)
          Ivec.set ws !j first;
          Ivec.set ws (!j + 1) c;
          j := !j + 2
        end
        else begin
          (* Look for a replacement watch among the tail literals. *)
          let sz = Arena.clause_size ar c in
          let k = ref 2 in
          while !k < sz && lit_value s data.(base + !k) = Value.False do
            incr k
          done;
          if !k < sz then begin
            (* Found one: move it into slot 1 and migrate the watcher. *)
            data.(base + 1) <- data.(base + !k);
            data.(base + !k) <- false_lit;
            let wl = s.watches.(data.(base + 1)) in
            Ivec.push wl first;
            Ivec.push wl c
          end
          else begin
            (* Unit or conflicting: the watcher stays. *)
            Ivec.set ws !j first;
            Ivec.set ws (!j + 1) c;
            j := !j + 2;
            match lit_value s first with
            | Value.False ->
              conflict := c;
              (* Copy the remaining watchers before bailing out. *)
              while !i < n do
                Ivec.set ws !j (Ivec.get ws !i);
                Ivec.set ws (!j + 1) (Ivec.get ws (!i + 1));
                i := !i + 2;
                j := !j + 2
              done
            | Value.Unassigned ->
              enqueue s first c;
              if s.tracer.Trace.active then
                Trace.emit s.tracer
                  (Trace.Propagate { level = decision_level s; lit = first })
            | Value.True -> assert false
          end
        end
      end
    done;
    Ivec.shrink ws !j
    end
  done;
  s.stats.watcher_visits <- s.stats.watcher_visits + !visits;
  s.stats.blocker_hits <- s.stats.blocker_hits + !hits;
  s.stats.binary_propagations <- s.stats.binary_propagations + !bin_props;
  !conflict

(* ------------------------------------------------------------------ *)
(* Activity bookkeeping.                                               *)

let rescale_limit = 1e100

let bump_var s v =
  s.var_act.(v) <- s.var_act.(v) +. 1.0;
  if s.var_act.(v) > rescale_limit then
    for u = 0 to s.nvars - 1 do
      s.var_act.(u) <- s.var_act.(u) *. 1e-100
    done

let bump_vsids s l =
  s.vsids.(l) <- s.vsids.(l) +. 1.0;
  if s.vsids.(l) > rescale_limit then
    for m = 0 to (2 * s.nvars) - 1 do
      s.vsids.(m) <- s.vsids.(m) *. 1e-100
    done

(* Chaff's VSIDS (Moskewicz et al., DAC 2001) periodically divides
   every literal score by a constant, so recent conflicts dominate; the
   Chaff baseline halves its scores every 100 conflicts. *)
let vsids_decay_interval = 100
let vsids_decay_factor = 2.0

let maybe_decay s =
  let c = s.stats.conflicts in
  if s.cfg.var_decay_interval > 0 && c - s.last_var_decay >= s.cfg.var_decay_interval
  then begin
    s.last_var_decay <- c;
    let f = 1.0 /. s.cfg.var_decay_factor in
    for v = 0 to s.nvars - 1 do
      s.var_act.(v) <- s.var_act.(v) *. f
    done
  end;
  if c - s.last_vsids_decay >= vsids_decay_interval then begin
    s.last_vsids_decay <- c;
    let f = 1.0 /. vsids_decay_factor in
    for l = 0 to (2 * s.nvars) - 1 do
      s.vsids.(l) <- s.vsids.(l) *. f
    done
  end

(* ------------------------------------------------------------------ *)
(* Conflict analysis: first unique implication point.                  *)

(* Returns the learnt literals (asserting literal first) and the
   backtrack level.  Along the way updates clause activities and, per
   the configured [activity_mode], variable activities — the paper's
   "sensitivity" novelty is the [Responsible_clauses] branch, which
   bumps every variable occurrence of every clause responsible for the
   conflict, not only the learnt clause's variables (Section 4). *)
let analyze s (confl : Arena.cref) =
  let ar = s.arena in
  let dl = decision_level s in
  let learnt = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let idx = ref (Ivec.length s.trail - 1) in
  let c = ref confl in
  let continue = ref true in
  while !continue do
    let cref = !c in
    if Arena.is_learnt ar cref then Arena.bump_activity ar cref;
    if Arena.is_imported ar cref then
      s.stats.imports_used_in_conflict <- s.stats.imports_used_in_conflict + 1;
    (match s.cfg.activity_mode with
    | Config.Responsible_clauses ->
      Arena.iter_lits ar cref (fun q -> bump_var s (Lit.var q))
    | Config.Conflict_clause_only -> ());
    (* Skip the implied literal by variable, not by slot: binary
       reasons come from the implication index and make no promise
       about which slot holds the implied literal. *)
    let pv = if !p = -1 then -1 else Lit.var !p in
    let sz = Arena.clause_size ar cref in
    for j = 0 to sz - 1 do
      let q = Arena.lit ar cref j in
      let v = Lit.var q in
      if v <> pv && (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        if s.level.(v) >= dl then incr counter else learnt := q :: !learnt
      end
    done;
    (* Walk the trail back to the next marked literal of this level. *)
    let rec next_marked () =
      let l = Ivec.get s.trail !idx in
      decr idx;
      if s.seen.(Lit.var l) then l else next_marked ()
    in
    let l = next_marked () in
    s.seen.(Lit.var l) <- false;
    decr counter;
    p := l;
    if !counter = 0 then continue := false
    else begin
      let r = s.reason.(Lit.var l) in
      assert (r <> Arena.cref_undef);  (* only the UIP can lack a reason *)
      c := r
    end
  done;
  let asserting = Lit.negate !p in
  (* Optional conflict-clause minimization (a post-2002 extension, off
     in the paper's configuration): a learnt literal is redundant when
     its reason clause is subsumed by the rest of the learnt clause
     plus top-level facts.  The [seen] marks — still set for exactly
     the non-asserting learnt variables — encode membership.  The deep
     mode (MiniSat's litRedundant) additionally follows implication
     chains through reasons: a reason literal outside the clause is
     harmless when it is itself recursively redundant.  Reasons point
     strictly backward along the trail, so the recursion is on a DAG
     and per-conflict memoization is sound.  Either way the survivor
     clause is reachable by further resolutions against reason clauses,
     hence still implied and DRUP-sound. *)
  let kept =
    match s.cfg.ccmin_mode with
    | Config.Ccmin_off -> !learnt
    | (Config.Ccmin_basic | Config.Ccmin_deep) as mode ->
      let deep = mode = Config.Ccmin_deep in
      let memo : (int, bool) Hashtbl.t = Hashtbl.create 16 in
      let rec redundant q =
        let v = Lit.var q in
        let r = s.reason.(v) in
        r <> Arena.cref_undef
        && Arena.for_all_lits ar r (fun p ->
               let u = Lit.var p in
               u = v
               || s.seen.(u)
               || s.level.(u) = 0
               || (deep && memo_redundant p))
      and memo_redundant p =
        let u = Lit.var p in
        match Hashtbl.find_opt memo u with
        | Some b -> b
        | None ->
          let b = redundant p in
          Hashtbl.add memo u b;
          b
      in
      let kept = List.filter (fun q -> not (redundant q)) !learnt in
      s.stats.minimized_literals <-
        s.stats.minimized_literals
        + (List.length !learnt - List.length kept);
      kept
  in
  (match s.on_minimize with
  | Some f ->
    f
      ~before:(Array.of_list (asserting :: !learnt))
      ~after:(Array.of_list (asserting :: kept))
  | None -> ());
  let lits = Array.of_list (asserting :: kept) in
  (* Reset the [seen] marks of the surviving literals. *)
  List.iter (fun q -> s.seen.(Lit.var q) <- false) !learnt;
  (* Chaff-style activity: only the learnt clause's variables. *)
  (match s.cfg.activity_mode with
  | Config.Conflict_clause_only ->
    Array.iter (fun q -> bump_var s (Lit.var q)) lits
  | Config.Responsible_clauses -> ());
  (* VSIDS literal scores for the Chaff baseline, and the permanent
     lit_activity counters driving database symmetrization (Section 7),
     are bumped on every learnt clause regardless of mode. *)
  Array.iter
    (fun q ->
      bump_vsids s q;
      s.lit_act.(q) <- s.lit_act.(q) + 1)
    lits;
  (* Backtrack level: highest level below [dl] among learnt literals,
     with the corresponding literal moved to watch position 1. *)
  let bt = ref 0 in
  for j = 1 to Array.length lits - 1 do
    if s.level.(Lit.var lits.(j)) > !bt then bt := s.level.(Lit.var lits.(j))
  done;
  if Array.length lits > 1 then begin
    let best = ref 1 in
    for j = 2 to Array.length lits - 1 do
      if s.level.(Lit.var lits.(j)) > s.level.(Lit.var lits.(!best)) then best := j
    done;
    let tmp = lits.(1) in
    lits.(1) <- lits.(!best);
    lits.(!best) <- tmp
  end;
  (* Glue (LBD): distinct decision levels among the learnt literals,
     measured now — before backtracking invalidates the levels.  Low
     glue marks clauses that link few search levels, the quality
     signal the portfolio export filter keys on.  One pass: a level
     counts the first time it is stamped with this conflict's
     [glue_stamp]. *)
  let glue =
    if dl >= Array.length s.level_stamp then
      s.level_stamp <- Array.make (2 * dl) 0;
    s.glue_stamp <- s.glue_stamp + 1;
    let d = ref 0 in
    for j = 0 to Array.length lits - 1 do
      let lv = s.level.(Lit.var lits.(j)) in
      if s.level_stamp.(lv) <> s.glue_stamp then begin
        s.level_stamp.(lv) <- s.glue_stamp;
        incr d
      end
    done;
    !d
  in
  (lits, !bt, glue)

let record_learnt s ~glue lits =
  s.stats.learnt_total <- s.stats.learnt_total + 1;
  s.stats.learnt_literals <- s.stats.learnt_literals + Array.length lits;
  log_add s lits;
  if Array.length lits = 1 then
    (* Unit conflict clause: becomes a retained top-level assignment
       rather than a stored clause (Section 8). *)
    enqueue s lits.(0) Arena.cref_undef
  else
    enqueue s lits.(0)
      (store s ~learnt:true ~glue ~watch:true lits (Array.length lits));
  match s.on_learn with
  | Some f -> f ~glue lits
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Arena compaction.                                                   *)

(* Copy every live clause into a fresh arena and swap it in, following
   the forwarding-pointer protocol of {!Arena.reloc}.  Every
   outstanding cref — watch lists, trail reasons, learnt stack,
   original list, binary implication index — is rewritten to the clause's new
   address; dead watchers (a deleted clause can linger in a watch list
   only if the caller compacts without rebuilding) are dropped. *)
let gc s =
  let ar = s.arena in
  let before = Arena.bytes ar in
  let reclaimed = Arena.wasted_bytes ar in
  let into = Arena.create ~capacity:(max (Arena.live_words ar) 16) () in
  Array.iter
    (fun ws ->
      let n = Ivec.length ws in
      let i = ref 0 in
      let j = ref 0 in
      while !i < n do
        let b = Ivec.get ws !i in
        let c = Ivec.get ws (!i + 1) in
        if not (Arena.is_deleted ar c) then begin
          Ivec.set ws !j b;
          Ivec.set ws (!j + 1) (Arena.reloc ar ~into c);
          j := !j + 2
        end;
        i := !i + 2
      done;
      Ivec.shrink ws !j)
    s.watches;
  for i = 0 to Ivec.length s.trail - 1 do
    let v = Lit.var (Ivec.get s.trail i) in
    let r = s.reason.(v) in
    if r <> Arena.cref_undef then s.reason.(v) <- Arena.reloc ar ~into r
  done;
  for i = 0 to Ivec.length s.learnt - 1 do
    Ivec.set s.learnt i (Arena.reloc ar ~into (Ivec.get s.learnt i))
  done;
  for i = 0 to Ivec.length s.original - 1 do
    Ivec.set s.original i (Arena.reloc ar ~into (Ivec.get s.original i))
  done;
  Binary.filter_reloc s.binary
    ~dead:(fun c -> Arena.is_deleted ar c)
    ~reloc:(fun c -> Arena.reloc ar ~into c);
  Arena.commit ar ~into;
  s.stats.gc_runs <- s.stats.gc_runs + 1;
  s.stats.gc_reclaimed_bytes <- s.stats.gc_reclaimed_bytes + reclaimed;
  s.stats.arena_bytes <- Arena.bytes ar;
  if s.tracer.Trace.active then
    Trace.emit s.tracer
      (Trace.Gc
         {
           reclaimed_bytes = reclaimed;
           arena_bytes_before = before;
           arena_bytes_after = Arena.bytes ar;
         })

let compact = gc

(* ------------------------------------------------------------------ *)
(* Clause database management (Section 8).                             *)

let satisfied_at_level0 s c =
  Arena.exists_lit s.arena c (fun l ->
      s.level.(Lit.var l) = 0 && lit_value s l = Value.True)

(* Section 8: a young clause that is not short survives a reduction
   only while its activity exceeds 7. *)
let young_keep_activity = 7

(* Decide which live learnt clauses survive a reduction.  Called at
   decision level 0 only. *)
let reduction_keeps s =
  let ar = s.arena in
  let n = Ivec.length s.learnt in
  let keep = Array.make n true in
  (match s.cfg.reduction_mode with
  | Config.Keep_all -> ()
  | Config.Length_limit limit ->
    Ivec.iteri
      (fun i c ->
        if satisfied_at_level0 s c then keep.(i) <- false
        else if Arena.clause_size ar c > limit then keep.(i) <- false)
      s.learnt
  | Config.Glue_lbd limit ->
    (* Glucose-style: the learn-time glue (LBD) recorded in
       [learnt_glue] is the quality signal.  Glue clauses (glue at or
       below the limit) are kept unconditionally; the rest survive
       only while young, judged by the same age band as the paper's
       scheme. *)
    let n = Ivec.length s.learnt in
    let young_band = s.cfg.young_fraction *. float_of_int n in
    Ivec.iteri
      (fun i c ->
        if i = n - 1 then keep.(i) <- true
          (* the topmost clause is never removed: anti-looping *)
        else if satisfied_at_level0 s c then keep.(i) <- false
        else if Ivec.get s.learnt_glue i <= limit then begin
          keep.(i) <- true;
          s.stats.glue_reduction_kept <- s.stats.glue_reduction_kept + 1
        end
        else begin
          let distance = n - 1 - i in
          let young = float_of_int distance < young_band in
          keep.(i) <- young;
          if not young then
            s.stats.glue_reduction_dropped <-
              s.stats.glue_reduction_dropped + 1
        end)
      s.learnt
  | Config.Berkmin_age_activity ->
    let young_band = s.cfg.young_fraction *. float_of_int n in
    Ivec.iteri
      (fun i c ->
        if i = n - 1 then keep.(i) <- true
          (* the topmost clause is never removed: anti-looping *)
        else if satisfied_at_level0 s c then keep.(i) <- false
        else begin
          let distance = n - 1 - i in
          let young = float_of_int distance < young_band in
          let len = Arena.clause_size ar c in
          let act = Arena.activity ar c in
          keep.(i) <-
            (if young then
               len < s.cfg.young_keep_length || act > young_keep_activity
             else len < s.cfg.old_keep_length || act > s.old_threshold)
        end)
      s.learnt);
  keep

(* Rebuild every watch list from scratch, re-establishing the invariant
   that watched literals are non-false at level 0.  The paper notes that
   BerkMin recomputes its data structures after reductions; doing a full
   rebuild also keeps the propagation invariants simple to audit.

   Clauses already satisfied at level 0 are left unattached: the
   satisfying literal is permanent, so the clause can never propagate
   again.  (Attaching them instead would demand a second non-false
   watch, which a clause with one true and otherwise false literals
   does not have.) *)
let rebuild_watches s =
  assert (decision_level s = 0);
  Array.iter Ivec.clear s.watches;
  let ar = s.arena in
  let reattach c =
    (* Binary clauses live in the implication index, never in watch
       lists; their level-0 consequences were drained when their
       source literals propagated, so there is nothing to re-derive
       here. *)
    if (not (Arena.is_deleted ar c)) && Arena.clause_size ar c > 2 then begin
      if Arena.exists_lit ar c (fun l -> lit_value s l = Value.True) then ()
      else begin
        let n = Arena.clause_size ar c in
        (* Pull up to two non-false literals into the watch slots. *)
        let found = ref 0 in
        (try
           for j = 0 to n - 1 do
             if lit_value s (Arena.lit ar c j) <> Value.False then begin
               Arena.swap_lits ar c !found j;
               incr found;
               if !found = 2 then raise Exit
             end
           done
         with Exit -> ());
        match !found with
        | 0 -> s.ok <- false (* clause falsified at level 0 *)
        | 1 ->
          (* One non-false literal in an unsatisfied clause: it is
             unassigned, and every other literal is permanently false —
             enqueue it as a top-level fact and leave the clause
             unattached. *)
          enqueue s (Arena.lit ar c 0) Arena.cref_undef
        | _ -> attach s c
      end
    end
  in
  Ivec.iter reattach s.original;
  Ivec.iter reattach s.learnt

let reduce_db s =
  if s.cfg.reduction_mode <> Config.Keep_all then begin
    let t0 = if s.cfg.profile_timers then Sys.time () else 0.0 in
    s.stats.reductions <- s.stats.reductions + 1;
    let live_before = Ivec.length s.learnt in
    let glue_kept0 = s.stats.glue_reduction_kept in
    let glue_dropped0 = s.stats.glue_reduction_dropped in
    let keep = reduction_keeps s in
    let removed = ref 0 in
    Ivec.iteri
      (fun i c ->
        if not keep.(i) then begin
          incr removed;
          log_delete s c;
          Arena.free s.arena c
        end)
      s.learnt;
    if !removed > 0 then begin
      s.stats.removed_clauses <- s.stats.removed_clauses + !removed;
      (* Compact the learnt stack and its parallel glue table in
         lockstep (order preserved, matching [Ivec.filter_in_place]). *)
      let j = ref 0 in
      Ivec.iteri
        (fun i c ->
          if not (Arena.is_deleted s.arena c) then begin
            Ivec.set s.learnt !j c;
            Ivec.set s.learnt_glue !j (Ivec.get s.learnt_glue i);
            incr j
          end)
        s.learnt;
      Ivec.shrink s.learnt !j;
      Ivec.shrink s.learnt_glue !j;
      (* Indices shifted: restart the top-clause cursor from the new
         stack top. *)
      s.top_cursor <- Ivec.length s.learnt - 1;
      (* Watches are about to be rebuilt; clearing them first keeps the
         GC's watcher pass trivial. *)
      Array.iter Ivec.clear s.watches;
      gc s;
      rebuild_watches s
    end;
    if s.tracer.Trace.active then
      Trace.emit s.tracer
        (Trace.Reduce_db
           {
             live_before;
             removed = !removed;
             threshold = s.old_threshold;
             glue_kept = s.stats.glue_reduction_kept - glue_kept0;
             glue_dropped = s.stats.glue_reduction_dropped - glue_dropped0;
           });
    if s.cfg.reduction_mode = Config.Berkmin_age_activity then
      s.old_threshold <- s.old_threshold + s.cfg.old_threshold_increment;
    if s.cfg.profile_timers then
      s.stats.time_reduce <- s.stats.time_reduce +. (Sys.time () -. t0)
  end

(* ------------------------------------------------------------------ *)
(* Clause-database simplification (subsumption, self-subsuming
   resolution, bounded variable elimination, failed-literal probing).
   The combinatorics live in {!Berkmin_simplify.Engine}; this function
   shuttles the arena out and back.                                    *)

module Simp = Berkmin_simplify.Engine

(* Run one simplification pass at decision level 0 and rebuild the
   clause database from the outcome.

   Proof discipline: the engine emits every derived clause before the
   deletions it justifies, but its deletions may target clauses whose
   level-0 units entered the trail before a proof logger was attached
   (original unit clauses, say).  Re-asserting the whole level-0 trail
   as unit Adds first — each is RUP against the still-intact database —
   makes the units permanent for the checker, so no later deletion can
   orphan them.  Duplicates are harmless: the checker counts
   multiplicity. *)
let simplify_now s =
  assert (decision_level s = 0);
  if s.ok then begin
    let confl = propagate s in
    if confl <> Arena.cref_undef then begin
      s.stats.conflicts <- s.stats.conflicts + 1;
      s.ok <- false
    end
    else begin
      let ar = s.arena in
      let n_orig = Ivec.length s.original in
      let n_learnt = Ivec.length s.learnt in
      let clauses_before = n_orig + n_learnt in
      if s.proof <> None then
        Ivec.iter (fun l -> log_add s [| l |]) s.trail;
      (* Learnt-clause metadata survives the round trip via the tag:
         clause [n_orig + i] carries glue [meta_glue.(i)]. *)
      let meta_glue = Array.make (max n_learnt 1) 0 in
      let meta_imported = Array.make (max n_learnt 1) false in
      let input = ref [] in
      for i = n_learnt - 1 downto 0 do
        let c = Ivec.get s.learnt i in
        meta_glue.(i) <- Ivec.get s.learnt_glue i;
        meta_imported.(i) <- Arena.is_imported ar c;
        input :=
          { Simp.lits = Arena.lits_array ar c;
            tag = n_orig + i;
            redundant = true }
          :: !input
      done;
      for i = n_orig - 1 downto 0 do
        input :=
          { Simp.lits = Arena.lits_array ar (Ivec.get s.original i);
            tag = i;
            redundant = false }
          :: !input
      done;
      let frozen v = Array.exists (fun l -> Lit.var l = v) s.assumptions in
      let roots = ref [] in
      for i = Ivec.length s.trail - 1 downto 0 do
        roots := Ivec.get s.trail i :: !roots
      done;
      let opts = { Simp.default_opts with bve_growth = s.cfg.simplify_growth } in
      let out =
        Simp.run ~opts ?proof:s.proof ~nvars:s.nvars ~frozen ~roots:!roots
          !input
      in
      let st = out.Simp.st in
      s.stats.simplify_runs <- s.stats.simplify_runs + 1;
      s.stats.simplified_clauses <-
        s.stats.simplified_clauses + st.Simp.simplified_clauses;
      s.stats.eliminated_vars <-
        s.stats.eliminated_vars + st.Simp.eliminated_vars;
      s.stats.subsumed <- s.stats.subsumed + st.Simp.subsumed;
      s.stats.strengthened <- s.stats.strengthened + st.Simp.strengthened;
      s.stats.failed_literals <-
        s.stats.failed_literals + st.Simp.failed_literals;
      let changed =
        st.Simp.simplified_clauses > 0
        || st.Simp.strengthened > 0
        || st.Simp.eliminated_vars > 0
        || st.Simp.failed_literals > 0
        || out.Simp.units <> []
        || out.Simp.unsat
      in
      if changed then begin
        (* Rebuild the database from the outcome: every old cref dies,
           every survivor is re-allocated.  Level-0 reasons are all
           [cref_undef] (see [enqueue]), so nothing outside the vecs
           cleared here can hold a stale cref.  No extra deletion
           events: the engine already logged exactly what it dropped,
           and a re-allocated survivor has the same literals the
           checker's database entry has. *)
        Ivec.iter (fun c -> Arena.free ar c) s.original;
        Ivec.iter (fun c -> Arena.free ar c) s.learnt;
        Ivec.clear s.original;
        Ivec.clear s.learnt;
        Ivec.clear s.learnt_glue;
        Array.iter Ivec.clear s.watches;
        Binary.clear s.binary;
        List.iter
          (fun e -> s.eliminated.(e.Simp.var) <- true)
          out.Simp.eliminated;
        s.elim_stack <- out.Simp.eliminated @ s.elim_stack;
        let add_back ?imported ~learnt ~glue lits =
          ignore
            (store s ?imported ~learnt ~glue ~watch:false lits
               (Array.length lits))
        in
        List.iter
          (fun { Simp.lits; tag; redundant } ->
            if redundant then
              add_back ~learnt:true
                ~imported:meta_imported.(tag - n_orig)
                ~glue:meta_glue.(tag - n_orig) lits
            else
              (* [tag >= n_orig]: a learnt clause promoted to
                 irredundant by subsumption; it joins the originals and
                 leaves the reduction heuristics' reach. *)
              add_back ~learnt:false ~glue:0 lits)
          out.Simp.kept;
        List.iter
          (fun lits -> add_back ~learnt:false ~glue:0 lits)
          out.Simp.resolvents;
        List.iter
          (fun l ->
            match lit_value s l with
            | Value.True -> ()
            | Value.False -> s.ok <- false
            | Value.Unassigned -> enqueue s l Arena.cref_undef)
          out.Simp.units;
        if out.Simp.unsat then s.ok <- false;
        s.top_cursor <- Ivec.length s.learnt - 1;
        (* Compact away the freed clauses, then re-derive the watch
           invariant (long clauses attach; clauses satisfied by the new
           units stay unattached; single-survivor clauses enqueue). *)
        gc s;
        rebuild_watches s;
        (* [store] noted every clause that landed; this covers an
           outcome that kept none. *)
        Stats.note_live_clauses s.stats (s.n_original + Ivec.length s.learnt)
      end;
      if s.tracer.Trace.active then
        Trace.emit s.tracer
          (Trace.Simplify
             {
               rounds = st.Simp.rounds;
               subsumed = st.Simp.subsumed;
               strengthened = st.Simp.strengthened;
               eliminated_vars = st.Simp.eliminated_vars;
               failed_literals = st.Simp.failed_literals;
               clauses_before;
               clauses_after = Ivec.length s.original + Ivec.length s.learnt;
             })
    end
  end

(* ------------------------------------------------------------------ *)
(* Decision making (Sections 5–7).                                     *)

(* The current top clauses: the [top_window] unsatisfied learnt clauses
   closest to the top of the stack, newest first (the paper uses a
   window of 1; Remark 2 proposes examining a small set).  Each comes
   with its distance from the top — the skin-effect [r] of Table 3. *)

let clause_satisfied s c =
  Arena.exists_lit s.arena c (fun l -> lit_value s l = Value.True)

(* Scan the learnt stack downward from index [start]: the window of
   unsatisfied clauses (newest first, with stack distances) plus the
   index of the topmost unsatisfied clause, or [-1] when the whole
   suffix is satisfied. *)
let scan_top_clauses s start =
  let n = Ivec.length s.learnt in
  let window = max 1 s.cfg.top_window in
  let found = ref [] in
  let count = ref 0 in
  let steps = ref 0 in
  let first_unsat = ref (-1) in
  let i = ref start in
  while !count < window && !i >= 0 do
    incr steps;
    let c = Ivec.get s.learnt !i in
    if not (clause_satisfied s c) then begin
      if !first_unsat < 0 then first_unsat := !i;
      found := (c, n - 1 - !i) :: !found;
      incr count
    end;
    decr i
  done;
  (List.rev !found, !first_unsat, !steps)

(* Cursor-backed variant: between conflicts the trail only grows, so
   every clause the previous scan proved satisfied stays satisfied and
   the scan may resume at the cached [top_cursor] instead of the stack
   top.  Learning, backtracking and stack reshuffles reset the cursor
   (see {!backtrack} / {!record_learnt} / {!reduce_db}), making the
   skipped prefix sound by construction; {!top_cursor_violations}
   audits exactly that. *)
let find_top_clauses s =
  let n = Ivec.length s.learnt in
  if s.top_cursor >= n then s.top_cursor <- n - 1;
  let found, first_unsat, steps = scan_top_clauses s s.top_cursor in
  s.top_cursor <- first_unsat;
  s.stats.top_cursor_steps <- s.stats.top_cursor_steps + steps;
  found

(* Most active free variable: the linear scan the paper benchmarked
   (Remark 1).  BerkMin561's "strategy 3" heap makes the same picks; a
   measured copy gained no resolvable time and cost ~11% peak RSS on the
   incremental workload, so it is not kept. *)
let most_active_free_var s =
  let best = ref (-1) in
  let best_act = ref neg_infinity in
  for v = 0 to s.nvars - 1 do
    if
      lit_value s (Lit.pos v) = Value.Unassigned
      && (not s.eliminated.(v))
      && s.var_act.(v) > !best_act
    then begin
      best := v;
      best_act := s.var_act.(v)
    end
  done;
  if !best < 0 then None else Some !best

let best_vsids_literal s =
  let best = ref (-1) in
  let best_act = ref neg_infinity in
  for l = 0 to (2 * s.nvars) - 1 do
    if
      lit_value s l = Value.Unassigned
      && (not s.eliminated.(Lit.var l))
      && s.vsids.(l) > !best_act
    then begin
      best := l;
      best_act := s.vsids.(l)
    end
  done;
  if !best < 0 then None else Some !best

(* nb_two(l): the number of binary clauses containing l, plus, for each
   such clause (l v u), the number of binary clauses containing ¬u — a
   rough estimate of the BCP power of setting l to 0 (Section 7).  A
   stored 2-clause counts when both its literals are free under the
   current partial assignment (both free = unsatisfied), read straight
   off the static {!Binary} index: the entries under [¬l] are exactly
   the stored 2-clauses containing [l].  Computation stops once the
   count exceeds [nb_two_threshold].  Learnt 2-clauses in the index
   are harmless here — the heuristic runs only when every learnt
   clause is satisfied, and a satisfied clause fails the both-free
   test. *)

(* Currently-binary degree of [l], memoized per assignment epoch: the
   second-hop counts of [nb_two] revisit the same neighbour literals
   many times between two assignments, and the memo turns those
   revisits into one array read. *)
let bin_degree s l =
  if s.nb_memo_epoch.(l) = s.assign_epoch then begin
    s.stats.nb_two_cache_hits <- s.stats.nb_two_cache_hits + 1;
    s.nb_memo.(l)
  end
  else begin
    let count = ref 0 in
    if lit_value s l = Value.Unassigned then begin
      let bs = Binary.implications s.binary (Lit.negate l) in
      let n = Ivec.length bs in
      let i = ref 0 in
      while !i < n do
        if lit_value s (Ivec.get bs !i) = Value.Unassigned then incr count;
        i := !i + 2
      done
    end;
    s.nb_memo.(l) <- !count;
    s.nb_memo_epoch.(l) <- s.assign_epoch;
    !count
  end

(* Section 7: the paper stops computing nb_two at a threshold of 100. *)
let nb_two_threshold = 100

let nb_two s l =
  let total = ref 0 in
  if lit_value s l = Value.Unassigned then begin
    let bs = Binary.implications s.binary (Lit.negate l) in
    let n = Ivec.length bs in
    let i = ref 0 in
    while !total <= nb_two_threshold && !i < n do
      let u = Ivec.get bs !i in
      if lit_value s u = Value.Unassigned then
        total := !total + 1 + bin_degree s (Lit.negate u);
      i := !i + 2
    done
  end;
  !total

(* Database-symmetrization polarity (Section 7): explore first the
   branch that generates learnt clauses containing the globally rarer
   literal.  Exploring x=0 yields clauses containing the positive
   literal x, so choose 0 when lit_activity(x) < lit_activity(¬x). *)
let symmetrize_value s v =
  let ap = s.lit_act.(Lit.pos v) and an = s.lit_act.(Lit.neg_of v) in
  if ap < an then false else if ap > an then true else Rng.bool s.rng

let top_clause_value s v lit_in_clause =
  match s.cfg.polarity_mode with
  | Config.Symmetrize -> symmetrize_value s v
  | Config.Sat_top -> Lit.is_pos lit_in_clause
  | Config.Unsat_top -> not (Lit.is_pos lit_in_clause)
  | Config.Take_zero -> false
  | Config.Take_one -> true
  | Config.Take_random -> Rng.bool s.rng

let global_value s v =
  match s.cfg.global_polarity with
  | Config.Nb_two ->
    let np = nb_two s (Lit.pos v) and nn = nb_two s (Lit.neg_of v) in
    (* The literal with the larger neighbourhood is set to 0. *)
    if np > nn then false
    else if nn > np then true
    else if Rng.bool s.rng then true
    else false
  | Config.Gp_take_zero -> false

(* Pick the free variable of [c] with the highest var_activity, together
   with its literal in [c] (needed by the Sat_top/Unsat_top ablations). *)
let best_free_in_clause s c =
  let best = ref (-1) in
  let best_act = ref neg_infinity in
  Arena.iter_lits s.arena c (fun l ->
      if lit_value s l = Value.Unassigned then begin
        let v = Lit.var l in
        if s.var_act.(v) > !best_act then begin
          best_act := s.var_act.(v);
          best := l
        end
      end);
  if !best < 0 then None else Some !best

let global_decision s =
  match most_active_free_var s with
  | None -> None
  | Some v ->
    s.stats.global_decisions <- s.stats.global_decisions + 1;
    Some (v, global_value s v, Trace.D_global)

let pick_branch s =
  match s.cfg.decision_mode with
  | Config.Vsids_literal -> (
    match best_vsids_literal s with
    | None -> None
    | Some l ->
      s.stats.global_decisions <- s.stats.global_decisions + 1;
      Some (Lit.var l, Lit.is_pos l, Trace.D_global))
  | Config.Global_most_active -> (
    match most_active_free_var s with
    | None -> None
    | Some v ->
      s.stats.global_decisions <- s.stats.global_decisions + 1;
      (* No top clause in this ablation: use the symmetrization
         counters for the branch value (see DESIGN.md). *)
      let value =
        match s.cfg.polarity_mode with
        | Config.Take_zero -> false
        | Config.Take_one -> true
        | Config.Take_random -> Rng.bool s.rng
        | Config.Symmetrize | Config.Sat_top | Config.Unsat_top ->
          symmetrize_value s v
      in
      Some (v, value, Trace.D_global))
  | Config.Top_clause -> (
    (* Choose the most active free variable across the window of top
       clauses; ties between clauses go to the one nearest the top
       (the list is newest-first and the comparison strict). *)
    let best = ref None in
    List.iter
      (fun (c, distance) ->
        match best_free_in_clause s c with
        | Some l ->
          let act = s.var_act.(Lit.var l) in
          (match !best with
          | Some (_, _, best_act) when best_act >= act -> ()
          | Some _ | None -> best := Some (l, distance, act))
        | None ->
          (* An unsatisfied clause with no free literal would be a
             conflict, which BCP should have excluded.  If the
             invariant is ever broken, skip the clause and keep
             solving — a degraded decision beats an abort — but leave
             a warning in the trace. *)
          Trace.emit s.tracer
            (Trace.Warn
               {
                 message =
                   Printf.sprintf
                     "top clause at cref %d has no free literal; skipped" c;
               }))
      (find_top_clauses s);
    match !best with
    | Some (l, distance, _) ->
      s.stats.top_clause_decisions <- s.stats.top_clause_decisions + 1;
      Stats.record_skin s.stats distance;
      let v = Lit.var l in
      Some (v, top_clause_value s v l, Trace.D_top_clause)
    | None -> global_decision s)

let decide s =
  (* Assumption literals are tried in order as the first decisions;
     each consumes one decision level even when already satisfied, so
     [decision_level] indexes the assumption array. *)
  if decision_level s < Array.length s.assumptions then begin
    let l = s.assumptions.(decision_level s) in
    match lit_value s l with
    | Value.True ->
      Ivec.push s.trail_lim (Ivec.length s.trail);
      `Continue
    | Value.False -> `Assumption_failed l
    | Value.Unassigned ->
      s.stats.decisions <- s.stats.decisions + 1;
      Ivec.push s.trail_lim (Ivec.length s.trail);
      enqueue s l Arena.cref_undef;
      if s.tracer.Trace.active then
        Trace.emit s.tracer
          (Trace.Decide
             {
               level = decision_level s;
               var = Lit.var l;
               value = Lit.is_pos l;
               kind = Trace.D_assumption;
             });
      `Continue
  end
  else
    match pick_branch s with
    | None -> `All_assigned
    | Some (v, value, kind) ->
      (* Phase saving: a variable that has been assigned before gets
         its remembered polarity, overriding the configured heuristic
         (which still picks the variable). *)
      let value =
        if s.cfg.phase_saving then (
          match s.saved_phase.(v) with
          | Value.Unassigned -> value
          | remembered ->
            s.stats.saved_phase_hits <- s.stats.saved_phase_hits + 1;
            remembered = Value.True)
        else value
      in
      s.stats.decisions <- s.stats.decisions + 1;
      (match s.on_decision with
      | Some hook -> hook v value
      | None -> ());
      Ivec.push s.trail_lim (Ivec.length s.trail);
      enqueue s (Lit.make v value) Arena.cref_undef;
      if s.tracer.Trace.active then
        Trace.emit s.tracer
          (Trace.Decide { level = decision_level s; var = v; value; kind });
      `Continue

(* Failed-core extraction: the assumption literal [false_lit] is
   falsified by the current trail; walk the implication graph back to
   the decisions (all of which are assumptions, since only assumption
   levels exist below the failure point) that force it.  Only literals
   above level 0 are ever marked, so the walk stops where level 1
   starts; at level 0 there is nothing to walk. *)
let analyze_final s false_lit =
  let core = ref [ false_lit ] in
  let v0 = Lit.var (Lit.negate false_lit) in
  if s.level.(v0) > 0 then s.seen.(v0) <- true;
  let bottom =
    if decision_level s = 0 then Ivec.length s.trail else Ivec.get s.trail_lim 0
  in
  for i = Ivec.length s.trail - 1 downto bottom do
    let l = Ivec.get s.trail i in
    let v = Lit.var l in
    if s.seen.(v) then begin
      let r = s.reason.(v) in
      if r = Arena.cref_undef then begin
        (* A decision below the failure point is itself an assumption
           literal: it belongs to the failed core. *)
        if s.level.(v) > 0 then core := l :: !core
      end
      else
        Arena.iter_lits s.arena r (fun q ->
            let u = Lit.var q in
            if u <> v && s.level.(u) > 0 then s.seen.(u) <- true);
      s.seen.(v) <- false
    end
  done;
  !core

(* ------------------------------------------------------------------ *)
(* Learnt-clause import (portfolio exchange).                          *)

(* Canonical dedup key of a normalized clause prefix: the same clause
   relayed twice (or learnt independently by two peers), in any order
   and with any repeats, lands at most once. *)
let import_key lits m =
  String.concat "," (List.init m (fun i -> string_of_int lits.(i)))

(* True the first time [key] is seen. *)
let first_import s key =
  (not (Hashtbl.mem s.import_seen key))
  && begin
       Hashtbl.add s.import_seen key ();
       true
     end

(* Adopt a clause learnt by another solver.  The clause is a logical
   consequence of the shared formula, so this is sound at any time; it
   runs at decision level 0 (any pending search state is backtracked
   first) through the mid-life intake [add_clause] uses: normalize, then
   the root filter; an empty remainder makes the formula UNSAT and a
   unit becomes a top-level fact.  Unlike [add_clause], every landed
   clause is proof-logged (it is derived, not part of the formula), and
   foreign clauses over variables this worker does not know or has
   eliminated are dropped: re-introducing an eliminated variable would
   invalidate the model-reconstruction stack.  Stored clauses are
   learnt- and imported-flagged and join the learnt stack, so DB
   reduction, GC and the top-clause heuristic treat them like native
   learnt clauses; [Stats.clauses_imported] counts only clauses that
   actually land (post-simplification, post-dedup). *)
let import_clause s ~glue lits =
  if s.ok && Array.length lits > 0 then begin
    backtrack s 0;
    let lits = Array.copy lits in
    let m = normalize lits (Array.length lits) in
    let rec foreign i =
      i < m
      &&
      let v = Lit.var lits.(i) in
      v >= s.nvars || s.eliminated.(v) || foreign (i + 1)
    in
    if m >= 0 && first_import s (import_key lits m) && not (foreign 0) then begin
      let m = root_filter s lits m in
      if m >= 0 then begin
        log_add s (Array.sub lits 0 m);
        (match m with
        | 0 ->
          s.ok <- false;
          s.verdict <- Some Unsat
        | 1 -> enqueue s lits.(0) Arena.cref_undef
        | _ ->
          ignore (store s ~imported:true ~learnt:true ~glue ~watch:true lits m));
        s.stats.clauses_imported <- s.stats.clauses_imported + 1;
        if s.tracer.Trace.active then
          Trace.emit s.tracer
            (Trace.Share { direction = Trace.S_import; size = m; glue })
      end
    end
  end

(* Poll the import source (if any) and adopt everything it delivers.
   Called at restart boundaries, where the solver is at level 0 and
   the watch/binary structures are in their rebuild-friendly state. *)
let drain_imports s =
  match s.import_source with
  | None -> ()
  | Some f ->
    List.iter (fun (glue, lits) -> if s.ok then import_clause s ~glue lits) (f ())

(* ------------------------------------------------------------------ *)
(* Restarts.                                                           *)

let restart_due s =
  match s.cfg.restart_mode with
  | Config.No_restarts -> false
  | Config.Fixed n -> s.stats.conflicts - s.conflicts_at_restart >= n
  | Config.Luby unit ->
    s.stats.conflicts - s.conflicts_at_restart
    >= Luby.interval ~unit (s.restart_epoch + 1)

let restart s =
  s.stats.restarts <- s.stats.restarts + 1;
  s.restart_epoch <- s.restart_epoch + 1;
  (* The restart-sequence index: for Luby, the position whose term now
     sets the interval until the next restart; for fixed cadence it
     coincides with the restart count. *)
  s.stats.restart_seq_index <- s.restart_epoch;
  s.conflicts_at_restart <- s.stats.conflicts;
  backtrack s 0;
  if s.tracer.Trace.active then
    Trace.emit s.tracer
      (Trace.Restart
         {
           restart_no = s.stats.restarts;
           conflict_no = s.stats.conflicts;
           seq_index = s.restart_epoch;
         });
  reduce_db s;
  (* Inprocessing slots in after reduction (and its GC) so it works on
     the already-thinned database, and before the import drain so
     foreign clauses are never silently rewritten by a pass they
     arrived too late for. *)
  if s.cfg.simplify = Config.Simp_inprocess && s.ok then simplify_now s;
  (* Foreign learnt clauses enter last, at level 0: units become
     top-level facts immediately, and the next reduction judges them
     by the same age/activity rules as native clauses. *)
  drain_imports s

(* ------------------------------------------------------------------ *)
(* Invariant audits (tests).                                           *)

(* The invariant [find_top_clauses] relies on: every learnt clause
   strictly above [top_cursor] is satisfied.  O(learnt clauses). *)
let top_cursor_violations s =
  let errs = ref [] in
  for i = Ivec.length s.learnt - 1 downto s.top_cursor + 1 do
    let c = Ivec.get s.learnt i in
    if not (clause_satisfied s c) then
      errs :=
        Printf.sprintf
          "learnt clause %d (cref %d) is above the top-clause cursor %d but \
           unsatisfied"
          i c s.top_cursor
        :: !errs
  done;
  !errs

let watch_invariant_violations s =
  if not s.ok then []
  else begin
    let ar = s.arena in
    let errs = ref [] in
    let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
    Array.iteri
      (fun l ws ->
        let n = Ivec.length ws in
        if n land 1 <> 0 then err "watch list of lit %d has odd length %d" l n;
        let i = ref 0 in
        while !i + 1 < n do
          let c = Ivec.get ws (!i + 1) in
          if c < 0 || c >= Arena.size_words ar then
            err "lit %d: cref %d out of arena bounds" l c
          else if Arena.is_deleted ar c then
            err "lit %d: watches deleted cref %d" l c
          else begin
            let l0 = Arena.lit ar c 0 and l1 = Arena.lit ar c 1 in
            if l <> l0 && l <> l1 then
              err "lit %d: watches cref %d whose watch slots hold %d/%d" l c l0
                l1
          end;
          i := !i + 2
        done)
      s.watches;
    let count_watchers lit c =
      let ws = s.watches.(lit) in
      let n = Ivec.length ws in
      let cnt = ref 0 in
      let i = ref 0 in
      while !i + 1 < n do
        if Ivec.get ws (!i + 1) = c then incr cnt;
        i := !i + 2
      done;
      !cnt
    in
    let count_binary_entries lit c =
      let bs = Binary.implications s.binary lit in
      let n = Ivec.length bs in
      let cnt = ref 0 in
      let i = ref 0 in
      while !i + 1 < n do
        if Ivec.get bs (!i + 1) = c then incr cnt;
        i := !i + 2
      done;
      !cnt
    in
    let bcp_done = decision_level s = 0 && s.qhead = Ivec.length s.trail in
    let check_clause c =
      if (not (Arena.is_deleted ar c)) && Arena.clause_size ar c = 2 then begin
        (* Binary clauses: indexed once in each direction, never
           watched. *)
        let l0 = Arena.lit ar c 0 and l1 = Arena.lit ar c 1 in
        if count_watchers l0 c + count_watchers l1 c <> 0 then
          err "binary cref %d appears in a watch list" c;
        let n0 = count_binary_entries (Lit.negate l0) c
        and n1 = count_binary_entries (Lit.negate l1) c in
        if n0 <> 1 || n1 <> 1 then
          err "binary cref %d index entries %d/%d (expected 1/1)" c n0 n1
      end
      else if (not (Arena.is_deleted ar c)) && Arena.clause_size ar c > 2
      then begin
        let l0 = Arena.lit ar c 0 and l1 = Arena.lit ar c 1 in
        let n0 = count_watchers l0 c and n1 = count_watchers l1 c in
        let sat0 = satisfied_at_level0 s c in
        if n0 = 0 && n1 = 0 then begin
          if not sat0 then
            err "cref %d is unattached but not satisfied at level 0" c
        end
        else if n0 <> 1 || n1 <> 1 then
          err "cref %d watcher counts %d/%d (expected 1/1)" c n0 n1
        else if bcp_done && not sat0 then begin
          if lit_value s l0 = Value.False then
            err "cref %d: watch 0 (lit %d) is false at level 0" c l0;
          if lit_value s l1 = Value.False then
            err "cref %d: watch 1 (lit %d) is false at level 0" c l1
        end
      end
    in
    Ivec.iter check_clause s.original;
    Ivec.iter check_clause s.learnt;
    (* Every index entry must describe a live 2-clause whose literals
       match the arena copy. *)
    Binary.iter_entries s.binary (fun src implied c ->
        if c < 0 || c >= Arena.size_words ar then
          err "binary index: cref %d out of arena bounds" c
        else if Arena.is_deleted ar c then
          err "binary index: entry for deleted cref %d" c
        else if Arena.clause_size ar c <> 2 then
          err "binary index: cref %d has size %d" c (Arena.clause_size ar c)
        else begin
          let l0 = Arena.lit ar c 0 and l1 = Arena.lit ar c 1 in
          let a = Lit.negate src in
          if not ((a = l0 && implied = l1) || (a = l1 && implied = l0)) then
            err "binary index: entry (%d -> %d) does not match cref %d" src
              implied c
        end);
    (* The per-literal value array holds each variable twice. *)
    for v = 0 to s.nvars - 1 do
      let p = lit_value s (Lit.pos v) and n = lit_value s (Lit.neg_of v) in
      if not (Value.equal p (Value.negate n)) then
        err "var %d: literal values %s/%s are not complementary" v
          (Value.to_string p) (Value.to_string n)
    done;
    List.rev_append !errs (top_cursor_violations s)
  end

(* ------------------------------------------------------------------ *)
(* Main search loop.                                                   *)

let extract_model s =
  (* [vals] is padded to length >= 1 even for empty formulas, so
     build the model from the true variable count. *)
  let m =
    Array.init s.nvars (fun v ->
        match lit_value s (Lit.pos v) with
        | Value.True -> true
        | Value.False -> false
        | Value.Unassigned ->
          (* Only variables removed by BVE may be unassigned in a
             complete assignment; the reconstruction pass below picks
             their value from the clauses they were resolved out of. *)
          assert s.eliminated.(v);
          false)
  in
  if s.elim_stack <> [] then Berkmin_simplify.Recon.extend s.elim_stack m;
  m

let out_of_time budget started =
  match budget.max_seconds with
  | Some secs -> Sys.time () -. started > secs
  | None -> false

(* The main CDCL loop.  Both budget fields count from this call: the
   conflict cap is checked once each conflict is fully processed, so
   the run stops after exactly [max_conflicts] conflicts; the CPU-time
   cap is read every 64 conflict-free iterations.  A failed assumption
   returns [Unsat] with its core in [s.last_core]. *)
let search s budget =
  let started = Sys.time () in
  let conflict_cap =
    match budget.max_conflicts with
    | Some n -> s.stats.conflicts + Int.min n (max_int - s.stats.conflicts)
    | None -> max_int
  in
  let verdict =
    ref (if s.stats.conflicts >= conflict_cap then Some Unknown else None)
  in
  let iter = ref 0 in
  let profile = s.cfg.profile_timers in
  while !verdict = None do
    incr iter;
    let confl =
      if profile then begin
        let t0 = Sys.time () in
        let r = propagate s in
        s.stats.time_bcp <- s.stats.time_bcp +. (Sys.time () -. t0);
        r
      end
      else propagate s
    in
    if confl <> Arena.cref_undef then begin
      s.stats.conflicts <- s.stats.conflicts + 1;
      let dl = decision_level s in
      if s.tracer.Trace.active then begin
        Trace.emit s.tracer
          (Trace.Conflict { level = dl; conflict_no = s.stats.conflicts });
        if s.cfg.heartbeat_interval > 0
           && s.stats.conflicts mod s.cfg.heartbeat_interval = 0
        then
          Trace.emit s.tracer
            (Trace.Heartbeat
               {
                 conflict_no = s.stats.conflicts;
                 decisions = s.stats.decisions;
                 propagations = s.stats.propagations;
                 learnt_live = Ivec.length s.learnt;
                 seconds = Sys.time () -. started;
               })
      end;
      if dl = 0 then begin
        log_add s [||];
        verdict := Some Unsat
      end
      else begin
        (* Conflicts inside the assumption prefix analyze normally:
           the learnt clause backjumps and may flip an assumption's
           value at a lower level, in which case the next [decide]
           reports the failed assumption. *)
        let lits, bt, glue =
          if profile then begin
            let t0 = Sys.time () in
            let r = analyze s confl in
            s.stats.time_analyze <-
              s.stats.time_analyze +. (Sys.time () -. t0);
            r
          end
          else analyze s confl
        in
        if s.tracer.Trace.active then begin
          Trace.emit s.tracer
            (Trace.Learn
               {
                 size = Array.length lits;
                 asserting = lits.(0);
                 backjump_level = bt;
               });
          Trace.emit s.tracer (Trace.Backjump { from_level = dl; to_level = bt })
        end;
        backtrack s bt;
        record_learnt s ~glue lits;
        maybe_decay s;
        if restart_due s then restart s;
        if not s.ok then begin
          log_add s [||];
          verdict := Some Unsat
        end
        else if s.stats.conflicts >= conflict_cap then verdict := Some Unknown
      end
    end
    else if !iter land 63 = 0 && out_of_time budget started then
      verdict := Some Unknown
    else (
      match decide s with
      | `All_assigned -> verdict := Some (Sat (extract_model s))
      | `Assumption_failed l ->
        s.last_core <- Some (analyze_final s l);
        verdict := Some Unsat
      | `Continue -> ())
  done;
  Option.get !verdict

(* The pre-search simplification pass: once per solver, in both [pre]
   and [inprocess] modes, with [s.assumptions] already in place so
   assumption variables are frozen. *)
let maybe_presimplify s =
  if s.cfg.simplify <> Config.Simp_off && not s.simplify_pre_done then begin
    s.simplify_pre_done <- true;
    backtrack s 0;
    simplify_now s
  end

let check_assumption s l =
  if l < 0 || Lit.var l >= s.nvars then
    invalid_arg "Solver.solve: unknown variable";
  if s.eliminated.(Lit.var l) then
    invalid_arg "Solver.solve: variable eliminated by simplification"

(* The one search entry.  A formula already known UNSAT answers before
   any assumption is checked.  A plain solve caches its verdict,
   resumes an [Unknown] run where it stopped and leaves a model on the
   trail.  A solve under assumptions starts and ends at the root and
   caches only a formula-level UNSAT: a conditional answer says nothing
   about the next call's assumptions. *)
let solve ?(budget = no_budget) ?(assumps = []) s =
  (match budget with
  | { max_conflicts = Some n; _ } when n < 0 ->
    invalid_arg "Solver.solve: negative budget"
  | { max_seconds = Some secs; _ } when not (secs >= 0.0) ->
    (* [not (>=)] also catches NaN, which would otherwise compare false
       against every elapsed time and never run out *)
    invalid_arg "Solver.solve: negative budget"
  | _ -> ());
  s.last_core <- None;
  let result =
    match s.verdict with
    | Some Unsat -> Unsat
    | Some (Sat _ as r) when assumps = [] -> r
    | Some (Sat _ | Unknown) | None ->
      if s.ok then begin
        List.iter (check_assumption s) assumps;
        if assumps <> [] then backtrack s 0;
        s.assumptions <- Array.of_list assumps;
        maybe_presimplify s
      end;
      let r =
        if s.ok then search s budget
        else begin
          log_add s [||];
          Unsat
        end
      in
      s.assumptions <- [||];
      (* [search] sets a core only for a failed assumption, so an UNSAT
         without one holds for the formula itself. *)
      s.verdict <-
        (match r with
        | Unsat when s.last_core = None -> Some Unsat
        | r when assumps = [] -> Some r
        | Sat _ | Unsat | Unknown -> None);
      if assumps <> [] then backtrack s 0;
      r
  in
  (match result with
  | Unsat when assumps <> [] && s.last_core = None -> s.last_core <- Some []
  | Sat _ | Unsat | Unknown -> ());
  result

let unsat_core s = s.last_core

(* ------------------------------------------------------------------ *)
(* Incremental interface (MiniSat shape): [new_var] and [add_clause]
   between solves, [solve ~assumps] with failed-core extraction, each
   call under its own budget.  All learnt
   clauses, variable/literal activities and polarity counters persist
   across calls — that retention is the whole point: related queries
   amortize each other's search. *)

(* Grow the solver to [n] variables (no-op when it has as many): every
   per-variable and per-literal array widens to cover them. *)
let declare_vars s n =
  let grow_arr a fill cap =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  if n > s.nvars then begin
    let vcap = Array.length s.level in
    if n > vcap then begin
      let cap = max n (2 * vcap) in
      s.level <- grow_arr s.level 0 cap;
      s.reason <- grow_arr s.reason Arena.cref_undef cap;
      s.seen <- grow_arr s.seen false cap;
      s.eliminated <- grow_arr s.eliminated false cap;
      s.saved_phase <- grow_arr s.saved_phase Value.Unassigned cap;
      s.var_act <- grow_arr s.var_act 0.0 cap
    end;
    let lcap = Array.length s.lit_act in
    if 2 * n > lcap then begin
      let cap = max (2 * n) (2 * lcap) in
      s.vals <- grow_arr s.vals Value.Unassigned cap;
      s.lit_act <- grow_arr s.lit_act 0 cap;
      s.vsids <- grow_arr s.vsids 0.0 cap;
      s.nb_memo <- grow_arr s.nb_memo 0 cap;
      s.nb_memo_epoch <- grow_arr s.nb_memo_epoch (-1) cap;
      s.watches <-
        Array.init cap (fun i ->
            if i < Array.length s.watches then s.watches.(i)
            else Ivec.create ~capacity:8 ())
    end;
    s.nvars <- n;
    Binary.grow s.binary ~num_lits:(2 * n)
  end

(* A definitive UNSAT is monotone under clause/variable addition and is
   kept; any other cached verdict is stale once the formula changes. *)
let invalidate_verdict s =
  match s.verdict with
  | Some Unsat -> ()
  | Some (Sat _ | Unknown) | None -> s.verdict <- None

let new_var s =
  backtrack s 0;
  invalidate_verdict s;
  let v = s.nvars in
  declare_vars s (v + 1);
  v

let add_clause s lits =
  List.iter
    (fun l ->
      if l < 0 || Lit.var l >= s.nvars then
        invalid_arg "Solver.add_clause: unknown variable";
      if s.eliminated.(Lit.var l) then
        invalid_arg "Solver.add_clause: variable eliminated by simplification")
    lits;
  match s.verdict with
  | Some Unsat -> ()  (* permanently unsatisfiable; the clause is moot *)
  | Some (Sat _ | Unknown) | None ->
    s.verdict <- None;
    if s.ok then begin
      backtrack s 0;
      let lits = Array.of_list lits in
      let m = normalize lits (Array.length lits) in
      if m >= 0 then begin
        s.n_original <- s.n_original + 1;
        match root_filter s lits m with
        | -1 -> ()
        | 0 ->
          log_add s [||];
          s.ok <- false;
          s.verdict <- Some Unsat
        | 1 -> enqueue s lits.(0) Arena.cref_undef
        | m -> ignore (store s ~learnt:false ~glue:0 ~watch:true lits m)
      end
    end

(* ------------------------------------------------------------------ *)
(* Construction.  [create] and [load] run one routine, [build]:
   1. size the per-variable state and the original-clause list once
      ([presize]), from the [Cnf.t]'s counts or from the [p cnf V C]
      header; headerless DIMACS grows the variables as clauses mention
      them;
   2. take each clause in through [load_clause], unwatched;
   3. attach every watch in one pass ([attach_all]).
   What observes a solver (trace sink, proof logger, hooks) is
   attached to the result, never during construction. *)

let presize s ~vars ~clauses =
  declare_vars s vars;
  Ivec.reserve s.original clauses

(* Clause order is preserved, so every watch list comes out element for
   element as attaching clause by clause would leave it: one sequential
   pass counts watchers per literal, [Ivec.reserve] sizes every list
   exactly, and the attach pass then never reallocates. *)
let attach_all s =
  let long c = Arena.clause_size s.arena c >= 3 in
  let counts = Array.make (2 * s.nvars) 0 in
  Ivec.iter
    (fun c ->
      if long c then begin
        (* each watcher is two ints: blocker + cref *)
        let l0 = Arena.lit s.arena c 0 and l1 = Arena.lit s.arena c 1 in
        counts.(l0) <- counts.(l0) + 2;
        counts.(l1) <- counts.(l1) + 2
      end)
    s.original;
  Array.iteri
    (fun l k -> if k > 0 then Ivec.reserve s.watches.(l) k)
    counts;
  Ivec.iter (fun c -> if long c then attach s c) s.original

(* [intake s] presizes [s] and loads its clauses; its result is
   returned beside the solver. *)
let build ?(config = Config.berkmin) intake =
  let s = {
    cfg = config;
    stats = Stats.create ();
    tracer = Trace.create ();
    rng = Rng.create config.Config.seed;
    nvars = 0;
    n_original = 0;
    arena = Arena.create ~capacity:4096 ();
    original = Ivec.create ();
    learnt = Ivec.create ();
    learnt_glue = Ivec.create ();
    watches = [| Ivec.create ~capacity:8 () |];
    binary = Binary.create ~num_lits:1;
    vals = [| Value.Unassigned |];
    level = [| 0 |];
    reason = [| Arena.cref_undef |];
    trail = Ivec.create ();
    trail_lim = Ivec.create ();
    qhead = 0;
    bin_qhead = 0;
    top_cursor = -1;
    assign_epoch = 0;
    nb_memo = [| 0 |];
    nb_memo_epoch = [| -1 |];
    var_act = [| 0.0 |];
    lit_act = [| 0 |];
    vsids = [| 0.0 |];
    saved_phase = [| Value.Unassigned |];
    seen = [| false |];
    level_stamp = [| 0 |];
    glue_stamp = 0;
    assumptions = [||];
    last_core = None;
    old_threshold = config.Config.old_activity_threshold;
    restart_epoch = 0;
    conflicts_at_restart = 0;
    last_var_decay = 0;
    last_vsids_decay = 0;
    proof = None;
    on_decision = None;
    on_minimize = None;
    on_learn = None;
    import_source = None;
    import_seen = Hashtbl.create 64;
    verdict = None;
    eliminated = [| false |];
    elim_stack = [];
    simplify_pre_done = false;
    ok = true;
  } in
  let r = intake s in
  attach_all s;
  Stats.note_live_clauses s.stats s.n_original;
  (s, r)

(* [create]'s arena grows by doubling from its first 4096 words.  Sized
   exactly from the formula's literal count, it would be copied whole
   for the first learnt clause, which raised peak RSS on every
   perfbench workload (docs/PERFORMANCE.md); the doubling ladder leaves
   room for learnt clauses. *)
let create ?config cnf =
  fst
    (build ?config (fun s ->
         presize s ~vars:(Cnf.num_vars cnf) ~clauses:(Cnf.num_clauses cnf);
         Cnf.iter
           (fun clause ->
             let lits = Clause.to_array clause in
             load_clause s lits (Array.length lits))
           cnf))

(* [load] streams the formula straight from DIMACS, bypassing the
   [Cnf.t] round-trip: each clause goes from the parser's scratch
   buffer into the arena with one [Array.blit].  The header also sizes
   the arena, by a guess of header + 4 literals per clause (generous
   for random 3-SAT and typical industrial width); an undershoot falls
   back to the doubling ladder from there. *)
let presize_clause_words = Arena.header_words + 4

let load ?config source =
  let t0 = Unix.gettimeofday () in
  let s, (literals, scratch_words) =
    build ?config (fun s ->
        Dimacs.fold_clauses_scratch source
          ~on_header:(fun ~vars ~clauses ->
            presize s ~vars ~clauses;
            Arena.ensure_capacity s.arena
              ~words:(Arena.capacity_words s.arena
                     + (clauses * presize_clause_words)))
          ~init:0
          ~f:(fun literals lits n ->
            for j = 0 to n - 1 do
              declare_vars s (Lit.var lits.(j) + 1)
            done;
            load_clause s lits n;
            literals + n))
  in
  s.stats.load_clauses <- s.n_original;
  s.stats.load_literals <- literals;
  s.stats.load_scratch_words <- scratch_words;
  s.stats.time_load <- Unix.gettimeofday () -. t0;
  s

let load_string ?config text = load ?config (Dimacs.From_string text)

let load_file ?config path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> load ?config (Dimacs.From_channel ic))

let simplify s =
  invalidate_verdict s;
  backtrack s 0;
  simplify_now s;
  if not s.ok then begin
    log_add s [||];
    s.verdict <- Some Unsat
  end

let num_eliminated_vars s =
  let n = ref 0 in
  Array.iter (fun e -> if e then incr n) s.eliminated;
  !n

let solve_cnf ?config ?budget cnf = solve ?budget (create ?config cnf)

(* Clause-database simplification: subsumption, self-subsuming
   resolution, bounded variable elimination and failed-literal probing
   over an occurrence index.

   The engine is deliberately solver-agnostic: it consumes a plain
   clause list (each clause carrying an opaque caller tag and a
   redundant/irredundant marker), a set of already-established root
   facts, and an optional DRUP event callback, and returns the
   surviving database, the derived top-level facts and the elimination
   stack needed to repair SAT models.  The solver rebuilds its arena,
   watch lists and binary index from the outcome; nothing here touches
   solver internals.

   Proof discipline (the whole point of threading the callback through
   every rewrite): a derived clause is Add-ed *before* any clause it
   was derived from is Delete-d, so at every prefix of the emitted
   event stream the new clause is RUP against the live checker
   database.  Concretely:

   - a subsumed clause is only deleted (its subsumer stays live);
   - a strengthened clause emits Add(shorter) then Delete(longer) —
     the shorter clause is the self-subsuming resolvent of the longer
     one with the subsuming clause, hence RUP;
   - a failed literal emits Add([¬l]) — RUP because assuming l runs
     the binary implication chain into a conflict;
   - variable elimination emits Add for every non-tautological
     resolvent, then Delete for every occurrence clause;
   - clauses satisfied by a derived unit are deleted only after the
     unit itself was emitted.

   Root facts are assumed to be already derivable by the checker (the
   solver logs every level-0 enqueue whenever a proof logger is
   attached),
   so they are never re-emitted here.  Without a logger no event is
   built: the outcome is the same either way. *)

open Berkmin_types
module Drup = Berkmin_proof.Drup

type opts = {
  max_rounds : int;
  bve_growth : int;
  bve_max_occ : int;
  probe_budget : int;
  subsume_budget : int;
}

let default_opts =
  {
    max_rounds = 3;
    bve_growth = 0;
    bve_max_occ = 16;
    probe_budget = 200_000;
    subsume_budget = 2_000_000;
  }

type clause_in = {
  lits : Lit.t array;
  tag : int;
  redundant : bool;
}

type elim_entry = {
  var : int;
  clauses : Lit.t array list;
}

type stats = {
  mutable rounds : int;
  mutable subsumed : int;
  mutable strengthened : int;
  mutable eliminated_vars : int;
  mutable failed_literals : int;
  mutable simplified_clauses : int;
  mutable resolvents_added : int;
}

type outcome = {
  kept : clause_in list;
  resolvents : Lit.t array list;
  units : Lit.t list;
  unsat : bool;
  eliminated : elim_entry list;
  st : stats;
}

let signature (lits : Lit.t array) =
  let s = ref 0 in
  for i = 0 to Array.length lits - 1 do
    s := !s lor (1 lsl (Lit.var lits.(i) mod 63))
  done;
  !s

(* Literal arrays are kept sorted (integer order), which makes the two
   phases of a variable adjacent — subset tests, resolution and
   tautology detection are all linear merges.  Clauses are short and
   the solver's arrive nearly sorted, so insertion sort does the work
   in about one pass; it is quadratic in the worst case, so long
   clauses (learnt ones under inprocessing, say) take the library sort. *)
let sorted_copy (lits : Lit.t array) =
  let a = Array.copy lits in
  let n = Array.length a in
  if n > 32 then Array.sort Int.compare a
  else
    for i = 1 to n - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done;
  a

(* [a] subset of [b], both sorted. *)
let subset (a : Lit.t array) (b : Lit.t array) =
  let la = Array.length a and lb = Array.length b in
  la <= lb
  &&
  let i = ref 0 and j = ref 0 and ok = ref true in
  while !ok && !i < la do
    if !j >= lb then ok := false
    else
      let x = a.(!i) and y = b.(!j) in
      if x = y then begin
        incr i;
        incr j
      end
      else if x > y then incr j
      else ok := false
  done;
  !ok

(* As [subset], but allowing exactly one mismatch: a.(i) present in [b]
   negated.  Returns the negated literal (as it occurs in [b]) when the
   rest of [a] is contained in [b] — the self-subsuming resolution
   case — and -1 otherwise. *)
let subset_except_one (a : Lit.t array) (b : Lit.t array) =
  let la = Array.length a and lb = Array.length b in
  if la > lb then -1
  else begin
    let i = ref 0 and j = ref 0 and flipped = ref (-1) and ok = ref true in
    while !ok && !i < la do
      if !j >= lb then ok := false
      else
        let x = a.(!i) and y = b.(!j) in
        if x = y then begin
          incr i;
          incr j
        end
        else if !flipped < 0 && Lit.negate x = y then begin
          flipped := y;
          incr i;
          incr j
        end
        else if x > y then incr j
        else ok := false
    done;
    if !ok then !flipped else -1
  end

(* The clause table is struct-of-arrays, indexed by clause id: the
   subsumption scan filters each candidate on [size] and [sg] alone,
   without loading the clause. *)
type state = {
  opts : opts;
  nvars : int;
  frozen : int -> bool;
  proof : (Drup.event -> unit) option;
  mutable lits : Lit.t array array;  (* sorted literals *)
  mutable size : int array;  (* literal count; -1 once deleted *)
  mutable sg : int array;  (* 63-bit variable signature *)
  mutable tag : int array;  (* caller tag; -1 for resolvents created here *)
  mutable red : bool array;
  mutable ncl : int;  (* clauses in the table, live or not *)
  occ : Ivec.t array;  (* per literal: clause ids, lazily filtered *)
  assign : Value.t array;
  queue : Ivec.t;  (* literals: pending unit propagations *)
  mutable qhead : int;
  eliminated : bool array;
  mutable unsat : bool;
  mutable units_out : Lit.t list;  (* derived facts, reverse order *)
  mutable elim_out : elim_entry list;  (* newest first *)
  st : stats;
  mutable probe_spent : int;
  mutable subsume_spent : int;
  (* Scratch for one elimination attempt: the occurrence ids of each
     phase, and the resolvents back to back in [rbuf], resolvent [k]
     ending at [rends.(k)]. *)
  occ_pos : Ivec.t;
  occ_neg : Ivec.t;
  mutable rbuf : Lit.t array;
  rends : Ivec.t;
}

let[@inline] is_live t id = t.size.(id) >= 0

let emit_add t lits =
  match t.proof with
  | None -> ()
  | Some f -> f (Drup.Add (Clause.of_array lits))

let emit_del t lits =
  match t.proof with
  | None -> ()
  | Some f -> f (Drup.Delete (Clause.of_array lits))

let[@inline] lit_value t l =
  let v = t.assign.(Lit.var l) in
  if v = Value.Unassigned then Value.Unassigned
  else if Lit.is_pos l then v
  else if v = Value.True then Value.False
  else Value.True

let grow t =
  let cap = 2 * Array.length t.lits in
  let extend a dummy =
    let b = Array.make cap dummy in
    Array.blit a 0 b 0 t.ncl;
    b
  in
  t.lits <- extend t.lits [||];
  t.size <- extend t.size 0;
  t.sg <- extend t.sg 0;
  t.tag <- extend t.tag 0;
  t.red <- extend t.red false

let add_internal t ~red ~tag lits =
  let id = t.ncl in
  if id = Array.length t.lits then grow t;
  t.lits.(id) <- lits;
  t.size.(id) <- Array.length lits;
  t.sg.(id) <- signature lits;
  t.tag.(id) <- tag;
  t.red.(id) <- red;
  t.ncl <- id + 1;
  for i = 0 to Array.length lits - 1 do
    Ivec.push t.occ.(lits.(i)) id
  done

(* Mark a clause dead.  The occurrence lists keep their stale entries;
   every traversal checks liveness (and membership, for strengthened
   clauses). *)
let kill t id =
  if is_live t id then begin
    t.size.(id) <- -1;
    emit_del t t.lits.(id);
    t.st.simplified_clauses <- t.st.simplified_clauses + 1
  end

(* Derived top-level fact: emit its unit clause (callers rely on the
   emission happening before any deletion it enables), assign, queue. *)
let push_unit t l =
  match lit_value t l with
  | Value.True -> ()
  | Value.False ->
    emit_add t [| l |];
    (* Contradictory units: the refutation is complete, and the empty
       clause is RUP right here (both phases are in the proof).  Emit
       it now — later deletions may remove its witnesses. *)
    emit_add t [||];
    t.units_out <- l :: t.units_out;
    t.unsat <- true
  | Value.Unassigned ->
    emit_add t [| l |];
    t.units_out <- l :: t.units_out;
    t.assign.(Lit.var l) <-
      (if Lit.is_pos l then Value.True else Value.False);
    Ivec.push t.queue l

(* Seed an already-established fact (level-0 trail literal): assigned
   and propagated, but neither emitted nor reported back. *)
let seed_root t l =
  match lit_value t l with
  | Value.True -> ()
  | Value.False -> t.unsat <- true
  | Value.Unassigned ->
    t.assign.(Lit.var l) <-
      (if Lit.is_pos l then Value.True else Value.False);
    Ivec.push t.queue l

(* Replace live clause [id] by [kept], a subset of its literals:
   Add(kept) before Delete(old).  Shortening to a unit re-enters
   [push_unit]; shortening to the empty clause is a root conflict, RUP
   while the old clause and what shortened it are still live. *)
let shorten t id kept =
  match Array.length kept with
  | 0 ->
    emit_add t [||];
    t.unsat <- true;
    kill t id
  | 1 ->
    push_unit t kept.(0);
    kill t id
  | n ->
    emit_add t kept;
    emit_del t t.lits.(id);
    t.lits.(id) <- kept;
    t.size.(id) <- n;
    t.sg.(id) <- signature kept;
    t.st.strengthened <- t.st.strengthened + 1

(* Rewrite clause [id] under the current assignment: delete it when
   satisfied, strip false literals otherwise. *)
let clean_clause t id =
  let n = t.size.(id) in
  if n >= 0 then begin
    let c = t.lits.(id) in
    let sat = ref false and n_false = ref 0 and i = ref 0 in
    while (not !sat) && !i < n do
      (match lit_value t c.(!i) with
       | Value.True -> sat := true
       | Value.False -> incr n_false
       | Value.Unassigned -> ());
      incr i
    done;
    if !sat then kill t id
    else if !n_false > 0 then begin
      let kept = Array.make (n - !n_false) 0 in
      let k = ref 0 in
      for i = 0 to n - 1 do
        if lit_value t c.(i) <> Value.False then begin
          kept.(!k) <- c.(i);
          incr k
        end
      done;
      shorten t id kept
    end
  end

let clean_occ t l =
  let v = t.occ.(l) in
  let i = ref 0 in
  while !i < Ivec.length v && not t.unsat do
    clean_clause t (Ivec.get v !i);
    incr i
  done

let propagate t =
  while (not t.unsat) && t.qhead < Ivec.length t.queue do
    let l = Ivec.get t.queue t.qhead in
    t.qhead <- t.qhead + 1;
    (* Clauses containing l are satisfied; clauses containing ¬l lose
       a literal.  Both directions are handled by [clean_clause]. *)
    clean_occ t l;
    clean_occ t (Lit.negate l)
  done

(* ------------------------------------------------------------------ *)
(* Subsumption and self-subsuming resolution.                          *)

(* Occurrence list of the rarest literal of [c] — the standard trick
   for finding every clause a subsumer can hit without scanning the
   whole database. *)
let rarest_occ t (c : Lit.t array) =
  let best = ref t.occ.(c.(0)) in
  for i = 1 to Array.length c - 1 do
    let v = t.occ.(c.(i)) in
    if Ivec.length v < Ivec.length !best then best := v
  done;
  !best

let strengthen t id ~drop =
  let c = t.lits.(id) in
  let n = Array.length c in
  let n_drop = ref 0 in
  for i = 0 to n - 1 do
    if c.(i) = drop then incr n_drop
  done;
  let kept = Array.make (n - !n_drop) 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if c.(i) <> drop then begin
      kept.(!k) <- c.(i);
      incr k
    end
  done;
  (* A unit counts as a strengthening here, unlike in [clean_clause]. *)
  if Array.length kept = 1 then t.st.strengthened <- t.st.strengthened + 1;
  shorten t id kept

(* An irredundant clause may only disappear or shrink if the clause
   that did it stays irredundant. *)
let[@inline] promote t ~by ~victim =
  if (not t.red.(victim)) && t.red.(by) then t.red.(by) <- false

(* One backward pass: every live clause tries to subsume or strengthen
   the clauses sharing its rarest literal.  Work is bounded by
   [subsume_budget] candidate tests per run — every occurrence entry
   visited counts, dead or alive — so a pathological database degrades
   to a partial pass instead of a stall.  While clause [i] scans, only
   other clauses change, so its literals, size and signature hold. *)
let subsume_round t =
  let before = t.st.subsumed + t.st.strengthened in
  let n = t.ncl in
  let i = ref 0 in
  while !i < n && (not t.unsat) && t.subsume_spent < t.opts.subsume_budget do
    let ci = !i in
    if t.size.(ci) > 0 then begin
      let c = t.lits.(ci) in
      let sc = Array.length c and sgc = t.sg.(ci) in
      (* Plain subsumption: C ⊆ D deletes D. *)
      let v = rarest_occ t c in
      for k = 0 to Ivec.length v - 1 do
        let j = Ivec.get v k in
        t.subsume_spent <- t.subsume_spent + 1;
        (* [size] is -1 for a dead clause, so one compare tests both
           liveness and length. *)
        if j <> ci && t.size.(j) >= sc && sgc land lnot t.sg.(j) = 0
        then begin
          let d = t.lits.(j) in
          if subset c d then begin
            promote t ~by:ci ~victim:j;
            kill t j;
            t.st.subsumed <- t.st.subsumed + 1
          end
          else
            let flipped = subset_except_one c d in
            if flipped >= 0 then begin
              promote t ~by:ci ~victim:j;
              strengthen t j ~drop:flipped
            end
        end
      done;
      (* Self-subsuming resolution against clauses that do NOT share
         the rarest literal: a victim of C may instead contain the
         negation of one of C's literals, so scan occ(¬l) for each l
         of C (the SatELite strengthening direction). *)
      let li = ref 0 in
      while
        !li < sc && (not t.unsat) && t.subsume_spent < t.opts.subsume_budget
      do
        let v = t.occ.(Lit.negate c.(!li)) in
        for k = 0 to Ivec.length v - 1 do
          let j = Ivec.get v k in
          t.subsume_spent <- t.subsume_spent + 1;
          if j <> ci && t.size.(j) >= sc && sgc land lnot t.sg.(j) = 0
          then begin
            let flipped = subset_except_one c t.lits.(j) in
            if flipped >= 0 then begin
              promote t ~by:ci ~victim:j;
              strengthen t j ~drop:flipped
            end
          end
        done;
        incr li
      done
    end;
    incr i;
    propagate t
  done;
  propagate t;
  t.st.subsumed + t.st.strengthened > before

(* ------------------------------------------------------------------ *)
(* Failed-literal probing over the binary implication graph.           *)

(* Build per-literal adjacency from the live 2-clauses: clause (a ∨ b)
   contributes ¬a → b and ¬b → a.  The graph is rebuilt after every
   successful probe, because propagating the failed literal deletes or
   shortens binaries the next chain might otherwise walk through —
   stale edges would make Add([¬l]) non-RUP against the live proof
   database.  [probe_budget] counts every edge a DFS visits. *)
let probe_round t =
  let nlits = 2 * t.nvars in
  let found = ref false in
  let continue_ = ref true in
  while !continue_ && (not t.unsat) && t.probe_spent < t.opts.probe_budget do
    continue_ := false;
    let adj = Array.make nlits [] in
    let edges = ref 0 in
    for id = 0 to t.ncl - 1 do
      if t.size.(id) = 2 then begin
        let a = t.lits.(id).(0) and b = t.lits.(id).(1) in
        adj.(Lit.negate a) <- b :: adj.(Lit.negate a);
        adj.(Lit.negate b) <- a :: adj.(Lit.negate b);
        edges := !edges + 2
      end
    done;
    if !edges > 0 then begin
      let mark = Array.make nlits (-1) in
      let stack = Ivec.create () in
      let l = ref 0 in
      while !l < nlits && not !continue_ do
        if
          adj.(!l) <> []
          && t.assign.(Lit.var !l) = Value.Unassigned
          && t.probe_spent < t.opts.probe_budget
        then begin
          (* DFS of the implications of assuming [l]. *)
          Ivec.clear stack;
          Ivec.push stack !l;
          mark.(!l) <- !l;
          let failed = ref false in
          while (not !failed) && not (Ivec.is_empty stack) do
            let u = Ivec.pop stack in
            List.iter
              (fun w ->
                t.probe_spent <- t.probe_spent + 1;
                if mark.(Lit.negate w) = !l then failed := true
                else if mark.(w) <> !l then begin
                  mark.(w) <- !l;
                  Ivec.push stack w
                end)
              adj.(u)
          done;
          if !failed then begin
            t.st.failed_literals <- t.st.failed_literals + 1;
            push_unit t (Lit.negate !l);
            propagate t;
            found := true;
            (* Units were applied: rebuild the graph and rescan. *)
            continue_ := true
          end
        end;
        incr l
      done
    end
  done;
  !found

(* ------------------------------------------------------------------ *)
(* Bounded variable elimination.                                       *)

(* Appends the resolvent of sorted [a] and [b] on [v] to [rbuf] and
   returns [true], or returns [false] for a tautology. *)
let resolve_into t v (a : Lit.t array) (b : Lit.t array) =
  let start = if Ivec.is_empty t.rends then 0 else Ivec.last t.rends in
  let la = Array.length a and lb = Array.length b in
  if Array.length t.rbuf < start + la + lb then begin
    let bigger = Array.make (2 * (start + la + lb)) 0 in
    Array.blit t.rbuf 0 bigger 0 start;
    t.rbuf <- bigger
  end;
  let buf = t.rbuf in
  let n = ref start and i = ref 0 and j = ref 0 and taut = ref false in
  (* Merge keeping sortedness: walk both arrays as one sorted stream;
     duplicates and complementary pairs end up adjacent. *)
  while (not !taut) && (!i < la || !j < lb) do
    let l =
      if !j >= lb || (!i < la && a.(!i) <= b.(!j)) then begin
        let l = a.(!i) in
        incr i;
        l
      end
      else begin
        let l = b.(!j) in
        incr j;
        l
      end
    in
    if Lit.var l <> v then
      if !n > start && buf.(!n - 1) = Lit.negate l then taut := true
      else if !n = start || buf.(!n - 1) <> l then begin
        buf.(!n) <- l;
        incr n
      end
  done;
  if not !taut then Ivec.push t.rends !n;
  not !taut

let mem (l : Lit.t) (c : Lit.t array) =
  let i = ref 0 in
  while !i < Array.length c && c.(!i) <> l do
    incr i
  done;
  !i < Array.length c

let mentions v (c : Lit.t array) =
  let i = ref 0 in
  while !i < Array.length c && Lit.var c.(!i) <> v do
    incr i
  done;
  !i < Array.length c

(* Appends to [out] the live irredundant clauses containing [l], in
   occurrence order; [false] as soon as there are more than [limit].
   A clause's entries in one occurrence list are adjacent (a clause
   with a repeated literal pushed its id once per copy), so skipping
   a repeat of the previous entry visits each clause once. *)
let collect t l out ~limit =
  let v = t.occ.(l) in
  let n = Ivec.length v in
  let i = ref 0 and prev = ref (-1) in
  while !i < n && Ivec.length out <= limit do
    let id = Ivec.get v !i in
    if id <> !prev && is_live t id && (not t.red.(id)) && mem l t.lits.(id)
    then Ivec.push out id;
    prev := id;
    incr i
  done;
  Ivec.length out <= limit

(* Redundant clauses mentioning an eliminated variable can no longer
   be represented; drop them (sound: they were learnt). *)
let drop_mentions t var l =
  let v = t.occ.(l) in
  for i = 0 to Ivec.length v - 1 do
    let id = Ivec.get v i in
    if is_live t id && mentions var t.lits.(id) then kill t id
  done

(* Eliminate [var] when its non-tautological resolvents number at most
   [np + nn + bve_growth]: add resolvents first, then delete every
   occurrence (irredundant ones go to the reconstruction stack,
   redundant ones are just dropped). *)
let try_eliminate t var =
  let pos = t.occ_pos and neg = t.occ_neg in
  let np = Ivec.length pos and nn = Ivec.length neg in
  let cap = np + nn + t.opts.bve_growth in
  Ivec.clear t.rends;
  let fits = ref true in
  let a = ref 0 in
  while !fits && !a < np do
    let cp = t.lits.(Ivec.get pos !a) in
    let b = ref 0 in
    while !fits && !b < nn do
      if resolve_into t var cp t.lits.(Ivec.get neg !b) then
        fits := Ivec.length t.rends <= cap;
      incr b
    done;
    incr a
  done;
  if !fits then begin
    let removed = ref [] in
    for k = nn - 1 downto 0 do
      removed := t.lits.(Ivec.get neg k) :: !removed
    done;
    for k = np - 1 downto 0 do
      removed := t.lits.(Ivec.get pos k) :: !removed
    done;
    let start = ref 0 in
    for k = 0 to Ivec.length t.rends - 1 do
      let stop = Ivec.get t.rends k in
      let r = Array.sub t.rbuf !start (stop - !start) in
      start := stop;
      match Array.length r with
      | 0 ->
        emit_add t r;
        t.unsat <- true
      | 1 -> push_unit t r.(0)
      | _ ->
        emit_add t r;
        add_internal t ~red:false ~tag:(-1) r;
        t.st.resolvents_added <- t.st.resolvents_added + 1
    done;
    Ivec.iter (kill t) pos;
    Ivec.iter (kill t) neg;
    drop_mentions t var (Lit.pos var);
    drop_mentions t var (Lit.neg_of var);
    t.eliminated.(var) <- true;
    t.st.eliminated_vars <- t.st.eliminated_vars + 1;
    t.elim_out <- { var; clauses = !removed } :: t.elim_out;
    propagate t
  end

let eliminate_round t =
  let before = t.st.eliminated_vars in
  let max_occ = t.opts.bve_max_occ in
  let v = ref 0 in
  while !v < t.nvars && not t.unsat do
    let var = !v in
    if
      (not t.eliminated.(var))
      && (not (t.frozen var))
      && t.assign.(var) = Value.Unassigned
    then begin
      Ivec.clear t.occ_pos;
      Ivec.clear t.occ_neg;
      if
        collect t (Lit.pos var) t.occ_pos ~limit:max_occ
        && collect t (Lit.neg_of var) t.occ_neg
             ~limit:(max_occ - Ivec.length t.occ_pos)
        && Ivec.length t.occ_pos + Ivec.length t.occ_neg > 0
      then try_eliminate t var
    end;
    incr v
  done;
  t.st.eliminated_vars > before

(* ------------------------------------------------------------------ *)
(* Entry point.                                                        *)

let run ?(opts = default_opts) ?proof ~nvars ~frozen ~roots clauses =
  let st =
    {
      rounds = 0;
      subsumed = 0;
      strengthened = 0;
      eliminated_vars = 0;
      failed_literals = 0;
      simplified_clauses = 0;
      resolvents_added = 0;
    }
  in
  (* One counting pass sizes the clause table and every occurrence
     list, so loading the input reallocates nothing. *)
  let count = Array.make (max (2 * nvars) 1) 0 in
  let n_in =
    List.fold_left
      (fun n ({ lits; _ } : clause_in) ->
        for i = 0 to Array.length lits - 1 do
          count.(lits.(i)) <- count.(lits.(i)) + 1
        done;
        n + 1)
      0 clauses
  in
  let cap = max n_in 1 in
  let t =
    {
      opts;
      nvars;
      frozen;
      proof;
      lits = Array.make cap [||];
      size = Array.make cap 0;
      sg = Array.make cap 0;
      tag = Array.make cap 0;
      red = Array.make cap false;
      ncl = 0;
      occ = Array.map (fun n -> Ivec.create ~capacity:n ()) count;
      assign = Array.make (max nvars 1) Value.Unassigned;
      queue = Ivec.create ();
      qhead = 0;
      eliminated = Array.make (max nvars 1) false;
      unsat = false;
      units_out = [];
      elim_out = [];
      st;
      probe_spent = 0;
      subsume_spent = 0;
      occ_pos = Ivec.create ();
      occ_neg = Ivec.create ();
      rbuf = Array.make 64 0;
      rends = Ivec.create ();
    }
  in
  List.iter
    (fun { lits; tag; redundant } ->
      add_internal t ~red:redundant ~tag (sorted_copy lits))
    clauses;
  List.iter (seed_root t) roots;
  propagate t;
  let changed = ref true in
  while !changed && (not t.unsat) && st.rounds < opts.max_rounds do
    st.rounds <- st.rounds + 1;
    let c1 = subsume_round t in
    let c2 = if t.unsat then false else probe_round t in
    let c3 = if t.unsat then false else eliminate_round t in
    changed := c1 || c2 || c3
  done;
  let kept = ref [] in
  let resolvents = ref [] in
  for id = t.ncl - 1 downto 0 do
    if is_live t id then
      if t.tag.(id) >= 0 then
        kept :=
          { lits = t.lits.(id); tag = t.tag.(id); redundant = t.red.(id) }
          :: !kept
      else resolvents := t.lits.(id) :: !resolvents
  done;
  {
    kept = !kept;
    resolvents = !resolvents;
    units = List.rev t.units_out;
    unsat = t.unsat;
    eliminated = t.elim_out;
    st;
  }

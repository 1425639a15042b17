(* Clause-database simplification: subsumption, self-subsuming
   resolution, bounded variable elimination and failed-literal probing
   over an occurrence index.

   The engine is deliberately solver-agnostic: it consumes a plain
   clause list (each clause carrying an opaque caller tag and a
   redundant/irredundant marker), a set of already-established root
   facts, and a DRUP event callback, and returns the surviving
   database, the derived top-level facts and the elimination stack
   needed to repair SAT models.  The solver rebuilds its arena, watch
   lists and binary index from the outcome; nothing here touches
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
   so they are never re-emitted here. *)

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

(* Internal clause record.  Literal arrays are kept sorted (integer
   order), which makes the two phases of a variable adjacent — subset
   tests, resolution and tautology detection are all linear merges. *)
type cl = {
  mutable lits : Lit.t array;
  mutable live : bool;
  mutable red : bool;
  mutable sg : int;  (* 63-bit variable signature *)
  tag : int;  (* caller tag; -1 for resolvents created here *)
}

let signature lits =
  Array.fold_left (fun s l -> s lor (1 lsl (Lit.var l mod 63))) 0 lits

(* [a] subset of [b], both sorted. *)
let subset a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i j =
    if i >= la then true
    else if j >= lb then false
    else
      let c = compare a.(i) b.(j) in
      if c = 0 then go (i + 1) (j + 1)
      else if c > 0 then go i (j + 1)
      else false
  in
  la <= lb && go 0 0

(* As [subset], but allowing exactly one mismatch: a.(i) present in [b]
   negated.  Returns the negated literal (as it occurs in [b]) when the
   rest of [a] is contained in [b] — the self-subsuming resolution
   case. *)
let subset_except_one a b =
  let la = Array.length a and lb = Array.length b in
  let flipped = ref (-1) in
  let rec go i j =
    if i >= la then true
    else if j >= lb then false
    else
      let c = compare a.(i) b.(j) in
      if c = 0 then go (i + 1) (j + 1)
      else if !flipped < 0 && Lit.negate a.(i) = b.(j) then begin
        flipped := b.(j);
        go (i + 1) (j + 1)
      end
      else if c > 0 then go i (j + 1)
      else false
  in
  if la <= lb && go 0 0 && !flipped >= 0 then Some !flipped else None

type state = {
  opts : opts;
  nvars : int;
  frozen : int -> bool;
  proof : Drup.event -> unit;
  db : cl Vec.t;
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
}

let emit_add t lits = t.proof (Drup.Add (Clause.of_array lits))
let emit_del t lits = t.proof (Drup.Delete (Clause.of_array lits))

let lit_value t l =
  let v = t.assign.(Lit.var l) in
  if v = Value.Unassigned then Value.Unassigned
  else if Lit.is_pos l then v
  else if v = Value.True then Value.False
  else Value.True

let occ_push t id lits =
  Array.iter (fun l -> Ivec.push t.occ.(l) id) lits

let add_internal t ~red ~tag lits =
  let id = Vec.length t.db in
  Vec.push t.db { lits; live = true; red; sg = signature lits; tag };
  occ_push t id lits;
  id

(* Mark a clause dead.  The occurrence lists keep their stale entries;
   every traversal checks [live] (and membership, for strengthened
   clauses). *)
let kill t c ~emit =
  if c.live then begin
    c.live <- false;
    if emit then emit_del t c.lits;
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

(* Rewrite [c] under the current assignment: delete it when satisfied,
   strip false literals otherwise (emitting Add(short)/Delete(long)).
   Shortening to a unit re-enters [push_unit]; shortening to the empty
   clause is a root conflict. *)
let clean_clause t c =
  if c.live then begin
    let sat = ref false in
    let n_false = ref 0 in
    Array.iter
      (fun l ->
        match lit_value t l with
        | Value.True -> sat := true
        | Value.False -> incr n_false
        | Value.Unassigned -> ())
      c.lits;
    if !sat then kill t c ~emit:true
    else if !n_false > 0 then begin
      let kept =
        Array.of_list
          (List.filter
             (fun l -> lit_value t l <> Value.False)
             (Array.to_list c.lits))
      in
      match Array.length kept with
      | 0 ->
        (* Every literal is false under established units: the empty
           clause is RUP while [c] is still in the database. *)
        emit_add t [||];
        t.unsat <- true;
        kill t c ~emit:true
      | 1 ->
        push_unit t kept.(0);
        kill t c ~emit:true
      | _ ->
        emit_add t kept;
        emit_del t c.lits;
        c.lits <- kept;
        c.sg <- signature kept;
        t.st.strengthened <- t.st.strengthened + 1
    end
  end

let propagate t =
  while (not t.unsat) && t.qhead < Ivec.length t.queue do
    let l = Ivec.get t.queue t.qhead in
    t.qhead <- t.qhead + 1;
    (* Clauses containing l are satisfied; clauses containing ¬l lose
       a literal.  Both directions are handled by [clean_clause]. *)
    let touch lit =
      let v = t.occ.(lit) in
      for i = 0 to Ivec.length v - 1 do
        if not t.unsat then clean_clause t (Vec.get t.db (Ivec.get v i))
      done
    in
    touch l;
    touch (Lit.negate l)
  done

(* ------------------------------------------------------------------ *)
(* Subsumption and self-subsuming resolution.                          *)

(* Occurrence list of the rarest literal of [c] — the standard trick
   for finding every clause a subsumer can hit without scanning the
   whole database. *)
let rarest_occ t c =
  let best = ref c.lits.(0) in
  Array.iter
    (fun l ->
      if Ivec.length t.occ.(l) < Ivec.length t.occ.(!best) then best := l)
    c.lits;
  t.occ.(!best)

let strengthen t d ~drop =
  let kept =
    Array.of_list (List.filter (fun l -> l <> drop) (Array.to_list d.lits))
  in
  match Array.length kept with
  | 0 ->
    (* [d] was the unit [drop] and its negation subsumes the rest:
       both phases are in the database, so the empty clause is RUP
       while they still are. *)
    emit_add t [||];
    t.unsat <- true;
    kill t d ~emit:true
  | 1 ->
    push_unit t kept.(0);
    kill t d ~emit:true;
    t.st.strengthened <- t.st.strengthened + 1
  | _ ->
    emit_add t kept;
    emit_del t d.lits;
    d.lits <- kept;
    d.sg <- signature kept;
    t.st.strengthened <- t.st.strengthened + 1

(* One backward pass: every live clause tries to subsume or strengthen
   the clauses sharing its rarest literal.  Work is bounded by
   [subsume_budget] candidate tests per run, so a pathological database
   degrades to a partial pass instead of a stall. *)
let subsume_round t =
  let before = t.st.subsumed + t.st.strengthened in
  let n = Vec.length t.db in
  let i = ref 0 in
  while !i < n && (not t.unsat) && t.subsume_spent < t.opts.subsume_budget do
    let c = Vec.get t.db !i in
    if c.live && Array.length c.lits > 0 then begin
      (* Plain subsumption: C ⊆ D deletes D. *)
      let v = rarest_occ t c in
      let k = ref 0 in
      while !k < Ivec.length v && c.live do
        let j = Ivec.get v !k in
        incr k;
        t.subsume_spent <- t.subsume_spent + 1;
        if j >= 0 && j <> !i then begin
          let d = Vec.get t.db j in
          if
            d.live
            && Array.length d.lits >= Array.length c.lits
            && c.sg land lnot d.sg = 0
          then begin
            if subset c.lits d.lits then begin
              (* An irredundant clause may only disappear if its
                 subsumer stays irredundant. *)
              if (not d.red) && c.red then c.red <- false;
              kill t d ~emit:true;
              t.st.subsumed <- t.st.subsumed + 1
            end
            else
              match subset_except_one c.lits d.lits with
              | Some flipped ->
                if (not d.red) && c.red then c.red <- false;
                strengthen t d ~drop:flipped
              | None -> ()
          end
        end
      done;
      (* Self-subsuming resolution against clauses that do NOT share
         the rarest literal: a victim of C may instead contain the
         negation of one of C's literals, so scan occ(¬l) for each l
         of C (the SatELite strengthening direction). *)
      let li = ref 0 in
      while
        !li < Array.length c.lits
        && c.live
        && (not t.unsat)
        && t.subsume_spent < t.opts.subsume_budget
      do
        let v = t.occ.(Lit.negate c.lits.(!li)) in
        let k = ref 0 in
        while !k < Ivec.length v && c.live do
          let j = Ivec.get v !k in
          incr k;
          t.subsume_spent <- t.subsume_spent + 1;
          if j >= 0 && j <> !i then begin
            let d = Vec.get t.db j in
            if
              d.live
              && Array.length d.lits >= Array.length c.lits
              && c.sg land lnot d.sg = 0
            then
              match subset_except_one c.lits d.lits with
              | Some flipped ->
                if (not d.red) && c.red then c.red <- false;
                strengthen t d ~drop:flipped
              | None -> ()
          end
        done;
        incr li
      done
    end;
    incr i;
    if not (Ivec.is_empty t.queue) then propagate t
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
   database. *)
let probe_round t =
  let nlits = 2 * t.nvars in
  let found = ref false in
  let continue_ = ref true in
  while !continue_ && (not t.unsat) && t.probe_spent < t.opts.probe_budget do
    continue_ := false;
    let adj = Array.make nlits [] in
    let edges = ref 0 in
    Vec.iter
      (fun c ->
        if c.live && Array.length c.lits = 2 then begin
          let a = c.lits.(0) and b = c.lits.(1) in
          adj.(Lit.negate a) <- b :: adj.(Lit.negate a);
          adj.(Lit.negate b) <- a :: adj.(Lit.negate b);
          edges := !edges + 2
        end)
      t.db;
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

(* Resolvent of two sorted clauses on [v]; [None] for tautologies. *)
let resolve_on v a b =
  let out = ref [] in
  let taut = ref false in
  let push l =
    match !out with
    | prev :: _ when prev = l -> ()
    | prev :: _ when prev = Lit.negate l -> taut := true
    | _ -> out := l :: !out
  in
  (* Merge keeping sortedness: walk both arrays as one sorted stream. *)
  let la = Array.length a and lb = Array.length b in
  let i = ref 0 and j = ref 0 in
  while (not !taut) && (!i < la || !j < lb) do
    let next =
      if !i >= la then begin
        let l = b.(!j) in
        incr j;
        l
      end
      else if !j >= lb then begin
        let l = a.(!i) in
        incr i;
        l
      end
      else if compare a.(!i) b.(!j) <= 0 then begin
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
    if Lit.var next <> v then push next
  done;
  if !taut then None else Some (Array.of_list (List.rev !out))

(* Live irredundant occurrences of literal [l]. *)
let occurrences t l =
  let out = ref [] in
  let v = t.occ.(l) in
  for i = Ivec.length v - 1 downto 0 do
    let j = Ivec.get v i in
    if j >= 0 then begin
      let c = Vec.get t.db j in
      if c.live && (not c.red) && Array.exists (fun x -> x = l) c.lits then
        if not (List.memq c !out) then out := c :: !out
    end
  done;
  !out

let eliminate_round t =
  let before = t.st.eliminated_vars in
  let v = ref 0 in
  while !v < t.nvars && not t.unsat do
    let var = !v in
    if
      (not t.eliminated.(var))
      && (not (t.frozen var))
      && t.assign.(var) = Value.Unassigned
    then begin
      let pos = occurrences t (Lit.pos var) in
      let neg = occurrences t (Lit.neg_of var) in
      let np = List.length pos and nn = List.length neg in
      if np + nn > 0 && np + nn <= t.opts.bve_max_occ then begin
        (* Count non-tautological resolvents, aborting on overflow of
           the growth cap. *)
        let cap = np + nn + t.opts.bve_growth in
        let resolvents = ref [] in
        let count = ref 0 in
        (try
           List.iter
             (fun cp ->
               List.iter
                 (fun cn ->
                   match resolve_on var cp.lits cn.lits with
                   | None -> ()
                   | Some r ->
                     incr count;
                     if !count > cap then raise Exit;
                     resolvents := r :: !resolvents)
                 neg)
             pos;
           (* Eliminate: add resolvents first, then delete every
              occurrence (irredundant ones go to the reconstruction
              stack, redundant ones are just dropped). *)
           let removed = List.map (fun c -> Array.copy c.lits) (pos @ neg) in
           List.iter
             (fun r ->
               match Array.length r with
               | 0 ->
                 emit_add t r;
                 t.unsat <- true
               | 1 -> push_unit t r.(0)
               | _ ->
                 emit_add t r;
                 ignore (add_internal t ~red:false ~tag:(-1) r);
                 t.st.resolvents_added <- t.st.resolvents_added + 1)
             (List.rev !resolvents);
           List.iter
             (fun c ->
               kill t c ~emit:true)
             (pos @ neg);
           (* Redundant clauses mentioning the variable can no longer
              be represented; drop them (sound: they were learnt). *)
           List.iter
             (fun l ->
               let occ = t.occ.(l) in
               for i = 0 to Ivec.length occ - 1 do
                 let j = Ivec.get occ i in
                 if j >= 0 then begin
                   let c = Vec.get t.db j in
                   if c.live && Array.exists (fun x -> Lit.var x = var) c.lits
                   then kill t c ~emit:true
                 end
               done)
             [ Lit.pos var; Lit.neg_of var ];
           t.eliminated.(var) <- true;
           t.st.eliminated_vars <- t.st.eliminated_vars + 1;
           t.elim_out <- { var; clauses = removed } :: t.elim_out;
           propagate t
         with Exit -> ())
      end
    end;
    incr v
  done;
  t.st.eliminated_vars > before

(* ------------------------------------------------------------------ *)
(* Entry point.                                                        *)

let run ?(opts = default_opts) ~nvars ~frozen ~roots ~proof clauses =
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
  let t =
    {
      opts;
      nvars;
      frozen;
      proof;
      db =
        Vec.create
          ~dummy:{ lits = [||]; live = false; red = false; sg = 0; tag = -1 }
          ();
      occ = Array.init (max (2 * nvars) 1) (fun _ -> Ivec.create ());
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
    }
  in
  List.iter
    (fun { lits; tag; redundant } ->
      let sorted = Array.copy lits in
      Array.sort compare sorted;
      ignore (add_internal t ~red:redundant ~tag sorted))
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
  Vec.iter
    (fun c ->
      if c.live then
        if c.tag >= 0 then
          kept := { lits = c.lits; tag = c.tag; redundant = c.red } :: !kept
        else resolvents := c.lits :: !resolvents)
    t.db;
  {
    kept = List.rev !kept;
    resolvents = List.rev !resolvents;
    units = List.rev t.units_out;
    unsat = t.unsat;
    eliminated = t.elim_out;
    st;
  }

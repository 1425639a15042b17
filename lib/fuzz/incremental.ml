open Berkmin_types
module Solver = Berkmin.Solver

type failure = {
  query : int;
  assumps : Lit.t list;
  detail : string;
}

(* Fuzz-sized formulas decide in a handful of conflicts; the cap only
   exists so an adversarial case degrades to a skipped query instead
   of an unbounded search. *)
let per_query_conflicts = 20_000

let lit_set lits = List.sort_uniq compare lits

let check ?(queries = 4) ~seed cnf =
  let rng = Rng.create seed in
  let base = Cnf.copy cnf in
  let resident = Solver.create (Cnf.copy base) in
  let failures = ref [] in
  let fail query assumps fmt =
    Printf.ksprintf
      (fun detail -> failures := { query; assumps; detail } :: !failures)
      fmt
  in
  let budget = Solver.budget_conflicts per_query_conflicts in
  let fresh_verdict assumps =
    Solver.solve ~budget ~assumps (Solver.create (Cnf.copy base))
  in
  let check_model q assumps lane m =
    if not (Solver.check_model base m) then
      fail q assumps "%s model does not satisfy the formula" lane
    else
      List.iter
        (fun l ->
          if Lit.var l < Array.length m && m.(Lit.var l) <> Lit.is_pos l then
            fail q assumps "%s model violates assumption %s" lane
              (Lit.to_string l))
        assumps
  in
  for q = 1 to queries do
    (* grow the formula between queries: occasionally a fresh variable,
       occasionally a random clause over the existing ones — both lanes
       see the same accumulated formula *)
    if Rng.int rng 4 = 0 then begin
      ignore (Solver.new_var resident);
      Cnf.ensure_vars base (Cnf.num_vars base + 1)
    end;
    let num_vars = Cnf.num_vars base in
    if num_vars > 0 && Rng.int rng 3 = 0 then begin
      let width = 1 + Rng.int rng 3 in
      let lits =
        List.init width (fun _ -> Lit.make (Rng.int rng num_vars) (Rng.bool rng))
      in
      Cnf.add_clause base lits;
      Solver.add_clause resident lits
    end;
    let assumps =
      if num_vars = 0 then []
      else
        List.init (Rng.int rng 5) (fun _ ->
            Lit.make (Rng.int rng num_vars) (Rng.bool rng))
    in
    match Solver.solve ~budget ~assumps resident, fresh_verdict assumps with
    | Solver.Unknown, _ | _, Solver.Unknown -> ()  (* budget: no judgement *)
    | Solver.Sat m, Solver.Sat m' ->
      check_model q assumps "resident" m;
      check_model q assumps "fresh" m'
    | Solver.Unsat, Solver.Unsat ->
      if assumps <> [] then begin
        match Solver.unsat_core resident with
        | None -> fail q assumps "UNSAT under assumptions but no core"
        | Some core ->
          let set = lit_set assumps in
          List.iter
            (fun l ->
              if not (List.mem l set) then
                fail q assumps "core literal %s was never assumed"
                  (Lit.to_string l))
            core;
          (* the core alone must still refute the formula from scratch *)
          (match fresh_verdict (lit_set core) with
          | Solver.Unsat | Solver.Unknown -> ()
          | Solver.Sat _ ->
            fail q assumps "core %s does not refute a fresh solver"
              (String.concat "," (List.map Lit.to_string core)))
      end
    | Solver.Sat _, Solver.Unsat ->
      fail q assumps "resident says SAT, fresh solver says UNSAT"
    | Solver.Unsat, Solver.Sat _ ->
      fail q assumps "resident says UNSAT, fresh solver says SAT"
  done;
  List.rev !failures

let failure_to_json f =
  Json.Obj
    [
      "query", Json.Int f.query;
      ( "assumps",
        Json.List (List.map (fun l -> Json.Int (Lit.to_dimacs l)) f.assumps) );
      "detail", Json.String f.detail;
    ]

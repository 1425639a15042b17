(* Answer checks.  A check that fails counts the operation as failed. *)

open Berkmin_types

let model_ok cnf ~assumps model =
  Array.length model >= Cnf.num_vars cnf
  && Cnf.satisfied_by cnf model
  && List.for_all
       (fun l ->
         let v = Lit.var l in
         v < Array.length model && model.(v) = Lit.is_pos l)
       assumps

(* A SAT answer carries its model as one signed DIMACS integer per
   variable, in variable order.  Decoding tens of thousands of them
   through the JSON tree costs more than the request itself, so the
   model's digits are cut out of the line and read in place, and the
   rest of the answer is decoded as JSON. *)
let model_key = "\"model\":["

let find_sub s sub =
  let n = String.length s and k = String.length sub in
  let rec matches i j = j = k || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i = if i + k > n then None else if matches i 0 then Some i else go (i + 1) in
  go 0

(* Some model only if the digits are exactly 1, 2, ..., num_vars, each
   signed, comma-separated. *)
let model_of_digits ~num_vars s ~start ~stop =
  let model = Array.make num_vars false in
  let rec item v i =
    let neg = i < stop && s.[i] = '-' in
    let rec digits x i =
      if i < stop && s.[i] >= '0' && s.[i] <= '9' then
        digits ((x * 10) + Char.code s.[i] - 48) (i + 1)
      else (x, i)
    in
    let first = if neg then i + 1 else i in
    let x, i = digits 0 first in
    if i = first || v >= num_vars || x <> v + 1 then None
    else begin
      model.(v) <- not neg;
      if i = stop then if v + 1 = num_vars then Some model else None
      else if s.[i] = ',' then item (v + 1) (i + 1)
      else None
    end
  in
  if start = stop then if num_vars = 0 then Some model else None
  else item 0 start

(* The answer's JSON (with an empty model array) and, for an answer
   carrying a model, the decoded model; None if the line is not JSON. *)
let decode_answer ~num_vars line =
  let json s = match Json.of_string s with j -> Some j | exception Json.Parse_error _ -> None in
  match find_sub line model_key with
  | None -> Option.map (fun j -> (j, None)) (json line)
  | Some i -> (
    let start = i + String.length model_key in
    match String.index_from_opt line start ']' with
    | None -> None
    | Some stop ->
      let rest = String.sub line 0 start ^ String.sub line stop (String.length line - stop) in
      Option.map
        (fun j -> (j, model_of_digits ~num_vars line ~start ~stop))
        (json rest))

let lits_of_json json =
  match Json.to_list_opt json with
  | None -> None
  | Some items ->
    let lits =
      List.filter_map
        (fun item ->
          match Json.to_int_opt item with
          | Some x when x <> 0 -> Some (Lit.of_dimacs x)
          | _ -> None)
        items
    in
    if List.length lits = List.length items then Some lits else None

let core_subset ~assumps core =
  List.for_all (fun l -> List.exists (Lit.equal l) assumps) core

(* Re-solving a core on a separate, fresh solver must give UNSAT.  An
   empty core claims the clauses alone are unsatisfiable. *)
let core_unsat cnf core =
  match Berkmin.Solver.solve ~assumps:core (Berkmin.Solver.create cnf) with
  | Berkmin.Solver.Unsat -> true
  | Berkmin.Solver.Sat _ | Berkmin.Solver.Unknown -> false

open Berkmin_types

type trace = {
  depth : int;
  frames : bool array list;
}

type result =
  | Safe of int
  | Counterexample of trace
  | Inconclusive

let frame_output frame bad = Printf.sprintf "f%d.%s" frame bad

let unrolled_with_mapping seq ~bad ~bound =
  let unrolled, _tables = Seq.unroll seq ~bound in
  (* Check the property output exists (frame 0 suffices). *)
  ignore (Circuit.output_exn unrolled (frame_output 0 bad));
  unrolled

let encode seq ~bad ~bound =
  let unrolled = unrolled_with_mapping seq ~bad ~bound in
  let m = Tseitin.encode unrolled in
  let bads =
    List.init bound (fun frame ->
        Lit.pos m.Tseitin.node_var.(Circuit.output_exn unrolled (frame_output frame bad)))
  in
  Cnf.add_clause m.Tseitin.cnf bads;
  m.Tseitin.cnf

(* Free-input vectors per frame, read off a model through the Tseitin
   mapping.  Inputs of the unrolled circuit are created frame-major, so
   consecutive groups of [free_inputs] variables belong to consecutive
   frames. *)
let decode_trace seq unrolled m model ~depth =
  let per_frame = Seq.free_inputs seq in
  let in_vars = Tseitin.input_vars unrolled m in
  List.init (depth + 1) (fun frame ->
      Array.init per_frame (fun i ->
          model.(in_vars.((frame * per_frame) + i))))

let first_bad_frame unrolled m model ~bad ~bound =
  let rec scan frame =
    if frame >= bound then None
    else begin
      let id = Circuit.output_exn unrolled (frame_output frame bad) in
      if model.(m.Tseitin.node_var.(id)) then Some frame else scan (frame + 1)
    end
  in
  scan 0

let check ?config ?budget seq ~bad ~bound =
  let unrolled = unrolled_with_mapping seq ~bad ~bound in
  let m = Tseitin.encode unrolled in
  let bads =
    List.init bound (fun frame ->
        Lit.pos m.Tseitin.node_var.(Circuit.output_exn unrolled (frame_output frame bad)))
  in
  Cnf.add_clause m.Tseitin.cnf bads;
  match Berkmin.Solver.solve_cnf ?config ?budget m.Tseitin.cnf with
  | Berkmin.Solver.Unsat -> Safe bound
  | Berkmin.Solver.Unknown -> Inconclusive
  | Berkmin.Solver.Sat model -> (
    match first_bad_frame unrolled m model ~bad ~bound with
    | None -> Inconclusive (* cannot happen: the disjunction is satisfied *)
    | Some depth ->
      Counterexample { depth; frames = decode_trace seq unrolled m model ~depth })

let check_incremental ?config ?budget seq ~bad ~max_bound =
  let unrolled = unrolled_with_mapping seq ~bad ~bound:max_bound in
  let m = Tseitin.encode unrolled in
  let solver = Berkmin.Solver.create ?config m.Tseitin.cnf in
  let bad_lit frame =
    Lit.pos m.Tseitin.node_var.(Circuit.output_exn unrolled (frame_output frame bad))
  in
  let rec deepen frame =
    if frame >= max_bound then Safe max_bound
    else
      match Berkmin.Solver.solve ?budget ~assumps:[ bad_lit frame ] solver with
      | Berkmin.Solver.Sat model ->
        Counterexample
          { depth = frame; frames = decode_trace seq unrolled m model ~depth:frame }
      | Berkmin.Solver.Unsat ->
        if Berkmin.Solver.unsat_core solver = Some [] then Safe max_bound
        else deepen (frame + 1)
      | Berkmin.Solver.Unknown -> Inconclusive
  in
  deepen 0

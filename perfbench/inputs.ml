(* Workload inputs, generated from the workload seed before any timing.

   Every file is DIMACS or JSONL text, so the program under test sees
   only bytes on disk, and the same seed gives byte-identical files. *)

open Berkmin_types
module G = Berkmin_gen
module Protocol = Berkmin_server.Protocol

let workloads = [ "paper_hard"; "large_formula"; "incremental" ]

(* Requests in one pass of the incremental stream, after the base
   formula is loaded.  Sized so a pass takes a few seconds and a run of
   several passes puts hundreds of samples beyond the 99th percentile. *)
let stream_requests = 20_000

let rng ~seed ~salt = Rng.create ((seed * 1_000_003) + salt + 1)

(* DIMACS text with each clause's literals in a seeded order.  Intake
   sorts the literals of every clause, so the order changes the bytes
   the parser reads but not the formula the solver builds. *)
let dimacs_text rng cnf =
  let b = Buffer.create ((8 * Cnf.num_literals cnf) + 64) in
  Printf.bprintf b "p cnf %d %d\n" (Cnf.num_vars cnf) (Cnf.num_clauses cnf);
  Cnf.iter
    (fun c ->
      let lits = Clause.to_array c in
      Rng.shuffle rng lits;
      Array.iter
        (fun l ->
          Buffer.add_string b (string_of_int (Lit.to_dimacs l));
          Buffer.add_char b ' ')
        lits;
      Buffer.add_string b "0\n")
    cnf;
  Buffer.contents b

let expect_string (i : G.Instance.t) =
  match i.expected with
  | G.Instance.Expect_sat -> "sat"
  | G.Instance.Expect_unsat -> "unsat"
  | G.Instance.Expect_any ->
    invalid_arg ("instance without a known verdict: " ^ i.name)

(* The file workloads' formulas are fixed: their search is what they
   measure, and a different formula searches differently (renaming the
   variables of pipe2_w4 alone moved its solve between 1.5 and 3.6 s),
   so the seed only reorders literals. *)
let paper_hard_instances () =
  [
    G.Circuit_bench.pipeline_unsat ~stages:2 ~width:4;
    G.Circuit_bench.pipeline_unsat ~stages:3 ~width:2;
    G.Circuit_bench.random_miter ~gates:400 ~seed:11;
    G.Hanoi.sat_instance 5;
    G.Random_ksat.planted_instance ~num_vars:300 ~ratio:4.2 ~seed:77;
    G.Pigeonhole.instance 8 7;
    G.Circuit_bench.pipeline_sat ~stages:4 ~width:4;
  ]

let large_formula_instances () =
  [
    G.Bigbench.bmc_lock_instance ~combo_len:32 ~reachable:true ~seed:1;
    G.Bigbench.bmc_lock_instance ~combo_len:32 ~reachable:false ~seed:2;
    G.Random_ksat.planted_instance ~num_vars:12_000 ~ratio:3.0 ~seed:1;
  ]

let file_workload ~workload ~seed ~simplify instances =
  let rng = rng ~seed ~salt:0 in
  let files, entries =
    List.split
      (List.map
         (fun (i : G.Instance.t) ->
           let file = i.name ^ ".cnf" in
           ( (file, dimacs_text rng i.cnf),
             Json.Obj
               [
                 "name", Json.String i.name;
                 "file", Json.String file;
                 "expect", Json.String (expect_string i);
                 "simplify", Json.Bool simplify;
               ] ))
         instances)
  in
  let manifest =
    Json.Obj
      [
        "workload", Json.String workload;
        "seed", Json.Int seed;
        "instances", Json.List entries;
      ]
  in
  ("manifest.json", Json.to_string manifest ^ "\n") :: files

let request command =
  Json.to_string
    (Protocol.request_to_json { id = None; session = Some "s"; command })

(* A fresh gate over two distinct existing signals, as the clauses of
   [g <-> a op b].  Each definition is total in [g], so the session
   stays satisfiable and a later request may assume [g] either way. *)
let gate_clauses rng ~gate ~num_vars =
  let a = Rng.int rng num_vars in
  let b = (a + 1 + Rng.int rng (num_vars - 1)) mod num_vars in
  let a = Lit.make a (Rng.bool rng) and b = Lit.make b (Rng.bool rng) in
  let g = Lit.pos gate and n = Lit.negate in
  match Rng.int rng 3 with
  | 0 -> [ [ n g; a ]; [ n g; b ]; [ g; n a; n b ] ]
  | 1 -> [ [ g; n a ]; [ g; n b ]; [ n g; a; b ] ]
  | _ -> [ [ n g; a; b ]; [ n g; n a; n b ]; [ g; n a; b ]; [ g; a; n b ] ]

(* Distinct variables drawn uniformly, each with a random sign. *)
let assumptions rng ~count ~num_vars =
  let rec draw acc seen k =
    if k = 0 then List.rev acc
    else
      let v = Rng.int rng num_vars in
      if List.mem v seen then draw acc seen k
      else draw (Lit.make v (Rng.bool rng) :: acc) (v :: seen) (k - 1)
  in
  draw [] [] count

(* Every eighth operation is a write ([new_var], then [add_clauses]
   defining the new variable); the others solve under three to eight
   assumptions over every variable allocated so far. *)
let stream_lines ~seed ~base_vars =
  let rng = rng ~seed ~salt:1 in
  let lines = ref [] and count = ref 0 and num_vars = ref base_vars in
  let emit command =
    lines := request command :: !lines;
    incr count
  in
  let op = ref 0 in
  while !count < stream_requests do
    if !op mod 8 = 7 then begin
      emit (Protocol.New_var { count = 1 });
      let clauses = gate_clauses rng ~gate:!num_vars ~num_vars:!num_vars in
      incr num_vars;
      emit (Protocol.Add_clauses { clauses })
    end
    else begin
      let assumps =
        assumptions rng ~count:(3 + Rng.int rng 6) ~num_vars:!num_vars
      in
      emit (Protocol.Solve { assumps; max_conflicts = None; max_ms = None })
    end;
    incr op
  done;
  (List.rev !lines, !count)

let incremental ~seed =
  let base =
    G.Bigbench.bmc_lock_instance ~combo_len:16 ~reachable:true ~seed
  in
  let lines, requests =
    stream_lines ~seed ~base_vars:(Cnf.num_vars base.cnf)
  in
  let manifest =
    Json.Obj
      [
        "workload", Json.String "incremental";
        "seed", Json.Int seed;
        "base", Json.String "base.cnf";
        "stream", Json.String "stream.jsonl";
        "requests", Json.Int requests;
      ]
  in
  [
    "manifest.json", Json.to_string manifest ^ "\n";
    "base.cnf", dimacs_text (rng ~seed ~salt:0) base.cnf;
    "stream.jsonl", String.concat "\n" lines ^ "\n";
  ]

let generate ~workload ~seed =
  match workload with
  | "paper_hard" ->
    file_workload ~workload ~seed ~simplify:false
      (paper_hard_instances ())
  | "large_formula" ->
    file_workload ~workload ~seed ~simplify:true
      (large_formula_instances ())
  | "incremental" -> incremental ~seed
  | w -> invalid_arg ("unknown workload " ^ w)

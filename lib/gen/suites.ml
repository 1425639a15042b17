let hole () = [ Pigeonhole.instance 6 5; Pigeonhole.instance 7 6; Pigeonhole.instance 8 7 ]

let blocksworld () =
  [
    Blocksworld.sat_instance 4;
    Blocksworld.unsat_instance 4;
    Blocksworld.sat_instance 5;
    Blocksworld.unsat_instance 5;
  ]

let par16 () =
  [
    Parity.chain_instance ~num_vars:48 ~extra:24 ~seed:16;
    Parity.chain_instance ~num_vars:64 ~extra:32 ~seed:17;
    Parity.chain_instance ~num_vars:80 ~extra:40 ~seed:18;
  ]

let sss10 () =
  [
    Circuit_bench.pipeline_unsat ~stages:2 ~width:2;
    Circuit_bench.pipeline_unsat ~stages:2 ~width:3;
    Circuit_bench.adder_miter ~width:8;
    Circuit_bench.adder_miter ~width:12;
  ]

let sss10a () =
  [
    Circuit_bench.pipeline_unsat ~stages:2 ~width:4;
    Circuit_bench.alu_miter ~width:4;
  ]

let sss_sat10 () =
  [
    Circuit_bench.pipeline_sat ~stages:3 ~width:2;
    Circuit_bench.pipeline_sat ~stages:3 ~width:3;
    Circuit_bench.adder_buggy_miter ~width:12 ~seed:4;
    Circuit_bench.random_buggy_miter ~gates:150 ~seed:8;
  ]

let fvp_unsat10 () = [ Circuit_bench.pipeline_unsat ~stages:3 ~width:2 ]

let vliw_sat10 () =
  [
    Circuit_bench.pipeline_sat ~stages:4 ~width:3;
    Circuit_bench.pipeline_sat ~stages:4 ~width:4;
  ]

let beijing () =
  [
    Circuit_bench.adder_miter ~width:10;
    Parity.chain_instance ~num_vars:60 ~extra:30 ~seed:2;
    Instance.make "parity_cycle40" Instance.Expect_unsat
      (Parity.inconsistent_cycle ~num_vars:40);
    Graph_coloring.clique_instance 7 ~colors:7;
    Graph_coloring.clique_instance 7 ~colors:6;
    Blocksworld.sat_instance 4;
    Random_ksat.planted_instance ~num_vars:120 ~ratio:4.0 ~seed:31;
    (* The class's "easy CNF that trips some solvers" role: planted
       3-SAT near the threshold — seconds for the baselines, instant
       for BerkMin. *)
    Random_ksat.planted_instance ~num_vars:300 ~ratio:4.2 ~seed:77;
  ]

let hanoi () =
  [
    Hanoi.sat_instance 3;
    Hanoi.unsat_instance 3;
    Hanoi.sat_instance 4;
    Hanoi.sat_instance 5;
  ]

let miters () =
  Circuit_bench.miters_suite ()
  @ [
      Circuit_bench.mul_miter ~width:5;
      Circuit_bench.random_miter ~gates:400 ~seed:11;
    ]

let fvp_unsat20 () =
  [
    Circuit_bench.pipeline_unsat ~stages:3 ~width:3;
    Circuit_bench.pipeline_unsat ~stages:2 ~width:5;
    Parity.tseitin_instance ~num_vars:14 ~degree:3 ~seed:12;
  ]

(* Table 1's order; a name is looked up without building any
   formula. *)
let classes =
  [
    "Hole", hole;
    "Blocksworld", blocksworld;
    "Par16", par16;
    "Sss1.0", sss10;
    "Sss1.0a", sss10a;
    "Sss_sat1.0", sss_sat10;
    "Fvp_unsat1.0", fvp_unsat10;
    "Vliw_sat1.0", vliw_sat10;
    "Beijing", beijing;
    "Hanoi", hanoi;
    "Miters", miters;
    "Fvp_unsat2.0", fvp_unsat20;
  ]

let class_names = List.map fst classes

let all () = List.map (fun (name, generate) -> (name, generate ())) classes

let quick () =
  [
    "Hole", [ Pigeonhole.instance 6 5; Pigeonhole.instance 7 6 ];
    "Par16", [ Parity.chain_instance ~num_vars:48 ~extra:24 ~seed:16 ];
    "Blocksworld", [ Blocksworld.sat_instance 4 ];
    "Miters", [ Circuit_bench.adder_miter ~width:8 ];
  ]

let hard_instances () =
  [
    Circuit_bench.random_miter ~gates:400 ~seed:11;  (* miter70_60_5 role *)
    Hanoi.sat_instance 5;  (* hanoi6 role *)
    Random_ksat.planted_instance ~num_vars:300 ~ratio:4.2 ~seed:77;
    (* 2bitadd_10 role: easy-looking SAT instance some solvers choke on *)
    Circuit_bench.pipeline_unsat ~stages:3 ~width:3;  (* 7pipe role *)
    Circuit_bench.pipeline_unsat ~stages:3 ~width:2;  (* 9vliw role *)
  ]

let fuzz_seeds ~max_vars =
  let candidates =
    [
      Pigeonhole.instance 4 3;
      Pigeonhole.instance 5 4;
      Pigeonhole.instance 6 5;
      Instance.make "cycle7" Instance.Expect_unsat
        (Parity.inconsistent_cycle ~num_vars:7);
      Instance.make "cycle11" Instance.Expect_unsat
        (Parity.inconsistent_cycle ~num_vars:11);
      Graph_coloring.clique_instance 4 ~colors:3;
      Graph_coloring.cycle_instance 5 ~colors:2;
      Graph_coloring.cycle_instance 6 ~colors:2;
      Puzzles.queens_instance 5;
      Parity.chain_instance ~num_vars:12 ~extra:6 ~seed:3;
      Parity.tseitin_instance ~num_vars:8 ~degree:3 ~seed:5;
    ]
  in
  List.filter
    (fun i -> Berkmin_types.Cnf.num_vars i.Instance.cnf <= max_vars)
    candidates

let find_class name =
  match List.assoc_opt name classes with
  | Some generate -> generate ()
  | None -> raise Not_found

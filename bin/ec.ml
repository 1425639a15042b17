(* Combinational equivalence checker over BLIF netlists — the paper's
   own deployment domain (Cadence equivalence checking).

   Usage: ec a.blif b.blif
   Exit codes: 0 equivalent, 1 inequivalent, 2 error/unknown.

   Two flows share the miter construction:
   - one-shot (default): a single CNF with the ORed miter output
     forced to 1, one solve call;
   - incremental (--incremental): the miter is encoded once with no
     output constraint and one resident solver answers a per-output
     probe under an assumption on that output's XOR difference node,
     reusing learnt clauses and heuristic state across probes. *)

open Berkmin_types
module C = Berkmin_circuit.Circuit
module Blif = Berkmin_circuit.Blif
module M = Berkmin_circuit.Miter
module T = Berkmin_circuit.Tseitin
module Solver = Berkmin.Solver

let load path =
  try Ok (Blif.parse_file path) with
  | Sys_error msg -> Error msg
  | Blif.Parse_error { line; message } ->
    Error (Printf.sprintf "%s:%d: %s" path line message)

let report_counterexample miter mapping model file_a a file_b b =
  let inputs = M.interpret_model miter mapping model in
  Printf.printf "NOT EQUIVALENT; differentiating input:\n";
  List.iteri
    (fun i name ->
      Printf.printf "  %s = %d\n" name (if inputs.(i) then 1 else 0))
    (C.input_names miter);
  let oa = C.eval_outputs a inputs and ob = C.eval_outputs b inputs in
  List.iter
    (fun (name, va) ->
      let vb = List.assoc name ob in
      if va <> vb then
        Printf.printf "  output %s: %s=%d %s=%d\n" name file_a
          (if va then 1 else 0)
          file_b
          (if vb then 1 else 0))
    oa

let run_incremental ?config ~budget miter probes verbose file_a a file_b b =
  let mapping = T.encode miter in
  let solver = Solver.create ?config mapping.T.cnf in
  let rec probe = function
    | [] ->
      Printf.printf "EQUIVALENT (%d outputs probed, %d conflicts total)\n"
        (List.length probes)
        (Solver.stats solver).Berkmin.Stats.conflicts;
      0
    | (name, node) :: rest -> (
      let assumps = [ Lit.pos mapping.T.node_var.(node) ] in
      let before = (Solver.stats solver).Berkmin.Stats.conflicts in
      match Solver.solve ~budget ~assumps solver with
      | Solver.Unsat ->
        if verbose then
          Printf.printf "  probe %s: equivalent (+%d conflicts)\n" name
            ((Solver.stats solver).Berkmin.Stats.conflicts - before);
        probe rest
      | Solver.Sat model ->
        if verbose then Printf.printf "  probe %s: differs\n" name;
        report_counterexample miter mapping model file_a a file_b b;
        1
      | Solver.Unknown ->
        Printf.printf "UNKNOWN (budget exhausted probing output %s)\n" name;
        2)
  in
  probe probes

let run_oneshot ?config ~budget miter file_a a file_b b =
  let mapping = T.encode miter in
  T.assert_output miter mapping "miter" true;
  let solver = Solver.create ?config mapping.T.cnf in
  match Solver.solve ~budget solver with
  | Solver.Unsat ->
    Printf.printf "EQUIVALENT (%d conflicts)\n"
      (Solver.stats solver).Berkmin.Stats.conflicts;
    0
  | Solver.Sat model ->
    report_counterexample miter mapping model file_a a file_b b;
    1
  | Solver.Unknown ->
    Printf.printf "UNKNOWN (budget exhausted)\n";
    2

let run file_a file_b strategy max_conflicts max_seconds incremental verbose =
  match List.assoc_opt strategy Berkmin.Config.presets with
  | None ->
    Printf.eprintf
      "berkmin-ec: unknown strategy %S; available: %s\n\
       try 'berkmin-ec --help' for usage\n"
      strategy
      (String.concat ", " (List.map fst Berkmin.Config.presets));
    2
  | Some config -> (
    let config = Some config in
    match load file_a, load file_b with
    | Error e, _ | _, Error e ->
      Printf.eprintf "berkmin-ec: %s\n" e;
      2
    | Ok a, Ok b -> (
      if verbose then begin
        Format.printf "%s: %a@." file_a C.pp_stats a;
        Format.printf "%s: %a@." file_b C.pp_stats b
      end;
      match M.build_probed a b with
      | exception Invalid_argument msg ->
        Printf.eprintf "incompatible interfaces: %s\n" msg;
        2
      | miter, probes ->
        let budget = { Solver.max_conflicts; max_seconds } in
        if incremental then
          run_incremental ?config ~budget miter probes verbose file_a a file_b b
        else run_oneshot ?config ~budget miter file_a a file_b b))

open Cmdliner

let file_a =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"A.blif")

let file_b =
  Arg.(required & pos 1 (some file) None & info [] ~docv:"B.blif")

let strategy =
  Arg.(
    value & opt string "berkmin"
    & info [ "s"; "strategy" ] ~docv:"NAME" ~doc:"Solver preset.")

let max_conflicts =
  let non_negative =
    Arg.conv
      ( (fun s ->
          match int_of_string_opt s with
          | Some n when n >= 0 -> Ok n
          | Some _ | None -> Error (`Msg "expected a non-negative integer")),
        Format.pp_print_int )
  in
  Arg.(
    value & opt (some non_negative) None
    & info [ "max-conflicts" ] ~docv:"N"
        ~doc:"Abort after N conflicts (per probe with --incremental).")

let max_seconds =
  Arg.(
    value & opt (some float) None
    & info [ "max-seconds" ] ~docv:"S"
        ~doc:"Abort after S CPU seconds (per probe with --incremental).")

let incremental =
  Arg.(
    value & flag
    & info [ "i"; "incremental" ]
        ~doc:
          "Probe each output separately under assumptions on one \
           resident solver instead of solving the ORed miter once.")

let verbose =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print netlist and per-probe stats.")

let cmd =
  let doc = "SAT-based combinational equivalence checking of BLIF netlists" in
  Cmd.v
    (Cmd.info "berkmin-ec" ~doc)
    Term.(
      const run $ file_a $ file_b $ strategy $ max_conflicts $ max_seconds
      $ incremental $ verbose)

let () = exit (Cmd.eval' cmd)

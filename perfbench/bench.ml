(* The benchmark's executable: the input generator and the two workers
   that run one workload operation each in a fresh process.  run.py
   drives it; README.md describes the workloads and the output.

     bench.exe gen WORKLOAD SEED DIR
     bench.exe file FILE EXPECT SIMPLIFY TRACE
     bench.exe stream DIR SEED PASS TRACE

   Each worker prints one JSON object on stdout.  Times come from the
   monotonic clock, taken only at the public calls that enter a layer. *)

open Berkmin_types
module Dimacs = Berkmin_dimacs.Dimacs
module Solver = Berkmin.Solver
module Stats = Berkmin.Stats
module Server = Berkmin_server.Server
module Protocol = Berkmin_server.Protocol
module Checks = Berkmin_perfbench.Checks
module Inputs = Berkmin_perfbench.Inputs

let now = Monotonic_clock.now
let seconds a b = Int64.to_float (Int64.sub b a) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Spans, recorded only in traced runs and printed when the worker
   ends.  A span's counts are Stats deltas across the call. *)

type span = {
  index : int;
  name : string;
  id : int;
  parent : int;
  start : int64;
  stop : int64;
  counts : (string * int) list;
}

let tracing = ref false
let opened = ref 0
let current = ref (-1)
let finished = ref []

type counter = string * (Stats.t -> int)

let search_counters : counter list =
  [
    "conflicts", (fun s -> s.Stats.conflicts);
    "decisions", (fun s -> s.decisions);
    "propagations", (fun s -> s.propagations);
    "binary_propagations", (fun s -> s.binary_propagations);
    "watcher_visits", (fun s -> s.watcher_visits);
    "blocker_hits", (fun s -> s.blocker_hits);
    "top_clause_decisions", (fun s -> s.top_clause_decisions);
    "top_cursor_steps", (fun s -> s.top_cursor_steps);
    "global_decisions", (fun s -> s.global_decisions);
    "nb_two_cache_hits", (fun s -> s.nb_two_cache_hits);
    "restarts", (fun s -> s.restarts);
    "reductions", (fun s -> s.reductions);
    "removed_clauses", (fun s -> s.removed_clauses);
    "learnt_total", (fun s -> s.learnt_total);
    "learnt_literals", (fun s -> s.learnt_literals);
    "gc_runs", (fun s -> s.gc_runs);
    "gc_reclaimed_bytes", (fun s -> s.gc_reclaimed_bytes);
    "eliminated_vars", (fun s -> s.eliminated_vars);
    "subsumed", (fun s -> s.subsumed);
    "strengthened", (fun s -> s.strengthened);
    "failed_literals", (fun s -> s.failed_literals);
    "simplified_clauses", (fun s -> s.simplified_clauses);
  ]

let request_counters : counter list =
  [
    "conflicts", (fun s -> s.Stats.conflicts);
    "decisions", (fun s -> s.decisions);
    "propagations", (fun s -> s.propagations);
  ]

(* The record [Solver.stats] returns is live; a copy freezes it. *)
let snapshot (s : Stats.t) = { s with decisions = s.decisions }

let deltas counters before after =
  List.map (fun (name, get) -> (name, get after - get before)) counters

let span ?stats name id f =
  if not !tracing then f ()
  else begin
    let index = !opened in
    incr opened;
    let parent = !current in
    current := index;
    let before =
      match stats with
      | Some (counters, get) -> Option.map (fun s -> (counters, snapshot s)) (get ())
      | None -> None
    in
    let start = now () in
    let finish () =
      let stop = now () in
      current := parent;
      let counts =
        match before, stats with
        | Some (counters, b), Some (_, get) -> (
          match get () with Some a -> deltas counters b a | None -> [])
        | _ -> []
      in
      finished := { index; name; id; parent; start; stop; counts } :: !finished
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let counts_json counts =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counts)

let spans_json () =
  Json.List
    (List.rev_map
       (fun s ->
         Json.Obj
           [
             "index", Json.Int s.index;
             "name", Json.String s.name;
             "id", Json.Int s.id;
             "parent", Json.Int s.parent;
             "start_ns", Json.Int (Int64.to_int s.start);
             "stop_ns", Json.Int (Int64.to_int s.stop);
             "counts", counts_json s.counts;
           ])
       !finished)

(* ------------------------------------------------------------------ *)
(* Helpers *)

let vmhwm_kb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> 0
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d" Fun.id
        | Some _ -> go ()
      in
      go ())

let read_file path = In_channel.with_open_bin path In_channel.input_all

let print_result fields =
  print_string (Json.to_string (Json.Obj fields));
  print_newline ()

(* ------------------------------------------------------------------ *)
(* One DIMACS instance, on the path [berkmin_cli FILE --check] takes:
   parse, create, (simplify,) solve, check. *)

let file_worker ~file ~expect ~simplify =
  let stats_of s () = Some (Solver.stats s) in
  let t0 = now () in
  span "instance" 0 @@ fun () ->
  let cnf = span "dimacs.parse_file" 0 (fun () -> Dimacs.parse_file file) in
  let solver = span "solver.create" 0 (fun () -> Solver.create cnf) in
  let t_setup = now () in
  let after_create = snapshot (Solver.stats solver) in
  let arena_bytes = Solver.arena_bytes solver in
  if simplify then
    span ~stats:(search_counters, stats_of solver) "solver.simplify" 0
      (fun () -> Solver.simplify solver);
  let after_simplify = snapshot (Solver.stats solver) in
  let result =
    span ~stats:(search_counters, stats_of solver) "solver.solve" 0 (fun () ->
        Solver.solve solver)
  in
  let verdict, checked =
    match result with
    | Solver.Sat model ->
      ( "sat",
        expect = "sat"
        && span "cnf.satisfied_by" 0 (fun () ->
               Checks.model_ok cnf ~assumps:[] model) )
    | Solver.Unsat -> ("unsat", expect = "unsat")
    | Solver.Unknown -> ("unknown", false)
  in
  let t_end = now () in
  let final = Solver.stats solver in
  [
    "ok", Json.Bool checked;
    "verdict", Json.String verdict;
    "time_to_verdict_s", Json.Float (seconds t0 t_end);
    "setup_s", Json.Float (seconds t0 t_setup);
    "bytes", Json.Int (Unix.stat file).Unix.st_size;
    "literals", Json.Int (Cnf.num_literals cnf);
    "vars", Json.Int (Solver.num_vars solver);
    "arena_bytes", Json.Int arena_bytes;
    "simplify", counts_json (deltas search_counters after_create after_simplify);
    "search", counts_json (deltas search_counters after_simplify final);
    "max_learnt_live", Json.Int final.max_learnt_live;
  ]

(* ------------------------------------------------------------------ *)
(* One pass of the incremental workload: a resident daemon session
   driven in-process by one closed-loop client. *)

exception Request_timeout

(* A request that runs longer than this ends the stream as failed. *)
let request_limit_ns = 10_000_000_000L

(* Sampled cores re-solved on a fresh solver after the stream. *)
let cores_per_pass = 6

let handle_span_name = function
  | "add_clauses" -> "server.handle_line:add_clauses"
  | "new_var" -> "server.handle_line:new_var"
  | "solve" -> "server.handle_line:solve"
  | _ -> "server.handle_line:other"

let json_string_field name json =
  match Option.bind (Json.member name json) Json.to_string_opt with
  | Some s -> s
  | None -> failwith ("manifest: missing " ^ name)

let stream_worker ~dir ~seed ~pass =
  let manifest = Json.of_string (read_file (Filename.concat dir "manifest.json")) in
  let base_file = Filename.concat dir (json_string_field "base" manifest) in
  let lines =
    Array.of_list
      (In_channel.with_open_bin
         (Filename.concat dir (json_string_field "stream" manifest))
         In_channel.input_lines)
  in
  let errors = ref [] and failures = ref 0 in
  let fail msg =
    incr failures;
    if List.length !errors < 5 then errors := msg :: !errors
  in
  (* The client reads its formula and keeps a mirror of the session's
     clauses to check every answer against. *)
  let mirror = span "dimacs.parse_file" 0 (fun () -> Dimacs.parse_file base_file) in
  let server = Server.create () in
  let session_stats () =
    Option.map Solver.stats (Server.session_solver server "s")
  in
  let request command =
    Json.to_string
      (Protocol.request_to_json { id = None; session = Some "s"; command })
  in
  let open_line = request (Protocol.Open { vars = Cnf.num_vars mirror }) in
  let add_line =
    request
      (Protocol.Add_clauses
         { clauses = List.map Clause.to_list (Cnf.clauses mirror) })
  in
  let response_ok line =
    match Json.of_string line with
    | json when Json.member "ok" json = Some (Json.Bool true) -> Some json
    | _ | (exception Json.Parse_error _) -> None
  in
  let t0 = now () in
  let r_open, _ =
    span "server.handle_line:setup" 0 (fun () ->
        Server.handle_line server open_line)
  in
  let r_add, _ =
    span "server.handle_line:setup" 0 (fun () ->
        Server.handle_line server add_line)
  in
  let t1 = now () in
  if response_ok r_open = None then fail "open failed";
  (match Option.bind (response_ok r_add) (Json.member "added") with
  | Some (Json.Int n) when n = Cnf.num_clauses mirror -> ()
  | _ -> fail "base add_clauses failed");
  let after_base =
    match session_stats () with Some s -> snapshot s | None -> Stats.create ()
  in
  let n = Array.length lines in
  let latencies = Array.make n 0.0 in
  let done_ = ref 0 in
  let ops = Hashtbl.create 8 in
  let bump table key =
    Hashtbl.replace table key (1 + Option.value ~default:0 (Hashtbl.find_opt table key))
  in
  let sat = ref 0 and unsat = ref 0 and response_bytes = ref 0 in
  let core_literals = ref 0 and digest = ref (Digest.string "") in
  (* Reservoir sample of cores, with the clause and variable counts of
     the session when each was returned. *)
  let sample_rng = Rng.create ((seed * 7919) + pass + 1) in
  let sample = Array.make cores_per_pass None and seen_cores = ref 0 in
  let check i (req : Protocol.request) json model =
    match req.command, Option.bind (Json.member "status" json) Json.to_string_opt with
    | Protocol.New_var _, _ -> (
      let expected = Cnf.num_vars mirror + 1 in
      match Json.member "vars" json with
      | Some (Json.List [ Json.Int v ]) when v = expected ->
        Cnf.ensure_vars mirror expected
      | _ -> fail (Printf.sprintf "request %d: new_var answered wrongly" i))
    | Protocol.Add_clauses { clauses }, _ -> (
      List.iter (Cnf.add_clause mirror) clauses;
      match Json.member "added" json with
      | Some (Json.Int k) when k = List.length clauses -> ()
      | _ -> fail (Printf.sprintf "request %d: add_clauses answered wrongly" i))
    | Protocol.Solve { assumps; _ }, Some "sat" -> (
      incr sat;
      match model with
      | Some model
        when span "cnf.satisfied_by" i (fun () ->
                 Checks.model_ok mirror ~assumps model) ->
        ()
      | _ -> fail (Printf.sprintf "request %d: model fails the check" i))
    | Protocol.Solve { assumps; _ }, Some "unsat" -> (
      incr unsat;
      match Option.bind (Json.member "core" json) Checks.lits_of_json with
      | Some (_ :: _ as core) when Checks.core_subset ~assumps core ->
        core_literals := !core_literals + List.length core;
        incr seen_cores;
        let slot =
          if !seen_cores <= cores_per_pass then !seen_cores - 1
          else Rng.int sample_rng !seen_cores
        in
        if slot < cores_per_pass then
          sample.(slot) <-
            Some (i, core, Cnf.num_clauses mirror, Cnf.num_vars mirror)
      | _ -> fail (Printf.sprintf "request %d: core missing or not a subset" i))
    | _, status ->
      fail
        (Printf.sprintf "request %d: unexpected answer %s" i
           (Option.value ~default:"(none)" status))
  in
  let deadline = ref Int64.max_int in
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ -> if Int64.compare (now ()) !deadline > 0 then raise Request_timeout));
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = 0.5; it_value = 0.5 });
  (try
     for i = 0 to n - 1 do
       let line = lines.(i) in
       span "request" i (fun () ->
           match span "protocol.parse_line" i (fun () -> Protocol.parse_line line) with
           | Error msg -> fail (Printf.sprintf "request %d: %s" i msg)
           | Ok req ->
             let op = Protocol.op_name req.command in
             bump ops op;
             let a = now () in
             deadline := Int64.add a request_limit_ns;
             let response, _ =
               span
                 ~stats:(request_counters, session_stats)
                 (handle_span_name op) i
                 (fun () -> Server.handle_line server line)
             in
             let b = now () in
             deadline := Int64.max_int;
             latencies.(i) <- seconds a b;
             done_ := i + 1;
             response_bytes := !response_bytes + String.length response;
             digest := Digest.string (!digest ^ Digest.string response);
             match
               Checks.decode_answer ~num_vars:(Cnf.num_vars mirror) response
             with
             | Some (json, model) when Json.member "ok" json = Some (Json.Bool true)
               ->
               check i req json model
             | _ -> fail (Printf.sprintf "request %d: error response" i))
     done
   with Request_timeout ->
     fail (Printf.sprintf "request %d exceeded the time limit" !done_));
  ignore
    (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = 0. });
  let final = match session_stats () with Some s -> s | None -> after_base in
  let solver = Server.session_solver server "s" in
  (* Outside the timed stream: re-solve the sampled cores. *)
  let resolved = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some (i, core, num_clauses, num_vars) ->
        let cnf = Cnf.create ~num_vars () in
        for c = 0 to num_clauses - 1 do
          Cnf.add cnf (Cnf.get mirror c)
        done;
        incr resolved;
        if not (span "core.resolve" i (fun () -> Checks.core_unsat cnf core))
        then fail (Printf.sprintf "request %d: core is satisfiable" i))
    sample;
  let solver_int f = match solver with Some s -> f s | None -> 0 in
  [
      "ok", Json.Bool (!failures = 0 && !done_ = n);
      "failures", Json.Int !failures;
      "errors", Json.List (List.rev_map (fun e -> Json.String e) !errors);
      "setup_s", Json.Float (seconds t0 t1);
      "requests", Json.Int !done_;
      "latencies_s",
      Json.List (List.init !done_ (fun i -> Json.Float latencies.(i)));
      "ops", counts_json (Hashtbl.fold (fun k v acc -> (k, v) :: acc) ops []
                          |> List.sort compare);
      "sat", Json.Int !sat;
      "unsat", Json.Int !unsat;
      "response_bytes", Json.Int !response_bytes;
      "core_literals", Json.Int !core_literals;
      "cores_resolved", Json.Int !resolved;
      "session", counts_json (deltas search_counters after_base final);
      "session_vars", Json.Int (solver_int Solver.num_vars);
      "session_learnt_live", Json.Int (solver_int Solver.num_learnt_live);
      "session_arena_bytes", Json.Int (solver_int Solver.arena_bytes);
      "digest", Json.String (Digest.to_hex !digest);
      "base_bytes", Json.Int (Unix.stat base_file).Unix.st_size;
      "base_literals", Json.Int (Cnf.num_literals mirror);
    ]

(* ------------------------------------------------------------------ *)

let generate ~workload ~seed ~dir =
  List.iter
    (fun (name, contents) ->
      Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
          Out_channel.output_string oc contents))
    (Inputs.generate ~workload ~seed)

let usage () =
  prerr_endline
    "usage: bench.exe gen WORKLOAD SEED DIR\n\
    \       bench.exe file FILE EXPECT SIMPLIFY TRACE\n\
    \       bench.exe stream DIR SEED PASS TRACE";
  exit 2

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "gen"; workload; seed; dir ] ->
    generate ~workload ~seed:(int_of_string seed) ~dir
  | [ "file"; file; expect; simplify; trace ] ->
    tracing := trace = "1";
    let fields = file_worker ~file ~expect ~simplify:(simplify = "1") in
    print_result
      (fields @ [ "vmhwm_kb", Json.Int (vmhwm_kb ()); "spans", spans_json () ])
  | [ "stream"; dir; seed; pass; trace ] ->
    tracing := trace = "1";
    let fields =
      span "session" 0 (fun () ->
          stream_worker ~dir ~seed:(int_of_string seed)
            ~pass:(int_of_string pass))
    in
    print_result
      (fields @ [ "vmhwm_kb", Json.Int (vmhwm_kb ()); "spans", spans_json () ])
  | _ -> usage ()

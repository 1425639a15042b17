(* Tests for the observability layer: the Json emitter/parser, Stats
   JSON round-trips, and the Trace event stream (callback and JSONL
   sinks) on a small pigeonhole solve. *)

open Berkmin_types
module Trace = Berkmin.Trace
module Config = Berkmin.Config
module Solver = Berkmin.Solver
module Stats = Berkmin.Stats

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Json                                                                *)

let roundtrip j = Json.of_string (Json.to_string j)

let test_json_roundtrip () =
  let samples =
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Int 0;
      Json.Int (-42);
      Json.Int max_int;
      Json.Int min_int;
      Json.Float 0.25;
      Json.Float 1e-3;
      Json.Float 1.7976931348623157e308;
      Json.String "";
      Json.String "with \"quotes\" and \\ and \n tab\t";
      Json.List [ Json.Int 1; Json.String "two"; Json.Null ];
      Json.Obj
        [
          "a", Json.Int 1;
          "nested", Json.Obj [ "b", Json.List [ Json.Bool false ] ];
        ];
    ]
  in
  List.iter
    (fun j ->
      check Alcotest.bool
        (Printf.sprintf "roundtrip %s" (Json.to_string j))
        true
        (roundtrip j = j))
    samples;
  (* pretty output parses back to the same value too *)
  let big =
    Json.Obj [ "xs", Json.List (List.init 20 (fun i -> Json.Int i)) ]
  in
  check Alcotest.bool "pretty roundtrip" true
    (Json.of_string (Json.to_string_pretty big) = big)

(* The integer writer prints exactly what [string_of_int] prints. *)
let prints_as_string_of_int n = Json.to_string (Json.Int n) = string_of_int n

(* Each digit-count boundary, both signs, and [min_int], whose negation
   overflows. *)
let int_edges =
  let rec powers p = if p > max_int / 10 then [ p ] else p :: powers (p * 10) in
  let positive =
    1 :: 9 :: List.concat_map (fun p -> [ p - 1; p ]) (powers 10)
  in
  (0 :: min_int :: max_int :: positive) @ List.map (fun n -> -n) positive

let test_json_int_edges () =
  List.iter
    (fun n ->
      check Alcotest.string (string_of_int n) (string_of_int n)
        (Json.to_string (Json.Int n)))
    int_edges

(* Random ints of every size, with the edges drawn often enough that
   each one comes up in a run. *)
let prop_json_int =
  QCheck.Test.make ~name:"json: Int n prints as string_of_int n" ~count:10_000
    QCheck.(oneof [ int; small_signed_int; oneofl int_edges ])
    prints_as_string_of_int

let test_json_float_repr () =
  (* floats always re-parse as floats, never silently become ints *)
  (match roundtrip (Json.Float 2.0) with
  | Json.Float f -> check (Alcotest.float 0.0) "2.0 stays float" 2.0 f
  | _ -> Alcotest.fail "Float 2.0 did not re-parse as a float");
  (* non-finite values have no JSON spelling; they serialize as null *)
  check Alcotest.string "nan" "null" (Json.to_string (Json.Float Float.nan));
  check Alcotest.string "inf" "null"
    (Json.to_string (Json.Float Float.infinity))

let test_json_accessors () =
  let j = Json.of_string {|{"a": 1, "b": [2.5, "x"], "c": null}|} in
  check Alcotest.(option int) "member a" (Some 1)
    (Option.bind (Json.member "a" j) Json.to_int_opt);
  (match Json.member "b" j with
  | Some (Json.List [ f; s ]) ->
    check Alcotest.(option (float 0.0)) "b[0]" (Some 2.5) (Json.to_float_opt f);
    check Alcotest.(option string) "b[1]" (Some "x") (Json.to_string_opt s)
  | _ -> Alcotest.fail "member b");
  check Alcotest.bool "missing member" true (Json.member "zzz" j = None)

let test_json_errors () =
  let bad = [ ""; "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"unterminated" ] in
  List.iter
    (fun s ->
      match Json.of_string s with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "parsed invalid input %S" s))
    bad

(* ------------------------------------------------------------------ *)
(* Stats JSON                                                          *)

let solve_hole ?(config = Config.berkmin) n =
  let inst = Berkmin_gen.Pigeonhole.instance n (n - 1) in
  let solver = Solver.create ~config inst.Berkmin_gen.Instance.cnf in
  let result = Solver.solve solver in
  (solver, result)

let test_stats_to_json_roundtrip () =
  let solver, result = solve_hole 6 in
  check Alcotest.bool "hole(6,5) unsat" true (result = Solver.Unsat);
  let st = Solver.stats solver in
  let j = Json.of_string (Json.to_string (Stats.to_json ~seconds:0.5 st)) in
  let get name = Option.bind (Json.member name j) Json.to_int_opt in
  check Alcotest.(option int) "conflicts" (Some st.Stats.conflicts)
    (get "conflicts");
  check Alcotest.(option int) "decisions" (Some st.Stats.decisions)
    (get "decisions");
  check Alcotest.(option int) "propagations" (Some st.Stats.propagations)
    (get "propagations");
  check
    Alcotest.(option (float 1e-6))
    "props_per_sec"
    (Some (float_of_int st.Stats.propagations /. 0.5))
    (Option.bind (Json.member "props_per_sec" j) Json.to_float_opt);
  (* the skin histogram survives as a list of ints *)
  match Json.member "skin" j with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "skin missing or empty"

(* --profile only reads the clock: every count is the same with the
   timers on, and the three timer rows stay in the JSON either way. *)
let test_profile_timers () =
  let profiled, r1 =
    solve_hole ~config:{ Config.berkmin with profile_timers = true } 6
  in
  let plain, r2 = solve_hole 6 in
  check Alcotest.bool "both unsat" true
    (r1 = Solver.Unsat && r2 = Solver.Unsat);
  let on = Solver.stats profiled and off = Solver.stats plain in
  List.iter
    (fun { Stats.name; read; _ } ->
      match read with
      | Stats.Int f -> check Alcotest.int name (f off) (f on)
      | Stats.Seconds _ -> ())
    Stats.counters;
  let timer st name =
    match Json.member name (Stats.to_json st) with
    | Some (Json.Float x) -> x
    | _ -> Alcotest.failf "%s missing from Stats.to_json" name
  in
  List.iter
    (fun name ->
      check (Alcotest.float 0.0) (name ^ " off") 0.0 (timer off name))
    [ "time_bcp"; "time_analyze"; "time_reduce" ];
  check Alcotest.bool "profiled run timed its BCP" true
    (timer on "time_bcp" > 0.0)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)

let count_events pred events =
  List.length (List.filter pred events)

let test_trace_callback_sink () =
  let inst = Berkmin_gen.Pigeonhole.instance 6 5 in
  let solver = Solver.create inst.Berkmin_gen.Instance.cnf in
  check Alcotest.bool "inactive by default" false
    (Trace.active (Solver.trace solver));
  let events = ref [] in
  Solver.set_trace_sink solver (Trace.Callback (fun e -> events := e :: !events));
  check Alcotest.bool "active with sink" true
    (Trace.active (Solver.trace solver));
  let result = Solver.solve solver in
  check Alcotest.bool "unsat" true (result = Solver.Unsat);
  let events = List.rev !events in
  let st = Solver.stats solver in
  let conflicts =
    count_events (function Trace.Conflict _ -> true | _ -> false) events
  in
  let decides =
    count_events (function Trace.Decide _ -> true | _ -> false) events
  in
  let learns =
    count_events (function Trace.Learn _ -> true | _ -> false) events
  in
  check Alcotest.int "one event per conflict" st.Stats.conflicts conflicts;
  check Alcotest.int "one event per decision" st.Stats.decisions decides;
  check Alcotest.int "one event per learnt clause" st.Stats.learnt_total
    learns;
  check Alcotest.int "emitted counter" (List.length events)
    (Trace.emitted (Solver.trace solver));
  (* every event serializes to a one-line JSON object *)
  List.iter
    (fun e ->
      let line = Json.to_string (Trace.event_to_json e) in
      check Alcotest.bool "single line" false (String.contains line '\n');
      match Json.of_string line with
      | Json.Obj (("event", Json.String _) :: _) -> ()
      | _ -> Alcotest.fail "event JSON shape")
    events

let test_trace_jsonl_sink () =
  let path = Filename.temp_file "berkmin_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let inst = Berkmin_gen.Pigeonhole.instance 6 5 in
      let solver = Solver.create inst.Berkmin_gen.Instance.cnf in
      Solver.set_trace_sink solver (Trace.open_jsonl path);
      check Alcotest.bool "unsat" true (Solver.solve solver = Solver.Unsat);
      Solver.close_trace solver;
      check Alcotest.bool "sink closed" false
        (Trace.active (Solver.trace solver));
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      check Alcotest.int "one line per event"
        (Trace.emitted (Solver.trace solver))
        (List.length lines);
      List.iter
        (fun line ->
          match Json.of_string line with
          | Json.Obj (("event", Json.String _) :: _) -> ()
          | _ -> Alcotest.fail (Printf.sprintf "bad trace line %S" line))
        lines)

let test_trace_heartbeat () =
  let interval = 25 in
  let config = { Config.berkmin with heartbeat_interval = interval } in
  let inst = Berkmin_gen.Pigeonhole.instance 7 6 in
  let solver = Solver.create ~config inst.Berkmin_gen.Instance.cnf in
  let beats = ref [] in
  Solver.set_trace_sink solver
    (Trace.Callback
       (function
         | Trace.Heartbeat { conflict_no; propagations; _ } ->
           beats := (conflict_no, propagations) :: !beats
         | _ -> ()));
  ignore (Solver.solve solver);
  let st = Solver.stats solver in
  check Alcotest.int "one beat per interval"
    (st.Stats.conflicts / interval)
    (List.length !beats);
  List.iter
    (fun (conflict_no, propagations) ->
      check Alcotest.bool "conflict_no on the grid" true
        (conflict_no mod interval = 0);
      check Alcotest.bool "propagations monotone" true (propagations > 0))
    !beats

(* The rows of the first table after [heading] in docs/OBSERVABILITY.md,
   each split into its trimmed cells. *)
let doc_table heading =
  let text =
    In_channel.with_open_text "../docs/OBSERVABILITY.md" In_channel.input_all
  in
  let rec section = function
    | [] -> Alcotest.failf "no %S section in docs/OBSERVABILITY.md" heading
    | l :: rest -> if l = heading then rest else section rest
  in
  let rec table acc = function
    | l :: rest when String.length l > 0 && l.[0] = '|' -> table (l :: acc) rest
    | _ :: rest when acc = [] -> table acc rest
    | _ -> List.rev acc
  in
  List.map
    (fun line -> List.map String.trim (String.split_on_char '|' line))
    (table [] (section (String.split_on_char '\n' text)))

(* The name in a cell that holds one backquoted name. *)
let code_cell c =
  if String.length c > 2 && c.[0] = '`' then
    Some (String.sub c 1 (String.length c - 2))
  else None

(* The Statistics table as (field, meaning) pairs. *)
let stats_doc_rows () =
  List.filter_map
    (function
      | [ ""; field; _; meaning; "" ] ->
        Option.map (fun f -> (f, meaning)) (code_cell field)
      | _ -> None)
    (doc_table "## Statistics object (`Stats.to_json`)")

let test_stats_select_unknown () =
  Alcotest.check_raises "unknown name"
    (Invalid_argument "Stats.select: no counter named conflict")
    (fun () ->
      let (_ : Stats.t -> _) = Stats.select [ "decisions"; "conflict" ] in
      ())

let test_stats_docs_table () =
  let rows = stats_doc_rows () in
  let keys =
    match Stats.to_json ~worker:0 ~seconds:1.0 (Stats.create ()) with
    | Json.Obj fields -> List.map fst fields
    | _ -> Alcotest.fail "stats JSON is not an object"
  in
  check
    Alcotest.(list string)
    "one row per emitted key" (List.sort compare keys)
    (List.sort compare (List.map fst rows));
  List.iter
    (fun { Stats.name; meaning; _ } ->
      check
        Alcotest.(option string)
        (name ^ " meaning") (Some meaning) (List.assoc_opt name rows))
    Stats.counters

(* One sample of every trace event, chained through an exhaustive match
   with no wildcard: a new constructor does not compile until it joins
   the chain, and [test_trace_docs_table] then wants its row. *)
let rec trace_samples (e : Trace.event) =
  e
  ::
  (match e with
  | Decide _ -> trace_samples (Propagate { level = 1; lit = 2 })
  | Propagate _ -> trace_samples (Conflict { level = 1; conflict_no = 1 })
  | Conflict _ ->
    trace_samples (Learn { size = 2; asserting = 3; backjump_level = 0 })
  | Learn _ -> trace_samples (Backjump { from_level = 1; to_level = 0 })
  | Backjump _ ->
    trace_samples (Restart { restart_no = 1; conflict_no = 550; seq_index = 1 })
  | Restart _ ->
    trace_samples
      (Reduce_db
         {
           live_before = 10;
           removed = 4;
           threshold = 60;
           glue_kept = 0;
           glue_dropped = 0;
         })
  | Reduce_db _ ->
    trace_samples
      (Simplify
         {
           rounds = 1;
           subsumed = 2;
           strengthened = 1;
           eliminated_vars = 0;
           failed_literals = 0;
           clauses_before = 10;
           clauses_after = 8;
         })
  | Simplify _ ->
    trace_samples
      (Gc { reclaimed_bytes = 64; arena_bytes_before = 256; arena_bytes_after = 192 })
  | Gc _ ->
    trace_samples
      (Heartbeat
         {
           conflict_no = 100;
           decisions = 120;
           propagations = 900;
           learnt_live = 80;
           seconds = 0.01;
         })
  | Heartbeat _ ->
    trace_samples (Share { direction = Trace.S_export; size = 2; glue = 2 })
  | Share _ -> trace_samples (Warn { message = "sample" })
  | Warn _ ->
    trace_samples
      (Server_request
         {
           session = "s";
           op = "solve";
           status = "sat";
           conflicts = 0;
           propagations = 3;
           latency_ms = 0.1;
         })
  | Server_request _ -> [])

let test_trace_docs_table () =
  let written =
    List.map
      (fun e ->
        match Trace.event_to_json e with
        | Json.Obj (("event", Json.String name) :: _) -> name
        | json -> Alcotest.failf "event JSON shape: %s" (Json.to_string json))
      (trace_samples
         (Decide { level = 1; var = 0; value = true; kind = Trace.D_top_clause }))
  in
  let documented =
    List.filter_map
      (function _ :: name :: _ -> code_cell name | [] | [ _ ] -> None)
      (doc_table "## Trace JSONL (`--trace FILE`)")
  in
  check
    Alcotest.(list string)
    "one row per event" (List.sort compare written)
    (List.sort compare documented)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "metrics"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "int edges" `Quick test_json_int_edges;
          QCheck_alcotest.to_alcotest prop_json_int;
          Alcotest.test_case "float repr" `Quick test_json_float_repr;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "errors" `Quick test_json_errors;
        ] );
      ( "stats",
        [
          Alcotest.test_case "to_json roundtrip" `Quick
            test_stats_to_json_roundtrip;
          Alcotest.test_case "profile timers leave the search alone" `Quick
            test_profile_timers;
          Alcotest.test_case "select unknown name" `Quick
            test_stats_select_unknown;
          Alcotest.test_case "docs table" `Quick test_stats_docs_table;
        ] );
      ( "trace",
        [
          Alcotest.test_case "callback sink" `Quick test_trace_callback_sink;
          Alcotest.test_case "jsonl sink" `Quick test_trace_jsonl_sink;
          Alcotest.test_case "heartbeat" `Quick test_trace_heartbeat;
          Alcotest.test_case "docs table" `Quick test_trace_docs_table;
        ] );
    ]

(* Server-layer tests: protocol parsing, in-process request servicing,
   session lifecycle, per-request budgets, trace/metrics plumbing, and
   a forked end-to-end socket round-trip with concurrent clients. *)

open Berkmin_types
module Protocol = Berkmin_server.Protocol
module Server = Berkmin_server.Server
module Client = Berkmin_server.Client
module Trace = Berkmin.Trace
module Metrics = Berkmin.Metrics

let check = Alcotest.check

let obj fields = Json.Obj fields
let str s = Json.String s
let int n = Json.Int n

let handle_ok server request =
  match Server.handle server request with
  | response, `Continue -> response
  | _, `Shutdown -> Alcotest.fail "unexpected shutdown"

let assert_ok response =
  match Json.member "ok" response with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.failf "expected ok response, got %s" (Json.to_string response)

let contains ~needle haystack =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let assert_error response fragment =
  (match Json.member "ok" response with
  | Some (Json.Bool false) -> ()
  | _ ->
    Alcotest.failf "expected error response, got %s" (Json.to_string response));
  match Json.member "error" response with
  | Some (Json.String msg) ->
    if not (contains ~needle:fragment msg) then
      Alcotest.failf "error %S does not mention %S" msg fragment
  | _ -> Alcotest.fail "error response without message"

let status_of response =
  match Json.member "status" response with
  | Some (Json.String s) -> s
  | _ -> Alcotest.failf "no status in %s" (Json.to_string response)

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)

let test_protocol_parse () =
  (match Protocol.parse_line {|{"op":"solve","session":"s","assumps":[1,-2]}|} with
  | Ok { session = Some "s"; command = Protocol.Solve { assumps; _ }; _ } ->
    check (Alcotest.list Alcotest.int) "assumps decoded"
      [ Lit.of_dimacs 1; Lit.of_dimacs (-2) ]
      assumps
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error e -> Alcotest.fail e);
  (match Protocol.parse_line {|{"op":"solve","assumps":[0]}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "literal 0 must be rejected");
  (match Protocol.parse_line {|{"op":"nope"}|} with
  | Error e -> check Alcotest.bool "names the op" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "unknown op must be rejected");
  match Protocol.parse_line "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed JSON must be rejected"

let test_protocol_roundtrip () =
  let req =
    {
      Protocol.id = Some (int 7);
      session = Some "s";
      command =
        Protocol.Solve
          {
            assumps = [ Lit.of_dimacs 3; Lit.of_dimacs (-1) ];
            max_conflicts = Some 10;
            max_ms = None;
          };
    }
  in
  match Protocol.parse (Protocol.request_to_json req) with
  | Ok req' -> check Alcotest.bool "round-trips" true (req = req')
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* In-process servicing                                                *)

let test_session_lifecycle () =
  let server = Server.create () in
  assert_ok
    (handle_ok server (obj [ "op", str "open"; "session", str "a"; "vars", int 2 ]));
  check Alcotest.int "one session" 1 (Server.num_sessions server);
  assert_error
    (handle_ok server (obj [ "op", str "open"; "session", str "a" ]))
    "already exists";
  assert_ok
    (handle_ok server
       (obj
          [
            "op", str "add_clauses";
            "session", str "a";
            "clauses", Json.List [ Json.List [ int 1; int 2 ] ];
          ]));
  let r =
    handle_ok server
      (obj
         [
           "op", str "solve";
           "session", str "a";
           "assumps", Json.List [ int (-1); int (-2) ];
         ])
  in
  check Alcotest.string "unsat under assumptions" "unsat" (status_of r);
  (match Json.member "core" r with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "unsat-under-assumptions response must carry a core");
  let r = handle_ok server (obj [ "op", str "solve"; "session", str "a" ]) in
  check Alcotest.string "sat without assumptions" "sat" (status_of r);
  assert_ok (handle_ok server (obj [ "op", str "close"; "session", str "a" ]));
  check Alcotest.int "closed" 0 (Server.num_sessions server);
  assert_error
    (handle_ok server (obj [ "op", str "solve"; "session", str "a" ]))
    "unknown session"

let test_errors_and_echo () =
  let server = Server.create () in
  assert_error (handle_ok server (obj [ "op", str "solve" ])) "session";
  assert_error (handle_ok server (obj [ "op", str "frobnicate" ])) "unknown op";
  let r = handle_ok server (obj [ "op", str "ping"; "id", int 99 ]) in
  (match Json.member "id" r with
  | Some (Json.Int 99) -> ()
  | _ -> Alcotest.fail "id must be echoed");
  assert_ok r;
  (* session cap *)
  let tiny = Server.create ~max_sessions:1 () in
  assert_ok (handle_ok tiny (obj [ "op", str "open"; "session", str "one" ]));
  assert_error
    (handle_ok tiny (obj [ "op", str "open"; "session", str "two" ]))
    "session limit"

(* Session "h" holding php 7 6, sent through the wire: hard enough
   that a few conflicts cannot solve it. *)
let open_php_session server =
  assert_ok
    (handle_ok server (obj [ "op", str "open"; "session", str "h"; "vars", int 0 ]));
  let cnf = Berkmin_gen.Pigeonhole.php 7 6 in
  let clauses =
    List.map
      (fun c ->
        Json.List
          (List.map (fun l -> int (Lit.to_dimacs l)) (Clause.to_list c)))
      (Cnf.clauses cnf)
  in
  assert_ok
    (handle_ok server
       (obj
          [
            "op", str "new_var"; "session", str "h";
            "count", int (Cnf.num_vars cnf);
          ]));
  assert_ok
    (handle_ok server
       (obj
          [ "op", str "add_clauses"; "session", str "h";
            "clauses", Json.List clauses ]))

let test_budget_exhaustion () =
  let server = Server.create () in
  (* a tiny per-request budget must degrade to "unknown" *)
  open_php_session server;
  let r =
    handle_ok server
      (obj
         [ "op", str "solve"; "session", str "h"; "max_conflicts", int 1 ])
  in
  check Alcotest.string "budget exhausted" "unknown" (status_of r);
  (* a second budgeted call keeps making progress (per-request budget,
     learnt clauses retained) and an unbounded one finishes the job *)
  let r = handle_ok server (obj [ "op", str "solve"; "session", str "h" ]) in
  check Alcotest.string "resident solver converges" "unsat" (status_of r)

(* Each budgeted request spends exactly its own allowance, whatever
   the session spent before. *)
let test_budget_is_exact () =
  let server = Server.create () in
  open_php_session server;
  let conflicts () =
    let r = handle_ok server (obj [ "op", str "stats"; "session", str "h" ]) in
    match Json.member "conflicts" r with
    | Some (Json.Int n) -> n
    | _ -> Alcotest.failf "no conflicts in %s" (Json.to_string r)
  in
  for call = 1 to 3 do
    let before = conflicts () in
    let r =
      handle_ok server
        (obj [ "op", str "solve"; "session", str "h"; "max_conflicts", int 5 ])
    in
    check Alcotest.string "budget exhausted" "unknown" (status_of r);
    check Alcotest.int
      (Printf.sprintf "call %d spends its 5 conflicts" call)
      5
      (conflicts () - before)
  done

let test_trace_and_metrics () =
  let server = Server.create () in
  let events = ref [] in
  Trace.set_sink (Server.trace server)
    (Trace.Callback (fun e -> events := e :: !events));
  assert_ok
    (handle_ok server (obj [ "op", str "open"; "session", str "t"; "vars", int 1 ]));
  assert_ok
    (handle_ok server
       (obj
          [
            "op", str "add_clause"; "session", str "t";
            "lits", Json.List [ int 1 ];
          ]));
  ignore (handle_ok server (obj [ "op", str "solve"; "session", str "t" ]));
  ignore (handle_ok server (obj [ "op", str "nope" ]));
  let ops =
    List.rev_map
      (function
        | Trace.Server_request { op; status; _ } -> op ^ ":" ^ status
        | _ -> "other")
      !events
  in
  check
    (Alcotest.list Alcotest.string)
    "one event per request, statuses included"
    [ "open:ok"; "add_clause:ok"; "solve:sat"; "invalid:error" ]
    ops;
  let m = Server.metrics server in
  check Alcotest.int "requests counted" 4
    (Metrics.value (Metrics.counter m "server_requests"));
  check Alcotest.int "errors counted" 1
    (Metrics.value (Metrics.counter m "server_errors"));
  check Alcotest.int "solves counted" 1
    (Metrics.value (Metrics.counter m "server_solves"))

(* ------------------------------------------------------------------ *)
(* End-to-end socket round-trip                                        *)

let test_socket_concurrent_clients () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "berkmin_test_%d.sock" (Unix.getpid ()))
  in
  let ready_r, ready_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    (* child: the daemon *)
    Unix.close ready_r;
    let server = Server.create () in
    (try
       Server.serve_socket_until server ~path ~ready:(fun () ->
           ignore (Unix.write ready_w (Bytes.of_string "r") 0 1);
           Unix.close ready_w)
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close ready_w;
    ignore (Unix.read ready_r (Bytes.create 1) 0 1);
    Unix.close ready_r;
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
        try Unix.unlink path with Unix.Unix_error _ -> ())
      (fun () ->
        (* four concurrent connections, interleaved requests *)
        let c1 = Client.connect ~path in
        let c2 = Client.connect ~path in
        let c3 = Client.connect ~path in
        let c4 = Client.connect ~path in
        Client.ping c4;
        Client.open_session ~vars:3 c1 "shared";
        Client.add_clauses c1 ~session:"shared"
          [ [ Lit.of_dimacs 1; Lit.of_dimacs 2 ]; [ Lit.of_dimacs (-1); Lit.of_dimacs 3 ] ];
        (* a second client works against the session the first opened *)
        (match Client.solve c2 ~session:"shared" ~assumps:[ Lit.of_dimacs (-2) ] with
        | Client.Sat m ->
          check Alcotest.bool "assumption honoured" false m.(1)
        | _ -> Alcotest.fail "expected SAT");
        (match
           Client.solve c3 ~session:"shared"
             ~assumps:[ Lit.of_dimacs (-1); Lit.of_dimacs (-2) ]
         with
        | Client.Unsat (Some core) ->
          check Alcotest.bool "non-empty core over the wire" true (core <> [])
        | _ -> Alcotest.fail "expected UNSAT with core");
        let stats = Client.stats c1 ~session:"shared" in
        check Alcotest.bool "stats carry clause count" true
          (List.mem_assoc "clauses" stats);
        Client.close_session c4 ~session:"shared";
        Client.shutdown c2;
        (* daemon must exit cleanly and remove its socket *)
        let rec wait_exit tries =
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ ->
            if tries = 0 then Alcotest.fail "daemon did not exit on shutdown"
            else begin
              Unix.sleepf 0.05;
              wait_exit (tries - 1)
            end
          | _, Unix.WEXITED 0 -> ()
          | _, _ -> Alcotest.fail "daemon exited abnormally"
        in
        wait_exit 100;
        check Alcotest.bool "socket unlinked" false (Sys.file_exists path);
        List.iter Client.close [ c1; c2; c3; c4 ])

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "parse" `Quick test_protocol_parse;
          Alcotest.test_case "roundtrip" `Quick test_protocol_roundtrip;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "lifecycle" `Quick test_session_lifecycle;
          Alcotest.test_case "errors and id echo" `Quick test_errors_and_echo;
          Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion;
          Alcotest.test_case "budget is exact" `Quick test_budget_is_exact;
        ] );
      ( "observability",
        [ Alcotest.test_case "trace and metrics" `Quick test_trace_and_metrics ]
      );
      ( "socket",
        [
          Alcotest.test_case "concurrent clients" `Quick
            test_socket_concurrent_clients;
        ] );
    ]

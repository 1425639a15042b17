(* Server-layer tests: protocol parsing, in-process request servicing,
   session lifecycle, per-request budgets, per-request trace events,
   the bytes and allocation of a SAT reply, the socket loop's line
   splitter, and forked end-to-end socket round-trips: concurrent
   clients, and a client that hangs up before its reply. *)

open Berkmin_types
module Protocol = Berkmin_server.Protocol
module Server = Berkmin_server.Server
module Client = Berkmin_server.Client
module Trace = Berkmin.Trace

let check = Alcotest.check

let obj fields = Json.Obj fields
let str s = Json.String s
let int n = Json.Int n

(* One request through the wire path, its reply parsed back. *)
let handle_ok server request =
  match Server.handle_line server (Json.to_string request) with
  | response, `Continue -> Json.of_string response
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

(* A cap below one session would refuse every open: refused up front. *)
let test_session_cap_below_one () =
  List.iter
    (fun max_sessions ->
      Alcotest.check_raises
        (Printf.sprintf "max_sessions %d" max_sessions)
        (Invalid_argument "Server.create: max_sessions must be at least 1")
        (fun () -> ignore (Server.create ~max_sessions ())))
    [ 0; -3 ]

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

(* Conflicts session "h" has spent so far, per its [stats] reply. *)
let session_conflicts server =
  let r = handle_ok server (obj [ "op", str "stats"; "session", str "h" ]) in
  match Json.member "conflicts" r with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.failf "no conflicts in %s" (Json.to_string r)

(* Each budgeted request spends exactly its own allowance, whatever
   the session spent before. *)
let test_budget_is_exact () =
  let server = Server.create () in
  open_php_session server;
  for call = 1 to 3 do
    let before = session_conflicts server in
    let r =
      handle_ok server
        (obj [ "op", str "solve"; "session", str "h"; "max_conflicts", int 5 ])
    in
    check Alcotest.string "budget exhausted" "unknown" (status_of r);
    check Alcotest.int
      (Printf.sprintf "call %d spends its 5 conflicts" call)
      5
      (session_conflicts server - before)
  done

(* A negative time budget is refused like a negative conflict budget:
   an error reply, and no search spent. *)
let test_negative_time_budget () =
  let server = Server.create () in
  open_php_session server;
  let before = session_conflicts server in
  assert_error
    (handle_ok server
       (obj
          [
            "op", str "solve"; "session", str "h"; "max_ms", Json.Float (-5.0);
          ]))
    "\"max_ms\" must be non-negative";
  check Alcotest.int "no conflicts spent" before (session_conflicts server)

(* The op:status of each server_request event the server emitted. *)
let traced_requests server =
  let events = ref [] in
  Trace.set_sink (Server.trace server)
    (Trace.Callback (fun e -> events := e :: !events));
  fun () ->
    List.rev_map
      (function
        | Trace.Server_request { op; status; _ } -> op ^ ":" ^ status
        | _ -> "other")
      !events

let test_trace () =
  let server = Server.create () in
  let requests = traced_requests server in
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
  check
    (Alcotest.list Alcotest.string)
    "one event per request, statuses included"
    [ "open:ok"; "add_clause:ok"; "solve:sat"; "invalid:error" ]
    (requests ())

(* A line that is not JSON at all still gets an error reply and its
   one trace event. *)
let test_malformed_line () =
  let server = Server.create () in
  let requests = traced_requests server in
  let line, continue = Server.handle_line server "not json" in
  check Alcotest.bool "keeps serving" true (continue = `Continue);
  assert_error (Json.of_string line) "malformed JSON";
  check
    (Alcotest.list Alcotest.string)
    "one event" [ "invalid:error" ] (requests ())

(* ------------------------------------------------------------------ *)
(* The SAT reply                                                       *)

(* Session "s" with [n] variables, each fixed by a unit clause: variable
   [v] is true unless [v mod 3 = 1].  [fixed v] is its wire literal. *)
let fixed v = if v mod 3 <> 1 then v + 1 else -(v + 1)

let open_fixed_session server n =
  assert_ok
    (handle_ok server
       (obj [ "op", str "open"; "session", str "s"; "vars", int n ]));
  let units = List.init n (fun v -> Json.List [ int (fixed v) ]) in
  assert_ok
    (handle_ok server
       (obj
          [
            "op", str "add_clauses"; "session", str "s";
            "clauses", Json.List units;
          ]))

let solve_line ?id () =
  let id = match id with Some j -> [ "id", j ] | None -> [] in
  Json.to_string (obj (id @ [ "op", str "solve"; "session", str "s" ]))

(* Every byte of the direct writer's reply equals the JSON tree's
   rendering, which stays here as the oracle: around the digit-count
   boundaries, for a first solve and for the cached model, with and
   without an echoed id. *)
let test_sat_reply_bytes () =
  List.iter
    (fun n ->
      let server = Server.create () in
      open_fixed_session server n;
      let model = Json.List (List.init n (fun v -> int (fixed v))) in
      List.iter
        (fun id ->
          let expected =
            Json.to_string
              (Protocol.ok ?id [ "status", str "sat"; "model", model ])
          in
          let reply, _ = Server.handle_line server (solve_line ?id ()) in
          check Alcotest.string
            (Printf.sprintf "%d variables" n)
            expected reply)
        [ None; Some (int 42); Some (str "a \"quoted\\ id\n\t\001") ])
    [ 0; 1; 9; 10; 99; 100; 10_001 ]

(* Words allocated by [f ()], promoted words counted once. *)
(* Words [f] allocates.  The minor heap is emptied first: a minor
   collection inside [f] would otherwise book earlier allocations to
   it, and where that collection falls moves with every allocation
   made before the call. *)
let allocated_words f =
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  let r = f () in
  let minor1, promoted1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

(* A repeated plain solve answers from the cached model, so the
   measured call is the reply alone: parsing the request and copying
   the reply out of the reused buffer, with nothing per variable but
   the returned string's bytes. *)
let test_sat_reply_allocation () =
  let n = 10_000 in
  let server = Server.create () in
  open_fixed_session server n;
  let line = solve_line () in
  ignore (Server.handle_line server line);
  let (reply, _), words =
    allocated_words (fun () -> Server.handle_line server line)
  in
  check Alcotest.string "sat" "sat" (status_of (Json.of_string reply));
  if words >= 2. *. float n then
    Alcotest.failf "one SAT reply allocated %.0f words for %d variables" words n

(* ------------------------------------------------------------------ *)
(* The socket loop's line splitter                                     *)

let feed pending s =
  Server.split_lines pending (Bytes.of_string s) (String.length s)

let test_split_lines () =
  let p = Server.pending () in
  let lines = Alcotest.(list string) in
  check lines "a partial line waits" [] (feed p {|{"op"|});
  check lines "several lines in one read, blank ones included"
    [ {|{"op":1}|}; {|{"a":2}|}; ""; "  " ]
    (feed p ":1}\n{\"a\":2}\n\n  \nx");
  check lines "still partial" [] (feed p "y");
  check lines "a line split across three reads" [ "xyz" ] (feed p "z\n");
  check lines "nothing pending" [ "one"; "two" ] (feed p "one\ntwo\n");
  check lines "only the first n bytes count" []
    (Server.split_lines p (Bytes.of_string "ab\ncd") 2);
  check lines "so the stale newline was not a line end" [ "abc" ] (feed p "c\n")

(* A 4 MB line read in 64 KB pieces is copied out once: the pieces and
   the line, about twice its length, where copying the whole pending
   buffer on every read costs about 40 times. *)
let test_split_long_line () =
  let len = 4 * 1024 * 1024 and piece = 65536 in
  let p = Server.pending () in
  let chunk = Bytes.make piece 'x' in
  let before = Gc.allocated_bytes () in
  let early = ref 0 in
  for _ = 1 to len / piece do
    early := !early + List.length (Server.split_lines p chunk piece)
  done;
  Bytes.set chunk 0 '\n';
  let last = Server.split_lines p chunk 1 in
  let allocated = Gc.allocated_bytes () -. before in
  check Alcotest.int "no line before the newline" 0 !early;
  check Alcotest.(list int) "one line of the full length" [ len ]
    (List.map String.length last);
  if allocated >= 3. *. float len then
    Alcotest.failf "splitting a %d-byte line allocated %.0f bytes" len allocated

(* ------------------------------------------------------------------ *)
(* End-to-end socket round-trip                                        *)

(* Fork a daemon serving a fresh socket, as [berkmin-serverd --socket]
   does, and run [f path pid] against it; the daemon is killed if it is
   still running afterwards. *)
let with_socket_daemon f =
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
      (fun () -> f path pid)

(* After a shutdown request the daemon must exit with status 0 and
   remove its socket. *)
let expect_clean_exit path pid =
  let rec wait_exit tries =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if tries = 0 then Alcotest.fail "daemon did not exit on shutdown"
      else begin
        Unix.sleepf 0.05;
        wait_exit (tries - 1)
      end
    | _, Unix.WEXITED 0 -> ()
    | _, Unix.WEXITED n -> Alcotest.failf "daemon exited with status %d" n
    | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
      Alcotest.failf "daemon killed by signal %d" n
  in
  wait_exit 100;
  check Alcotest.bool "socket unlinked" false (Sys.file_exists path)

let test_socket_concurrent_clients () =
  with_socket_daemon (fun path pid ->
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
      (* a reply larger than the 64 KB Unix.write_substring passes to
         one write(2) *)
      Client.open_session ~vars:20_000 c3 "wide";
      (match
         Client.solve c3 ~session:"wide" ~assumps:[ Lit.of_dimacs (-20_000) ]
       with
      | Client.Sat m ->
        check Alcotest.int "one value per variable" 20_000 (Array.length m);
        check Alcotest.bool "assumption honoured" false m.(19_999)
      | _ -> Alcotest.fail "expected SAT");
      let stats = Client.stats c1 ~session:"shared" in
      check Alcotest.bool "stats carry clause count" true
        (List.mem_assoc "clauses" stats);
      Client.close_session c4 ~session:"shared";
      Client.shutdown c2;
      expect_clean_exit path pid;
      List.iter Client.close [ c1; c2; c3; c4 ])

(* A client that closes before its reply arrives costs only its own
   connection: the reply's write fails with EPIPE instead of SIGPIPE
   ending the daemon and every other client's sessions. *)
let test_socket_client_hangs_up () =
  with_socket_daemon (fun path pid ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let oc = Unix.out_channel_of_descr fd in
      let quitter = Client.of_channels (Unix.in_channel_of_descr fd) oc in
      let cnf = Berkmin_gen.Pigeonhole.php 8 7 in
      Client.open_session ~vars:(Cnf.num_vars cnf) quitter "hole";
      Client.add_clauses quitter ~session:"hole"
        (List.map Clause.to_list (Cnf.clauses cnf));
      (* hole(8,7) takes tens of milliseconds: the client is gone before
         the reply is written *)
      output_string oc {|{"op":"solve","session":"hole"}|};
      output_char oc '\n';
      flush oc;
      Unix.close fd;
      let other = Client.connect ~path in
      Client.ping other;
      Client.shutdown other;
      expect_clean_exit path pid;
      Client.close other)

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
          Alcotest.test_case "session cap below one" `Quick
            test_session_cap_below_one;
          Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion;
          Alcotest.test_case "budget is exact" `Quick test_budget_is_exact;
          Alcotest.test_case "negative time budget" `Quick
            test_negative_time_budget;
        ] );
      ( "observability",
        [
          Alcotest.test_case "trace" `Quick test_trace;
          Alcotest.test_case "malformed line" `Quick test_malformed_line;
        ] );
      ( "sat reply",
        [
          Alcotest.test_case "bytes" `Quick test_sat_reply_bytes;
          Alcotest.test_case "allocation" `Quick test_sat_reply_allocation;
        ] );
      ( "line splitter",
        [
          Alcotest.test_case "lines across reads" `Quick test_split_lines;
          Alcotest.test_case "long line" `Quick test_split_long_line;
        ] );
      ( "socket",
        [
          Alcotest.test_case "concurrent clients" `Quick
            test_socket_concurrent_clients;
          Alcotest.test_case "client hangs up before its reply" `Quick
            test_socket_client_hangs_up;
        ] );
    ]

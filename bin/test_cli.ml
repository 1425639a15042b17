(* Tests for the berkmin executable's flag checks.  The built binary
   comes in as the command-line argument; each case runs it on a tiny
   UNSAT formula this file writes itself. *)

let absolute p =
  if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

let berkmin = absolute Sys.argv.(1)

let unsat_cnf =
  let path = Filename.temp_file "unsat" ".cnf" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n");
  at_exit (fun () -> Sys.remove path);
  path

(* Runs berkmin on the formula with [args]; returns its exit code and
   its stdout and stderr together. *)
let run_berkmin args =
  let out = Filename.temp_file "berkmin" ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let argv = Array.of_list (berkmin :: unsat_cnf :: "-q" :: args) in
  let pid = Unix.create_process berkmin argv Unix.stdin fd fd in
  Unix.close fd;
  let _, status = Unix.waitpid [] pid in
  let text = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  match status with
  | Unix.WEXITED code -> (code, text)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> Alcotest.fail "berkmin killed"

let contains text sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length text && (String.sub text i n = sub || go (i + 1))
  in
  go 0

(* A portfolio-only flag under the default single worker is a usage
   error that names the flag and --workers. *)
let test_portfolio_flag_needs_workers (flag, value) () =
  let code, text = run_berkmin [ flag; value ] in
  Alcotest.(check int) "exit code" 2 code;
  if not (contains text flag && contains text "--workers") then
    Alcotest.failf "message does not name %s and --workers:\n%s" flag text

let test_portfolio_flag_with_workers () =
  let code, text = run_berkmin [ "--workers"; "2"; "--share"; "false" ] in
  Alcotest.(check int) "exit code" 20 code;
  if not (contains text "s UNSATISFIABLE") then
    Alcotest.failf "no UNSAT answer:\n%s" text

let () =
  let rejected =
    List.map
      (fun ((flag, _) as case) ->
        Alcotest.test_case flag `Quick (test_portfolio_flag_needs_workers case))
      [
        "--share", "false";
        "--share-max-len", "3";
        "--share-max-glue", "2";
        "--portfolio-diversify", "false";
        "--worker-timeout", "5";
      ]
  in
  Alcotest.run ~argv:[| Sys.argv.(0) |] "cli"
    [
      "portfolio flags, one worker", rejected;
      ( "portfolio flags, two workers",
        [
          Alcotest.test_case "--workers 2 --share false" `Quick
            test_portfolio_flag_with_workers;
        ] );
    ]

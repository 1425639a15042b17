(* Tests for the flag checks of the berkmin, berkmin-fuzz and
   berkmin-serverd executables.  The built binaries come in as the
   command-line arguments, in that order; berkmin runs on a tiny UNSAT
   formula this file writes itself. *)

let absolute p =
  if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

let berkmin = absolute Sys.argv.(1)
let fuzz = absolute Sys.argv.(2)
let serverd = absolute Sys.argv.(3)

let unsat_cnf =
  let path = Filename.temp_file "unsat" ".cnf" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n");
  at_exit (fun () -> Sys.remove path);
  path

(* Runs [exe] with [args] and stdin at end of file, so a daemon that
   starts serves nothing and exits; returns the exit code and stdout
   and stderr together. *)
let run exe args =
  let out = Filename.temp_file "berkmin" ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) null fd fd in
  Unix.close fd;
  Unix.close null;
  let _, status = Unix.waitpid [] pid in
  let text = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  match status with
  | Unix.WEXITED code -> (code, text)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> Alcotest.failf "%s killed" exe

let run_berkmin args = run berkmin (unsat_cnf :: "-q" :: args)

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

(* An out-of-range count is a usage error that names the flag. *)
let test_out_of_range exe args flag () =
  let code, text = run exe args in
  Alcotest.(check int) "exit code" 124 code;
  if not (contains text flag) then
    Alcotest.failf "message does not name %s:\n%s" flag text

(* One case per [(flag, value, other args)], named [flag=value]. *)
let out_of_range exe cases =
  List.map
    (fun (flag, value, rest) ->
      let arg = flag ^ "=" ^ value in
      Alcotest.test_case arg `Quick (test_out_of_range exe (arg :: rest) flag))
    cases

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
      ( "berkmin, out of range",
        out_of_range berkmin [ "--heartbeat", "-5", [ unsat_cnf ] ] );
      ( "fuzz, out of range",
        out_of_range fuzz
          [
            "--rounds", "0", [];
            "--max-vars", "3", [];
            "--mutations", "-1", [];
            (* one round keeps the run short were the value accepted *)
            "--incremental-queries", "-2", [ "--rounds"; "1" ];
          ] );
      ( "serverd, out of range",
        out_of_range serverd
          [ "--max-sessions", "0", []; "--max-sessions", "-3", [] ] );
      "portfolio flags, one worker", rejected;
      ( "portfolio flags, two workers",
        [
          Alcotest.test_case "--workers 2 --share false" `Quick
            test_portfolio_flag_with_workers;
        ] );
    ]

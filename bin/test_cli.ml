(* The exit-code matrix of the berkmin, berkmin-fuzz, berkmin-serverd,
   berkmin-ec and berkmin-genbench executables: a malformed or
   out-of-range value, an unknown name or two flags that exclude each
   other exit 124 and name the flag, and an output path that cannot be
   written exits 2.  The built binaries come in as the command-line
   arguments, in that order; berkmin runs on a tiny UNSAT formula and
   berkmin-ec on a one-gate netlist that this file writes itself. *)

let absolute p =
  if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

let berkmin = absolute Sys.argv.(1)
let fuzz = absolute Sys.argv.(2)
let serverd = absolute Sys.argv.(3)
let ec = absolute Sys.argv.(4)
let genbench = absolute Sys.argv.(5)

let temp_file suffix text =
  let path = Filename.temp_file "cli" suffix in
  Out_channel.with_open_text path (fun oc -> output_string oc text);
  at_exit (fun () -> Sys.remove path);
  path

let unsat_cnf = temp_file ".cnf" "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n"

let buffer_blif =
  temp_file ".blif" ".model buf\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n"

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
  Alcotest.(check int) "exit code" 124 code;
  if not (contains text flag && contains text "--workers") then
    Alcotest.failf "message does not name %s and --workers:\n%s" flag text

let test_portfolio_flag_with_workers () =
  let code, text = run_berkmin [ "--workers"; "2"; "--share"; "false" ] in
  Alcotest.(check int) "exit code" 20 code;
  if not (contains text "s UNSATISFIABLE") then
    Alcotest.failf "no UNSAT answer:\n%s" text

(* Overrides compose over the chosen preset, and the strategy line
   shows both. *)
let test_overrides_over_preset () =
  let code, text =
    run berkmin
      [
        unsat_cnf; "--strategy"; "chaff"; "--simplify"; "pre";
        "--simplify-growth"; "2";
      ]
  in
  Alcotest.(check int) "exit code" 20 code;
  if not (contains text "{chaff:" && contains text "simplify=pre") then
    Alcotest.failf "strategy line lacks the preset or the override:\n%s" text

(* A usage error exits 124 with a message that names the flag. *)
let test_usage_error exe args flag () =
  let code, text = run exe args in
  Alcotest.(check int) "exit code" 124 code;
  if not (contains text flag) then
    Alcotest.failf "message does not name %s:\n%s" flag text

(* One case per [(args, flag)], named by [args]; [files] follow them on
   the command line. *)
let usage_errors ?(files = []) exe cases =
  List.map
    (fun (args, flag) ->
      Alcotest.test_case (String.concat " " args) `Quick
        (test_usage_error exe (args @ files) flag))
    cases

(* One case per [(flag, value, other args)], named [flag=value]. *)
let out_of_range exe cases =
  List.map
    (fun (flag, value, rest) ->
      let arg = flag ^ "=" ^ value in
      Alcotest.test_case arg `Quick (test_usage_error exe (arg :: rest) flag))
    cases

(* An output path that cannot be written is an I/O error: exit 2 with
   a message that names the path. *)
let unwritable =
  Filename.concat (Filename.get_temp_dir_name ()) "berkmin-no-such-dir/out"

let test_unwritable exe args () =
  let code, text = run exe args in
  Alcotest.(check int) "exit code" 2 code;
  if not (contains text unwritable) then
    Alcotest.failf "message does not name the path:\n%s" text


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
      ( "berkmin, usage error",
        usage_errors berkmin ~files:[ unsat_cnf ]
          [
            [ "--workers"; "0" ], "--workers";
            [ "--workers=-3" ], "--workers";
            [ "--share-max-len"; "0"; "--workers"; "2" ], "--share-max-len";
            [ "--share-max-glue=0"; "--workers"; "2" ], "--share-max-glue";
            [ "--strategy"; "nosuch" ], "--strategy";
            [ "--ccmin"; "x" ], "--ccmin";
            [ "--restarts"; "luby:0" ], "--restarts";
            (* a separate -1 would read as an unknown option *)
            [ "--simplify-growth=-1" ], "--simplify-growth";
            [ "--workers"; "2"; "--proof"; "P" ], "--proof";
          ] );
      ( "fuzz, usage error",
        usage_errors fuzz
          [
            [ "--portfolio"; "1" ], "--portfolio";
            [ "--portfolio=-2" ], "--portfolio";
          ] );
      ( "serverd, usage error",
        usage_errors serverd
          [
            [ "--strategy"; "nosuch" ], "--strategy";
            [ "--ccmin"; "x" ], "--ccmin";
            [ "--socket"; "P"; "--stdio" ], "--socket";
          ] );
      ( "ec, usage error",
        usage_errors ec ~files:[ buffer_blif; buffer_blif ]
          [ [ "--strategy"; "nosuch" ], "--strategy" ] );
      "genbench, usage error", usage_errors genbench [ [ "nosuch" ], "nosuch" ];
      ( "unwritable output",
        List.map
          (fun (name, exe, args) ->
            Alcotest.test_case name `Quick (test_unwritable exe args))
          [
            "berkmin --json", berkmin, [ unsat_cnf; "--json"; unwritable ];
            "berkmin --trace", berkmin, [ unsat_cnf; "--trace"; unwritable ];
            ( "berkmin --trace --workers 2",
              berkmin,
              [ unsat_cnf; "--trace"; unwritable; "--workers"; "2" ] );
            "fuzz --json", fuzz, [ "--rounds"; "1"; "--json"; unwritable ];
            "serverd --trace", serverd, [ "--trace"; unwritable ];
          ] );
      ( "berkmin, overrides",
        [
          Alcotest.test_case "--strategy chaff --simplify pre" `Quick
            test_overrides_over_preset;
        ] );
      "portfolio flags, one worker", rejected;
      ( "portfolio flags, two workers",
        [
          Alcotest.test_case "--workers 2 --share false" `Quick
            test_portfolio_flag_with_workers;
        ] );
    ]

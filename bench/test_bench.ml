(* Tests for bench/main.exe: a run selects exactly one mode, an output
   path that cannot be written exits 2, and each baseline gate fails
   when the run drifts from the committed summary.
   The bench executable and the committed BENCH_baseline.json come in
   as the two command-line arguments. *)

open Berkmin_types

let absolute p =
  if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

let bench = absolute Sys.argv.(1)
let baseline = absolute Sys.argv.(2)

(* Runs the bench with [args]; returns its exit code and its output. *)
let run_bench args =
  let out = Filename.temp_file "bench" ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process bench (Array.of_list (bench :: args)) Unix.stdin fd fd
  in
  Unix.close fd;
  let _, status = Unix.waitpid [] pid in
  let text = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  match status with
  | Unix.WEXITED code -> (code, text)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> Alcotest.fail "bench killed"

let contains text sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length text && (String.sub text i n = sub || go (i + 1))
  in
  go 0

(* A copy of the baseline in which the first instance row that [edit]
   rewrites is replaced. *)
let edited_baseline edit =
  let rec first = function
    | [] -> Alcotest.fail "no baseline row to edit"
    | row :: rest -> (
      match edit row with Some row -> row :: rest | None -> row :: first rest)
  in
  let json =
    match
      Json.of_string (In_channel.with_open_text baseline In_channel.input_all)
    with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (function
             | "instances", Json.List rows -> ("instances", Json.List (first rows))
             | field -> field)
           fields)
    | _ -> Alcotest.fail "baseline is not a JSON object"
  in
  let path = Filename.temp_file "baseline" ".json" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string json));
  path

let set key value = function
  | Json.Obj fields ->
    Json.Obj (List.map (fun (k, v) -> (k, if k = key then value else v)) fields)
  | json -> json

let expect_failure ~args ~edit ~message () =
  let path = edited_baseline edit in
  let code, text = run_bench (args @ [ path ]) in
  Sys.remove path;
  Alcotest.(check int) "exit status" 1 code;
  Alcotest.(check bool) message true (contains text message)

let test_two_modes_are_a_usage_error () =
  let code, text = run_bench [ "--smoke"; "--ablation" ] in
  Alcotest.(check int) "cmdliner usage-error status" 124 code;
  Alcotest.(check bool) "names both modes" true
    (contains text "--smoke and --ablation")

(* A --bigfile path in a missing directory cannot be written: an I/O
   error, exit 2. *)
let test_unwritable_bigfile () =
  let tmp = Filename.get_temp_dir_name () in
  let path = Filename.concat tmp "berkmin-no-such-dir/big.cnf" in
  let code, text = run_bench [ "--bigfile"; path ] in
  Alcotest.(check int) "exit status" 2 code;
  Alcotest.(check bool) "names the path" true (contains text path)

let flip_a_verdict row =
  match Json.member "verdict" row with
  | Some (Json.String "SAT") -> Some (set "verdict" (Json.String "UNSAT") row)
  | _ -> None

(* Halving a count of at least 2,000 lowers it by more than both the
   10% tolerance and the 500 absolute slack. *)
let halve_watcher_visits row =
  match Json.member "watcher_visits" row with
  | Some (Json.Int v) when v >= 2_000 ->
    Some (set "watcher_visits" (Json.Int (v / 2)) row)
  | _ -> None

let () =
  Alcotest.run ~argv:[| Sys.argv.(0) |] "bench"
    [
      ( "modes",
        [
          Alcotest.test_case "two modes are a usage error" `Quick
            test_two_modes_are_a_usage_error;
          Alcotest.test_case "unwritable --bigfile path exits 2" `Quick
            test_unwritable_bigfile;
        ] );
      ( "gates",
        [
          Alcotest.test_case "flipped verdict fails the verdict gate" `Slow
            (expect_failure
               ~args:[ "--smoke"; "--baseline" ]
               ~edit:flip_a_verdict ~message:"VERDICT DRIFT (1)");
          Alcotest.test_case "lowered counter fails the counter gate" `Slow
            (expect_failure
               ~args:[ "--smoke"; "--perf-baseline" ]
               ~edit:halve_watcher_visits ~message:"COUNTER REGRESSION (1)");
        ] );
    ]

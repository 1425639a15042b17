(* Tests for the learnt-clause exchange: the wire codec (round-trips,
   truncated and malformed frames), the export filter boundaries, the
   dedup key, in-process imports (counters, dedup, soundness
   invariants, the restart-time drain) and a real two-worker forked
   exchange through the portfolio's pipes. *)

open Berkmin_types
module Config = Berkmin.Config
module Solver = Berkmin.Solver
module Stats = Berkmin.Stats
module Portfolio = Berkmin_portfolio.Portfolio
module Share = Berkmin_portfolio.Share

let check = Alcotest.check

let hole n = (Berkmin_gen.Pigeonhole.instance n (n - 1)).Berkmin_gen.Instance.cnf

let lits_of_dimacs l = Array.of_list (List.map Lit.of_dimacs l)

(* ------------------------------------------------------------------ *)
(* Codec round-trips.                                                  *)

let feed_all d b = Share.feed d b (Bytes.length b)

let test_clause_roundtrip () =
  let lits = lits_of_dimacs [ 1; -2; 3; -4 ] in
  let d = Share.decoder () in
  feed_all d (Share.encode_clause ~glue:3 lits);
  (match Share.next d with
  | Some (Share.Clause { glue; lits = got }) ->
    check Alcotest.int "glue" 3 glue;
    check (Alcotest.array Alcotest.int) "lits" lits got
  | _ -> Alcotest.fail "expected a clause frame");
  check (Alcotest.option Alcotest.bool) "drained" None
    (Option.map (fun _ -> true) (Share.next d));
  check Alcotest.int "no residue" 0 (Share.buffered d)

let test_glue_clamped () =
  let d = Share.decoder () in
  feed_all d (Share.encode_clause ~glue:1000 (lits_of_dimacs [ 1; 2 ]));
  match Share.next d with
  | Some (Share.Clause { glue; _ }) -> check Alcotest.int "clamped" 255 glue
  | _ -> Alcotest.fail "expected a clause frame"

let test_reply_roundtrip () =
  let payload = Bytes.of_string "marshalled-reply-\x00\xff-bytes" in
  let d = Share.decoder () in
  feed_all d (Share.encode_reply payload);
  match Share.next d with
  | Some (Share.Reply got) ->
    check Alcotest.string "payload" (Bytes.to_string payload)
      (Bytes.to_string got)
  | _ -> Alcotest.fail "expected a reply frame"

let test_byte_at_a_time () =
  (* The decoder is incremental: a frame arriving one byte per feed
     must parse identically, and must return None at every prefix. *)
  let lits = lits_of_dimacs [ 5; -6; 7 ] in
  let frame = Share.encode_clause ~glue:2 lits in
  let d = Share.decoder () in
  let one = Bytes.create 1 in
  for i = 0 to Bytes.length frame - 2 do
    Bytes.set one 0 (Bytes.get frame i);
    Share.feed d one 1;
    check Alcotest.bool "no frame mid-prefix" true (Share.next d = None)
  done;
  Bytes.set one 0 (Bytes.get frame (Bytes.length frame - 1));
  Share.feed d one 1;
  match Share.next d with
  | Some (Share.Clause { glue; lits = got }) ->
    check Alcotest.int "glue" 2 glue;
    check (Alcotest.array Alcotest.int) "lits" lits got
  | _ -> Alcotest.fail "expected a clause frame"

let test_interleaved_stream () =
  (* Several frames in one buffer, fed in two arbitrary slices. *)
  let c1 = Share.encode_clause ~glue:1 (lits_of_dimacs [ 1; 2 ]) in
  let c2 = Share.encode_clause ~glue:4 (lits_of_dimacs [ -3 ]) in
  let r = Share.encode_reply (Bytes.of_string "done") in
  let all = Bytes.concat Bytes.empty [ c1; c2; r ] in
  let d = Share.decoder () in
  let cut = (Bytes.length c1) + 3 (* mid-second-frame *) in
  Share.feed d (Bytes.sub all 0 cut) cut;
  (match Share.next d with
  | Some (Share.Clause { glue = 1; _ }) -> ()
  | _ -> Alcotest.fail "first clause");
  check Alcotest.bool "second frame incomplete" true (Share.next d = None);
  let rest = Bytes.sub all cut (Bytes.length all - cut) in
  feed_all d rest;
  (match Share.next d with
  | Some (Share.Clause { glue = 4; lits }) ->
    check Alcotest.int "unit survives" 1 (Array.length lits)
  | _ -> Alcotest.fail "second clause");
  (match Share.next d with
  | Some (Share.Reply p) -> check Alcotest.string "reply" "done" (Bytes.to_string p)
  | _ -> Alcotest.fail "reply");
  check Alcotest.bool "empty" true (Share.next d = None)

let expect_malformed name bytes =
  let d = Share.decoder () in
  feed_all d bytes;
  match Share.next d with
  | exception Share.Malformed _ -> ()
  | _ -> Alcotest.failf "%s: expected Malformed" name

let test_malformed () =
  (* Unknown type byte. *)
  let b = Bytes.of_string "\x00\x00\x00\x01X" in
  expect_malformed "unknown type" b;
  (* Zero-length payload. *)
  expect_malformed "empty payload" (Bytes.of_string "\x00\x00\x00\x00");
  (* Clause frame whose length disagrees with its literal count:
     header says 2 literals but carries only one. *)
  let good = Share.encode_clause ~glue:1 (lits_of_dimacs [ 1; 2 ]) in
  let bad = Bytes.sub good 0 (Bytes.length good - 4) in
  (* fix up the length prefix to cover the truncated payload *)
  let n = Bytes.length bad - 4 in
  Bytes.set bad 0 '\x00';
  Bytes.set bad 1 '\x00';
  Bytes.set bad 2 (Char.chr (n lsr 8));
  Bytes.set bad 3 (Char.chr (n land 0xff));
  expect_malformed "length/count mismatch" bad;
  (* Length prefix beyond the sanity cap. *)
  expect_malformed "oversized" (Bytes.of_string "\x7f\xff\xff\xffC")

let test_truncated_waits () =
  (* A truncated frame is not an error — it waits for the rest. *)
  let frame = Share.encode_clause ~glue:1 (lits_of_dimacs [ 1; -2 ]) in
  let d = Share.decoder () in
  let half = Bytes.length frame / 2 in
  Share.feed d (Bytes.sub frame 0 half) half;
  check Alcotest.bool "waiting" true (Share.next d = None);
  check Alcotest.int "buffered the prefix" half (Share.buffered d)

let test_encode_bounds () =
  (match Share.encode_clause ~glue:1 [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty clause must be rejected");
  let too_long = Array.init (Share.max_clause_lits + 1) (fun i -> 2 * i) in
  match Share.encode_clause ~glue:1 too_long with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "over-long clause must be rejected"

(* ------------------------------------------------------------------ *)
(* The export filter and the dedup key.                                *)

let test_passes_boundaries () =
  let clause k = Array.init k (fun i -> 2 * i) in
  let p = Share.passes ~max_len:8 ~max_glue:4 in
  check Alcotest.bool "len at cap" true (p ~glue:4 (clause 8));
  check Alcotest.bool "len over cap" false (p ~glue:4 (clause 9));
  check Alcotest.bool "glue over cap" false (p ~glue:5 (clause 8));
  check Alcotest.bool "glue 1 len 1" true (p ~glue:1 (clause 1));
  check Alcotest.bool "empty never" false (p ~glue:0 [||]);
  (* the hard frame cap binds even when the configured cap is huge *)
  check Alcotest.bool "hard cap" false
    (Share.passes ~max_len:10_000 ~max_glue:10_000 ~glue:1
       (clause (Share.max_clause_lits + 1)))

let test_key_canonical () =
  let a = lits_of_dimacs [ 1; -2; 3 ] in
  let b = lits_of_dimacs [ 3; 1; -2 ] in
  let c = lits_of_dimacs [ 3; 1; -2; 1 ] in
  check Alcotest.string "permutation invariant" (Share.key a) (Share.key b);
  check Alcotest.string "duplicates collapse" (Share.key a) (Share.key c);
  let d = lits_of_dimacs [ 1; 2; 3 ] in
  check Alcotest.bool "distinct clauses differ" true (Share.key a <> Share.key d)

(* ------------------------------------------------------------------ *)
(* In-process imports.                                                 *)

let test_import_counters_and_dedup () =
  let cnf = hole 6 in
  let s = Solver.create ~config:Config.berkmin cnf in
  let before = Solver.num_learnt_live s in
  Solver.import_clause s ~glue:2 (lits_of_dimacs [ 1; 2; 3 ]);
  Solver.import_clause s ~glue:2 (lits_of_dimacs [ 3; 2; 1 ]);
  (* permuted duplicate *)
  let st = Solver.stats s in
  check Alcotest.int "one landed" 1 st.Stats.clauses_imported;
  check Alcotest.int "one live" (before + 1) (Solver.num_learnt_live s);
  check Alcotest.int "glue recorded" 2
    (Solver.glue_of_learnt s (Solver.num_learnt_live s - 1));
  (* imported binaries go to the implication index, not the watchers *)
  let bins = Solver.num_binary_entries s in
  Solver.import_clause s ~glue:1 (lits_of_dimacs [ 4; 5 ]);
  check Alcotest.int "binary indexed" (bins + 2) (Solver.num_binary_entries s);
  (* a clause over unknown variables is a no-op *)
  Solver.import_clause s ~glue:1 [| Lit.pos 100_000 |];
  check Alcotest.int "unknown var dropped" 2 st.Stats.clauses_imported;
  check (Alcotest.list Alcotest.string) "invariants hold" []
    (Solver.watch_invariant_violations s);
  (* imports never flip an UNSAT instance *)
  check Alcotest.bool "still UNSAT" true (Solver.solve s = Solver.Unsat)

let test_import_unit_at_level_zero () =
  let cnf = Lazy.force (lazy (hole 6)) in
  let s = Solver.create ~config:Config.berkmin cnf in
  Solver.import_clause s ~glue:1 [| Lit.pos 0 |];
  check Alcotest.string "unit assigned at root" "true"
    (match Solver.value_of s 0 with
    | Value.True -> "true"
    | Value.False -> "false"
    | Value.Unassigned -> "unassigned");
  check Alcotest.int "unit counted" 1 (Solver.stats s).Stats.clauses_imported

let test_import_source_drained_at_restart () =
  (* The solver polls the source at every restart; a fast restart
     schedule guarantees the poll fires within a small budget. *)
  let config = { Config.berkmin with Config.restart_mode = Config.Fixed 20 } in
  let s = Solver.create ~config (hole 7) in
  let served = ref 0 in
  Solver.set_import_source s (fun () ->
      if !served = 0 then begin
        incr served;
        [ (2, lits_of_dimacs [ 1; 2; 3 ]); (1, lits_of_dimacs [ -1; 4 ]) ]
      end
      else []);
  let result = Solver.solve ~budget:(Solver.budget_conflicts 2_000) s in
  check Alcotest.bool "source polled" true (!served = 1);
  check Alcotest.int "both landed" 2 (Solver.stats s).Stats.clauses_imported;
  check (Alcotest.list Alcotest.string) "invariants hold" []
    (Solver.watch_invariant_violations s);
  check Alcotest.bool "verdict sound" true
    (result = Solver.Unsat || result = Solver.Unknown)

let test_learn_hook_reports_glue () =
  let s = Solver.create ~config:Config.berkmin (hole 6) in
  let seen = ref [] in
  Solver.set_learn_hook s (fun ~glue lits ->
      seen := (glue, Array.length lits) :: !seen);
  ignore (Solver.solve s);
  check Alcotest.bool "hook fired" true (!seen <> []);
  List.iter
    (fun (glue, len) ->
      if glue < 1 || glue > max 1 len then
        Alcotest.failf "glue %d out of range for a %d-literal clause" glue len)
    !seen

(* ------------------------------------------------------------------ *)
(* A real forked exchange: two workers, both budget-limited to
   Unknown so both replies (and stats) survive.  Worker 1 sleeps
   before solving, so worker 0's exports are already rebroadcast and
   sitting in worker 1's pipe when its first restart drains them.      *)

let test_two_worker_exchange () =
  let cnf = hole 8 in
  let spec budget config =
    { Portfolio.sp_config = config; sp_budget = Solver.budget_conflicts budget }
  in
  let exporter = spec 400 Config.berkmin in
  let importer =
    spec 400 { Config.berkmin with restart_mode = Config.Fixed 20 }
  in
  let hook i = if i = 1 then ignore (Unix.select [] [] [] 0.2) in
  let outcome =
    Portfolio.solve_specs ~share_max_len:Share.max_clause_lits
      ~share_max_glue:255 ~worker_hook:hook [ exporter; importer ] cnf
  in
  check Alcotest.string "both exhausted -> UNKNOWN" "UNKNOWN"
    (Portfolio.result_to_string outcome.Portfolio.result);
  let w i = List.nth outcome.Portfolio.workers i in
  let stats_of i =
    match (w i).Portfolio.w_stats with
    | Some st -> st
    | None ->
      Alcotest.failf "worker %d has no stats (status %s)" i
        (Portfolio.status_to_string (w i).Portfolio.w_status)
  in
  check Alcotest.bool "worker 0 exported frames" true
    ((w 0).Portfolio.w_frames_exported > 0);
  check Alcotest.bool "worker 0 counted its exports" true
    ((stats_of 0).Stats.clauses_exported > 0);
  check Alcotest.bool "worker 1 received frames" true
    ((w 1).Portfolio.w_frames_delivered > 0);
  check Alcotest.bool "worker 1 imported clauses" true
    ((stats_of 1).Stats.clauses_imported > 0)

(* Sharing off: the same race moves no frames at all. *)
let test_share_off_moves_nothing () =
  let cnf = hole 6 in
  let spec =
    { Portfolio.sp_config = Config.berkmin; sp_budget = Solver.no_budget }
  in
  let outcome =
    Portfolio.solve_specs ~share:false ~worker_hook:(fun _ -> ()) [ spec; spec ]
      cnf
  in
  check Alcotest.string "still UNSAT" "UNSAT"
    (Portfolio.result_to_string outcome.Portfolio.result);
  List.iter
    (fun w ->
      check Alcotest.int "no exports" 0 w.Portfolio.w_frames_exported;
      check Alcotest.int "no deliveries" 0 w.Portfolio.w_frames_delivered)
    outcome.Portfolio.workers

let () =
  Alcotest.run "share"
    [
      ( "codec",
        [
          Alcotest.test_case "clause roundtrip" `Quick test_clause_roundtrip;
          Alcotest.test_case "glue clamped" `Quick test_glue_clamped;
          Alcotest.test_case "reply roundtrip" `Quick test_reply_roundtrip;
          Alcotest.test_case "byte at a time" `Quick test_byte_at_a_time;
          Alcotest.test_case "interleaved stream" `Quick test_interleaved_stream;
          Alcotest.test_case "malformed frames" `Quick test_malformed;
          Alcotest.test_case "truncated waits" `Quick test_truncated_waits;
          Alcotest.test_case "encode bounds" `Quick test_encode_bounds;
        ] );
      ( "filter",
        [
          Alcotest.test_case "passes boundaries" `Quick test_passes_boundaries;
          Alcotest.test_case "key canonical" `Quick test_key_canonical;
        ] );
      ( "import",
        [
          Alcotest.test_case "counters and dedup" `Quick
            test_import_counters_and_dedup;
          Alcotest.test_case "unit at level zero" `Quick
            test_import_unit_at_level_zero;
          Alcotest.test_case "drained at restart" `Quick
            test_import_source_drained_at_restart;
          Alcotest.test_case "learn hook glue" `Quick
            test_learn_hook_reports_glue;
        ] );
      ( "exchange",
        [
          Alcotest.test_case "two-worker exchange" `Quick
            test_two_worker_exchange;
          Alcotest.test_case "share off moves nothing" `Quick
            test_share_off_moves_nothing;
        ] );
    ]

(* Process-parallel portfolio racing.

   Unix processes rather than Domains: fork is available on every
   supported compiler (the CI matrix spans 4.14 and 5.1), the solver's
   mutable state needs no synchronisation because each worker owns a
   fresh copy-on-write image of the already-loaded formula, and a
   crashed worker cannot corrupt the parent.  The parent is a small
   select/waitpid event loop; all robustness logic (crash detection,
   timeouts, first-wins kills, model re-verification) lives here so
   the solver itself stays oblivious to parallelism.

   Since PR 7 the pipes carry more than the final verdict: workers
   export learnt clauses passing the length/glue filter as {!Share}
   frames on their up pipe, the parent rebroadcasts each distinct
   clause to every other worker's down pipe, and workers drain the
   imports at restart boundaries.  All writes that could stall the
   race (exports under backpressure, rebroadcasts into a slow or dead
   worker) are non-blocking and drop the frame instead of waiting —
   sharing is best-effort by design; only the final reply frame is
   written blocking. *)

open Berkmin_types
module Config = Berkmin.Config
module Solver = Berkmin.Solver
module Stats = Berkmin.Stats
module Trace = Berkmin.Trace

type spec = {
  sp_config : Config.t;
  sp_budget : Solver.budget;
}

type status =
  | W_won
  | W_lost
  | W_exhausted
  | W_crashed of int
  | W_signaled of int
  | W_timed_out

type worker = {
  w_index : int;
  w_config : Config.t;
  w_status : status;
  w_wall_seconds : float;
  w_stats : Stats.t option;
  w_frames_exported : int;
  w_frames_delivered : int;
}

type outcome = {
  result : Solver.result;
  winner : int option;
  workers : worker list;
  wall_seconds : float;
}

(* What a worker sends back over its pipe, wrapped in a {!Share.Reply}
   frame.  Marshalled within one binary, so abstract types (Stats.t,
   the model array) are safe. *)
type reply = {
  r_result : Solver.result;
  r_stats : Stats.t;
  r_seconds : float;
}

let status_to_string = function
  | W_won -> "won"
  | W_lost -> "lost"
  | W_exhausted -> "exhausted"
  | W_crashed code -> Printf.sprintf "crashed(%d)" code
  | W_signaled sg -> Printf.sprintf "signaled(%d)" sg
  | W_timed_out -> "timed_out"

let result_to_string = function
  | Solver.Sat _ -> "SAT"
  | Solver.Unsat -> "UNSAT"
  | Solver.Unknown -> "UNKNOWN"

(* ------------------------------------------------------------------ *)
(* Diversification.                                                    *)

(* Six lanes covering the axes the paper's ablations show to matter:
   restart policy (Tables 1-2 run under fixed 550; the extensions
   sweep Luby), sensitivity (Table 1), DB aggressiveness (Table 5),
   polarity (Table 4) and mobility (Table 2).  Worker 0 is always the
   base configuration, so the portfolio's verdict set is a superset of
   the sequential solver's. *)
let variant base i =
  let open Config in
  let lane =
    match (i - 1) mod 6 with
    | 0 ->
      (* Chaff-like lane: the paper's own strongest competitor. *)
      {
        base with
        activity_mode = Conflict_clause_only;
        decision_mode = Vsids_literal;
        polarity_mode = Sat_top;
        reduction_mode = Length_limit 100;
        restart_mode = Fixed 700;
        var_decay_interval = 100;
        var_decay_factor = 2.0;
      }
    | 1 ->
      (* Luby restarts; the unit grows as the portfolio widens. *)
      { base with restart_mode = Luby (64 * (1 + ((i - 1) / 6))) }
    | 2 ->
      (* Aggressive clause-DB reduction with fast restarts. *)
      { base with reduction_mode = Length_limit 60; restart_mode = Fixed 300 }
    | 3 ->
      (* Low sensitivity, fast activity aging. *)
      { base with activity_mode = Conflict_clause_only; var_decay_interval = 32 }
    | 4 ->
      (* Randomized polarity: pure seed-driven diversification. *)
      { base with polarity_mode = Take_random; restart_mode = Luby 128 }
    | _ ->
      (* Low mobility, DB hoarding. *)
      { base with decision_mode = Global_most_active; reduction_mode = Keep_all }
  in
  { lane with seed = base.seed + (31 * i) }

let diversify ?(diversify = true) ~workers base =
  if workers < 1 then
    invalid_arg "Portfolio.diversify: need at least one worker";
  List.init workers (fun i ->
      if i = 0 then base
      else if diversify then variant base i
      else { base with Config.seed = base.Config.seed + i })

(* ------------------------------------------------------------------ *)
(* Trace plumbing.                                                     *)

let worker_trace_path base i = Printf.sprintf "%s.w%d" base i

(* Concatenate the per-worker JSONL files into the requested path.
   Every line is already tagged with its worker index, so plain
   concatenation loses only the (meaningless across processes)
   interleaving order. *)
let merge_traces path indices =
  let oc = open_out path in
  List.iter
    (fun i ->
      let wpath = worker_trace_path path i in
      if Sys.file_exists wpath then begin
        let ic = open_in wpath in
        (try
           while true do
             output_string oc (input_line ic);
             output_char oc '\n'
           done
         with End_of_file -> ());
        close_in ic;
        Sys.remove wpath
      end)
    indices;
  close_out oc

(* ------------------------------------------------------------------ *)
(* The child.                                                          *)

let write_all fd b =
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

(* Export side: every learnt clause passing the length/glue filter is
   framed and written non-blocking to the up pipe.  Clause frames are
   below PIPE_BUF, so the write is atomic — EAGAIN (parent slow) or
   EPIPE (parent gone) drops the whole frame and the search goes on:
   sharing never stalls a worker. *)
let install_export solver ~max_len ~max_glue up_wr =
  Unix.set_nonblock up_wr;
  let st = Solver.stats solver in
  let tracer = Solver.trace solver in
  Solver.set_learn_hook solver (fun ~glue lits ->
      if Share.passes ~max_len ~max_glue ~glue lits then begin
        let frame = Share.encode_clause ~glue lits in
        match Unix.write up_wr frame 0 (Bytes.length frame) with
        | _ ->
          st.Stats.clauses_exported <- st.Stats.clauses_exported + 1;
          if tracer.Trace.active then
            Trace.emit tracer
              (Trace.Share
                 {
                   direction = Trace.S_export;
                   size = Array.length lits;
                   glue;
                 })
        | exception Unix.Unix_error _ -> ()
      end)

(* Import side: at every restart the solver polls the down pipe,
   non-blocking — whatever complete clause frames have accumulated are
   adopted, a partial frame waits in the decoder for the next restart.
   A malformed frame (impossible unless the parent is corrupt) stops
   imports for good rather than killing the worker. *)
let install_import solver down_rd =
  Unix.set_nonblock down_rd;
  let dec = Share.decoder () in
  let buf = Bytes.create 65536 in
  let poisoned = ref false in
  Solver.set_import_source solver (fun () ->
      if !poisoned then []
      else begin
        let eof = ref false in
        (try
           let n = ref (Unix.read down_rd buf 0 (Bytes.length buf)) in
           while !n > 0 do
             Share.feed dec buf !n;
             n := Unix.read down_rd buf 0 (Bytes.length buf)
           done;
           eof := !n = 0
         with
        | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> ());
        ignore !eof;
        let imports = ref [] in
        (try
           let continue = ref true in
           while !continue do
             match Share.next dec with
             | Some (Share.Clause { glue; lits }) ->
               imports := (glue, lits) :: !imports
             | Some (Share.Reply _) -> poisoned := true
             | None -> continue := false
           done
         with Share.Malformed _ -> poisoned := true);
        List.rev !imports
      end)

let attach_trace solver = function
  | Some path -> Solver.set_trace_sink solver (Trace.open_jsonl path)
  | None -> ()

let run_child ~hook ~share ~trace_path ~index spec cnf ~up_wr ~down_rd =
  let code =
    try
      (* A worker may be writing an export frame in the window between
         the parent closing its pipes and the SIGKILL landing; EPIPE
         (handled) beats dying on SIGPIPE. *)
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      (match hook with Some h -> h index | None -> ());
      let solver = Solver.create ~config:spec.sp_config cnf in
      attach_trace solver trace_path;
      Trace.set_worker (Solver.trace solver) index;
      Option.iter
        (fun (max_len, max_glue) ->
          install_export solver ~max_len ~max_glue up_wr;
          install_import solver down_rd)
        share;
      let started = Unix.gettimeofday () in
      let result = Solver.solve ~budget:spec.sp_budget solver in
      let r_seconds = Unix.gettimeofday () -. started in
      Solver.close_trace solver;
      let reply = { r_result = result; r_stats = Solver.stats solver; r_seconds } in
      (* The reply frame exceeds PIPE_BUF: restore blocking mode and
         write it whole, as this worker's last act. *)
      (try Unix.clear_nonblock up_wr with Unix.Unix_error _ -> ());
      write_all up_wr (Share.encode_reply (Marshal.to_bytes reply []));
      0
    with _ -> 3
  in
  (* _exit, not exit: at_exit handlers would flush a copy of the
     parent's buffered output into our shared stdout. *)
  Unix._exit code

(* ------------------------------------------------------------------ *)
(* The parent's race loop.                                             *)

type live = {
  l_index : int;
  l_pid : int;
  l_up : Unix.file_descr;  (* worker -> parent: clause frames, reply *)
  l_down : Unix.file_descr;  (* parent -> worker: rebroadcast clauses *)
  l_dec : Share.decoder;
  l_spec : spec;
  mutable l_exported : int;  (* clause frames received from this worker *)
  mutable l_delivered : int;  (* clause frames written into its down pipe *)
}

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _, st -> st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let kill_quietly pid =
  try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()

let rec select_retry rds timeout =
  match Unix.select rds [] [] timeout with
  | r, _, _ -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> select_retry rds timeout

let crash_status st =
  match st with
  | Unix.WEXITED code -> W_crashed code
  | Unix.WSIGNALED sg -> W_signaled sg
  | Unix.WSTOPPED sg -> W_signaled sg

(* [share] is the export filter's [(max_len, max_glue)] when the workers
   exchange learnt clauses, [None] when they don't. *)
let fork_race ~wall_timeout ~share ~worker_hook ~trace_jsonl specs cnf =
  (* Children share our stdio buffers at fork time; flush so nothing
     is emitted twice. *)
  flush stdout;
  flush stderr;
  (* Rebroadcast writes race against worker deaths; an EPIPE exception
     (SIGPIPE ignored) is handled, a SIGPIPE would kill the parent. *)
  let old_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  let started = Unix.gettimeofday () in
  let parent_ends = ref [] in
  let spawn l_index spec =
    let up_rd, up_wr = Unix.pipe () in
    let down_rd, down_wr = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
      Unix.close up_rd;
      Unix.close down_wr;
      (* Inherited parent-side ends of earlier siblings: close them so
         each pipe end dies with its one owner. *)
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        !parent_ends;
      let trace_path = Option.map (fun p -> worker_trace_path p l_index) trace_jsonl in
      run_child ~hook:worker_hook ~share ~trace_path ~index:l_index spec cnf
        ~up_wr ~down_rd
    | pid ->
      Unix.close up_wr;
      Unix.close down_rd;
      (* Rebroadcasts must never stall the race loop behind a slow
         worker: non-blocking, drop on EAGAIN. *)
      Unix.set_nonblock down_wr;
      parent_ends := up_rd :: down_wr :: !parent_ends;
      {
        l_index;
        l_pid = pid;
        l_up = up_rd;
        l_down = down_wr;
        l_dec = Share.decoder ();
        l_spec = spec;
        l_exported = 0;
        l_delivered = 0;
      }
  in
  let live = List.mapi spawn specs in
  let n = List.length specs in
  let records = Array.make n None in
  let elapsed () = Unix.gettimeofday () -. started in
  let remaining = ref live in
  let finish w status stats =
    records.(w.l_index) <-
      Some
        {
          w_index = w.l_index;
          w_config = w.l_spec.sp_config;
          w_status = status;
          w_wall_seconds = elapsed ();
          w_stats = stats;
          w_frames_exported = w.l_exported;
          w_frames_delivered = w.l_delivered;
        };
    (try Unix.close w.l_up with Unix.Unix_error _ -> ());
    (try Unix.close w.l_down with Unix.Unix_error _ -> ());
    remaining := List.filter (fun o -> o.l_index <> w.l_index) !remaining
  in
  (* A worker that is already gone when the race ends died on its own:
     its exit status says how, unless it exited cleanly (its reply is
     still unread in the pipe), which [status] describes.  [waitpid]
     with [WNOHANG] reports pid 0 for a worker still running. *)
  let kill_remaining status ws =
    List.iter
      (fun w ->
        match Unix.waitpid [ Unix.WNOHANG ] w.l_pid with
        | 0, _ ->
          kill_quietly w.l_pid;
          ignore (waitpid_retry w.l_pid);
          finish w status None
        | _, Unix.WEXITED 0 -> finish w status None
        | _, st -> finish w (crash_status st) None)
      ws
  in
  let deadline = Option.map (fun t -> started +. t) wall_timeout in
  let result = ref Solver.Unknown in
  let winner = ref None in
  (* Distinct clauses already rebroadcast: each canonical literal set
     crosses the parent once, even when several workers learn it. *)
  let seen = Hashtbl.create 256 in
  let broadcast src frame =
    List.iter
      (fun o ->
        if o.l_index <> src.l_index then
          match Unix.write o.l_down frame 0 (Bytes.length frame) with
          | _ -> o.l_delivered <- o.l_delivered + 1
          | exception Unix.Unix_error _ ->
            (* EAGAIN (worker not draining), EPIPE/EBADF (worker gone):
               drop the frame for this worker only. *)
            ())
      !remaining
  in
  let handle_reply w (reply : reply) =
    ignore (waitpid_retry w.l_pid);
    match reply.r_result with
    | (Solver.Sat _ | Solver.Unsat) when Option.is_some !winner ->
      (* Another worker already won while this reply sat buffered. *)
      finish w W_lost (Some reply.r_stats)
    | Solver.Sat model when not (Cnf.satisfied_by cnf model) ->
      (* A worker claiming SAT must prove it; a bogus model is a
         crash, not a verdict. *)
      finish w (W_crashed 0) (Some reply.r_stats)
    | Solver.Sat _ | Solver.Unsat ->
      result := reply.r_result;
      winner := Some w.l_index;
      finish w W_won (Some reply.r_stats);
      kill_remaining W_lost !remaining
    | Solver.Unknown -> finish w W_exhausted (Some reply.r_stats)
  in
  let abort_protocol w =
    (* EOF without a reply, a malformed frame or an unreadable reply:
       the child is dead or talking garbage. *)
    kill_quietly w.l_pid;
    finish w (crash_status (waitpid_retry w.l_pid)) None
  in
  let buf = Bytes.create 65536 in
  let handle_readable w =
    match Unix.read w.l_up buf 0 (Bytes.length buf) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | 0 -> finish w (crash_status (waitpid_retry w.l_pid)) None
    | nread -> (
      Share.feed w.l_dec buf nread;
      try
        let continue = ref true in
        while !continue do
          match Share.next w.l_dec with
          | None -> continue := false
          | Some (Share.Clause { glue; lits }) ->
            w.l_exported <- w.l_exported + 1;
            if Option.is_some share then begin
              let k = Share.key lits in
              if not (Hashtbl.mem seen k) then begin
                Hashtbl.add seen k ();
                broadcast w (Share.encode_clause ~glue lits)
              end
            end
          | Some (Share.Reply payload) -> (
            continue := false;
            match (Marshal.from_bytes payload 0 : reply) with
            | exception _ -> abort_protocol w
            | reply -> handle_reply w reply)
        done
      with Share.Malformed _ -> abort_protocol w)
  in
  let rec race () =
    match !remaining with
    | [] -> ()
    | ws ->
      let timeout =
        match deadline with
        | None -> -1.0
        | Some d -> Float.max 0.0 (d -. Unix.gettimeofday ())
      in
      (match select_retry (List.map (fun w -> w.l_up) ws) timeout with
      | [] ->
        (* Per-worker wall-clock timeout: everyone still running dies. *)
        kill_remaining W_timed_out ws
      | readable ->
        List.iter
          (fun w ->
            (* A worker may have been finished by an earlier iteration
               of this same round (a win kills the rest). *)
            if
              List.mem w.l_up readable
              && List.exists (fun o -> o.l_index = w.l_index) !remaining
            then handle_readable w)
          ws);
      race ()
  in
  race ();
  (match old_sigpipe with
  | Some h -> Sys.set_signal Sys.sigpipe h
  | None -> ());
  (match trace_jsonl with
  | Some path -> merge_traces path (List.init n Fun.id)
  | None -> ());
  let workers =
    Array.to_list records
    |> List.filteri (fun _ r -> r <> None)
    |> List.map Option.get
  in
  { result = !result; winner = !winner; workers; wall_seconds = elapsed () }

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)

let sequential ~trace_jsonl spec cnf =
  let solver = Solver.create ~config:spec.sp_config cnf in
  attach_trace solver trace_jsonl;
  let started = Unix.gettimeofday () in
  let result = Solver.solve ~budget:spec.sp_budget solver in
  let wall = Unix.gettimeofday () -. started in
  Solver.close_trace solver;
  let w_status, winner =
    match result with
    | Solver.Sat _ | Solver.Unsat -> (W_won, Some 0)
    | Solver.Unknown -> (W_exhausted, None)
  in
  {
    result;
    winner;
    workers =
      [
        {
          w_index = 0;
          w_config = spec.sp_config;
          w_status;
          w_wall_seconds = wall;
          w_stats = Some (Solver.stats solver);
          w_frames_exported = 0;
          w_frames_delivered = 0;
        };
      ];
    wall_seconds = wall;
  }

let solve_specs ?wall_timeout ?(share = true) ?(share_max_len = 8)
    ?(share_max_glue = 4) ?worker_hook ?trace_jsonl specs cnf =
  (match wall_timeout with
  | Some t when not (t >= 0.0) ->
    invalid_arg "Portfolio.solve_specs: negative wall timeout"
  | Some _ | None -> ());
  if share_max_len < 1 || share_max_glue < 1 then
    invalid_arg "Portfolio.solve_specs: share caps need at least 1";
  match specs with
  | [] -> invalid_arg "Portfolio.solve_specs: empty portfolio"
  | [ spec ] when Option.is_none worker_hook ->
    (* Deterministic sequential fallback: no fork, no pipe, the exact
       Solver.solve code path.  A wall timeout degenerates to a CPU
       budget (the closest sequential notion). *)
    let spec =
      match wall_timeout with
      | None -> spec
      | Some t ->
        let max_seconds =
          match spec.sp_budget.Solver.max_seconds with
          | None -> Some t
          | Some s -> Some (Float.min s t)
        in
        { spec with sp_budget = { spec.sp_budget with max_seconds } }
    in
    sequential ~trace_jsonl spec cnf
  | specs ->
    let share = if share then Some (share_max_len, share_max_glue) else None in
    fork_race ~wall_timeout ~share ~worker_hook ~trace_jsonl specs cnf

let solve_config ?(budget = Solver.no_budget) ?(workers = 1) ?diversify:lanes
    ?wall_timeout ?share ?share_max_len ?share_max_glue ?trace_jsonl config cnf
    =
  let specs =
    List.map
      (fun sp_config -> { sp_config; sp_budget = budget })
      (diversify ?diversify:lanes ~workers config)
  in
  solve_specs ?wall_timeout ?share ?share_max_len ?share_max_glue ?trace_jsonl
    specs cnf

(* ------------------------------------------------------------------ *)
(* JSON.                                                               *)

let worker_to_json w =
  Json.Obj
    [
      "worker", Json.Int w.w_index;
      "strategy", Json.String (Config.name_of w.w_config);
      "seed", Json.Int w.w_config.Config.seed;
      "status", Json.String (status_to_string w.w_status);
      "wall_seconds", Json.Float w.w_wall_seconds;
      "frames_exported", Json.Int w.w_frames_exported;
      "frames_delivered", Json.Int w.w_frames_delivered;
      ( "stats",
        match w.w_stats with
        | Some st -> Stats.to_json ~worker:w.w_index st
        | None -> Json.Null );
    ]

let outcome_to_json o =
  Json.Obj
    [
      "result", Json.String (result_to_string o.result);
      ( "winner",
        match o.winner with Some w -> Json.Int w | None -> Json.Null );
      "wall_seconds", Json.Float o.wall_seconds;
      "workers", Json.List (List.map worker_to_json o.workers);
    ]

(* Persistent solver daemon.

   Keeps hot solver instances resident between requests so incremental
   clients (equivalence checkers, refinement loops) reuse learnt
   clauses and heuristic state across queries.

   Usage:
     berkmin-serverd --socket /tmp/berkmin.sock     # select-loop daemon
     berkmin-serverd --stdio                        # one client on stdio

   Speaks JSONL (one request object per line); see docs/SERVER.md. *)

module Server = Berkmin_server.Server
module Trace = Berkmin.Trace

let run socket stdio trace_file strategy max_sessions simplify ccmin
    phase_saving restarts reduce =
  match Berkmin.Config.preset strategy with
  | Error msg ->
    Printf.eprintf "berkmin-serverd: %s\n" msg;
    2
  | Ok config -> (
    let config =
      match
        Berkmin.Config.with_overrides ~simplify ?ccmin ?phase_saving ?restarts
          ?reduce config
      with
      | Ok config -> config
      | Error msg ->
        Printf.eprintf "berkmin-serverd: %s\n" msg;
        exit 2
    in
    let server = Server.create ~config ~max_sessions () in
    (match trace_file with
    | Some path -> Trace.set_sink (Server.trace server) (Trace.open_jsonl path)
    | None -> ());
    let finish code =
      Server.close server;
      code
    in
    match socket, stdio with
    | Some path, false ->
      (match Server.serve_socket server ~path with
      | () -> finish 0
      | exception Unix.Unix_error (err, fn, arg) ->
        Printf.eprintf "berkmin-serverd: %s(%s): %s\n" fn arg
          (Unix.error_message err);
        finish 2)
    | None, _ ->
      (* stdio is the default transport *)
      Server.serve_channels server stdin stdout;
      finish 0
    | Some _, true ->
      Printf.eprintf "berkmin-serverd: --socket and --stdio are exclusive\n";
      finish 2)

open Cmdliner

let socket =
  Arg.(
    value & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Serve a Unix-domain socket at $(docv) (replacing a stale one).")

let stdio =
  Arg.(
    value & flag
    & info [ "stdio" ] ~doc:"Serve a single client on stdin/stdout (default).")

let trace_file =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write one JSONL server_request event per serviced request.")

let strategy =
  Arg.(
    value & opt string "berkmin"
    & info [ "s"; "strategy" ] ~docv:"NAME"
        ~doc:"Solver preset seeding every session.")

let max_sessions =
  let positive =
    Arg.conv
      ( (fun s ->
          match int_of_string_opt s with
          | Some n when n >= 1 -> Ok n
          | Some _ | None -> Error (`Msg "expected a positive integer")),
        Format.pp_print_int )
  in
  Arg.(
    value & opt positive 64
    & info [ "max-sessions" ] ~docv:"N"
        ~doc:
          "Refuse new sessions beyond $(docv) resident solvers (at least \
           1).")

let simplify =
  Arg.(
    value & opt string "off"
    & info [ "simplify" ] ~docv:"MODE"
        ~doc:
          "Clause-database simplification for every session: $(b,off) \
           (default), $(b,pre) or $(b,inprocess).  Assumption variables \
           are frozen, but a later add_clause or solve touching a \
           variable the simplifier already eliminated is rejected as an \
           error reply, so incremental clients should keep the default \
           unless their variable set is stable.  See docs/SIMPLIFY.md.")

let ccmin =
  Arg.(
    value
    & opt (some string) None
    & info [ "ccmin" ] ~docv:"MODE"
        ~doc:
          "Conflict-clause minimization for every session: $(b,off), \
           $(b,basic) or $(b,deep).  Overrides the strategy preset.  \
           See docs/STRATEGIES.md.")

let phase_saving =
  Arg.(
    value
    & opt (some bool) None
    & info [ "phase-saving" ] ~docv:"BOOL"
        ~doc:
          "Reuse each variable's last assigned polarity on later \
           decisions, for every session.  Overrides the strategy preset.")

let restarts =
  Arg.(
    value
    & opt (some string) None
    & info [ "restarts" ] ~docv:"MODE"
        ~doc:
          "Restart schedule for every session: $(b,fixed:N), $(b,luby:N) \
           or $(b,none).  Overrides the strategy preset.")

let reduce =
  Arg.(
    value
    & opt (some string) None
    & info [ "reduce" ] ~docv:"MODE"
        ~doc:
          "Learnt-database reduction for every session: $(b,berkmin), \
           $(b,length:N), $(b,glue:N) or $(b,keep-all).  Overrides the \
           strategy preset.")

let cmd =
  let doc = "persistent BerkMin solver daemon (JSONL protocol)" in
  Cmd.v
    (Cmd.info "berkmin-serverd" ~doc)
    Term.(
      const run $ socket $ stdio $ trace_file $ strategy $ max_sessions
      $ simplify $ ccmin $ phase_saving $ restarts $ reduce)

let () = exit (Cmd.eval' cmd)

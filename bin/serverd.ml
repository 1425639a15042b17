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

let run socket stdio trace_file config max_sessions =
  match socket, stdio with
  | Some _, true -> `Error (true, "--socket and --stdio are exclusive")
  | _ -> (
    match Option.map Trace.open_jsonl trace_file with
    | exception Sys_error msg ->
      Printf.eprintf "berkmin-serverd: %s\n" msg;
      `Ok 2
    | sink -> (
      let server = Server.create ~config ~max_sessions () in
      Option.iter (Trace.set_sink (Server.trace server)) sink;
      let finish code =
        Server.close server;
        `Ok code
      in
      match socket with
      | Some path -> (
        match Server.serve_socket server ~path with
        | () -> finish 0
        | exception Unix.Unix_error (err, fn, arg) ->
          Printf.eprintf "berkmin-serverd: %s(%s): %s\n" fn arg
            (Unix.error_message err);
          finish 2)
      | None ->
        (* stdio is the default transport *)
        Server.serve_channels server stdin stdout;
        finish 0))

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

let max_sessions =
  Arg.(
    value
    & opt (Flags.count ~min:1) 64
    & info [ "max-sessions" ] ~docv:"N"
        ~doc:
          "Refuse new sessions beyond $(docv) resident solvers (at least \
           1).")

let cmd =
  let doc = "persistent BerkMin solver daemon (JSONL protocol)" in
  Cmd.v
    (Cmd.info "berkmin-serverd" ~doc)
    Term.(
      ret
        (const run $ socket $ stdio $ trace_file $ Flags.config $ max_sessions))

let () = exit (Cmd.eval' cmd)

open Berkmin_types
module Solver = Berkmin.Solver
module Config = Berkmin.Config
module Trace = Berkmin.Trace
module Stats = Berkmin.Stats

type session = {
  solver : Solver.t;
  mutable requests : int;  (* serviced against this session *)
}

type t = {
  config : Config.t;
  max_sessions : int;
  sessions : (string, session) Hashtbl.t;
  trace : Trace.t;
  reply : Buffer.t;
      (* every reply is written here; it keeps the size of the largest *)
}

let create ?(config = Config.berkmin) ?(max_sessions = 64) () =
  if max_sessions < 1 then
    invalid_arg "Server.create: max_sessions must be at least 1";
  {
    config;
    max_sessions;
    sessions = Hashtbl.create 16;
    trace = Trace.create ();
    reply = Buffer.create 256;
  }

let num_sessions t = Hashtbl.length t.sessions

let session_solver t name =
  Option.map (fun s -> s.solver) (Hashtbl.find_opt t.sessions name)

let trace t = t.trace

let close t =
  Hashtbl.reset t.sessions;
  Trace.close t.trace

(* ------------------------------------------------------------------ *)
(* Request servicing                                                   *)

let core_to_json core =
  Json.List (List.map (fun l -> Json.Int (Lit.to_dimacs l)) core)

let stats_fields sess =
  let s = sess.solver in
  let st = Solver.stats s in
  [
    "vars", Json.Int (Solver.num_vars s);
    "clauses", Json.Int (Solver.num_original_clauses s);
    "learnt_live", Json.Int (Solver.num_learnt_live s);
    "conflicts", Json.Int st.Stats.conflicts;
    "decisions", Json.Int st.Stats.decisions;
    "propagations", Json.Int st.Stats.propagations;
    "restarts", Json.Int st.Stats.restarts;
    "arena_bytes", Json.Int (Solver.arena_bytes s);
    "requests", Json.Int sess.requests;
  ]

let budget_of max_conflicts max_ms =
  { Solver.max_conflicts; max_seconds = Option.map (fun ms -> ms /. 1000.) max_ms }

type payload =
  | Fields of (string * Json.t) list  (* success *)
  | Model of bool array  (* a SAT answer: [Protocol.add_sat] writes it *)
  | Failed of string

type outcome = {
  payload : payload;
  status : string;  (* for the trace event *)
}

let okay ?(status = "ok") fields = { payload = Fields fields; status }
let fail msg = { payload = Failed msg; status = "error" }

let with_session t session f =
  match session with
  | None -> fail "missing field \"session\""
  | Some name -> (
    match Hashtbl.find_opt t.sessions name with
    | None -> fail (Printf.sprintf "unknown session %S" name)
    | Some sess ->
      sess.requests <- sess.requests + 1;
      f sess)

let service t (req : Protocol.request) =
  match req.command with
  | Ping -> okay [ "pong", Json.Bool true ]
  | Shutdown -> okay [ "stopping", Json.Bool true ]
  | Open { vars } -> (
    match req.session with
    | None -> fail "missing field \"session\""
    | Some name ->
      if Hashtbl.mem t.sessions name then
        fail (Printf.sprintf "session %S already exists" name)
      else if Hashtbl.length t.sessions >= t.max_sessions then
        fail
          (Printf.sprintf "session limit reached (%d resident)"
             t.max_sessions)
      else begin
        let solver =
          Solver.create ~config:t.config (Cnf.create ~num_vars:vars ())
        in
        Hashtbl.replace t.sessions name { solver; requests = 1 };
        okay [ "session", Json.String name; "vars", Json.Int vars ]
      end)
  | New_var { count } ->
    with_session t req.session (fun sess ->
        let first = Solver.new_var sess.solver in
        for _ = 2 to count do
          ignore (Solver.new_var sess.solver)
        done;
        (* fresh variables in wire (1-based) numbering *)
        let vars = List.init count (fun i -> Json.Int (first + i + 1)) in
        okay
          [
            "vars", Json.List vars;
            "num_vars", Json.Int (Solver.num_vars sess.solver);
          ])
  | Add_clause { lits } ->
    with_session t req.session (fun sess ->
        match Solver.add_clause sess.solver lits with
        | () -> okay []
        | exception Invalid_argument msg -> fail msg)
  | Add_clauses { clauses } ->
    with_session t req.session (fun sess ->
        let rec go n = function
          | [] -> okay [ "added", Json.Int n ]
          | lits :: rest -> (
            match Solver.add_clause sess.solver lits with
            | () -> go (n + 1) rest
            | exception Invalid_argument msg ->
              fail (Printf.sprintf "clause %d: %s" (n + 1) msg))
        in
        go 0 clauses)
  | Solve { assumps; max_conflicts; max_ms } ->
    with_session t req.session (fun sess ->
        let budget = budget_of max_conflicts max_ms in
        match Solver.solve ~budget ~assumps sess.solver with
        | Solver.Sat m -> { payload = Model m; status = "sat" }
        | Solver.Unsat ->
          let core =
            match Solver.unsat_core sess.solver with
            | Some core -> [ "core", core_to_json core ]
            | None -> []
          in
          okay ~status:"unsat" (("status", Json.String "unsat") :: core)
        | Solver.Unknown ->
          okay ~status:"unknown" [ "status", Json.String "unknown" ]
        | exception Invalid_argument msg -> fail msg)
  | Stats -> with_session t req.session (fun sess -> okay (stats_fields sess))
  | Close -> (
    match req.session with
    | None -> fail "missing field \"session\""
    | Some name ->
      if Hashtbl.mem t.sessions name then begin
        Hashtbl.remove t.sessions name;
        okay [ "closed", Json.String name ]
      end
      else fail (Printf.sprintf "unknown session %S" name))

let counters_of solver =
  match solver with
  | Some s ->
    let st = Solver.stats s in
    (st.Stats.conflicts, st.Stats.propagations)
  | None -> (0, 0)

let write_reply b ?id = function
  | Fields fields -> Json.add b (Protocol.ok ?id fields)
  | Model m -> Protocol.add_sat b ?id m
  | Failed msg -> Json.add b (Protocol.error ?id msg)

(* Services one parsed request and writes its reply into [t.reply]; the
   trace event's latency covers both.  Returns whether to keep
   serving. *)
let respond t json =
  let started = Unix.gettimeofday () in
  let id = Json.member "id" json in
  let parsed = Protocol.parse json in
  let session_name =
    match parsed with
    | Ok { session = Some s; _ } -> s
    | Ok { session = None; _ } | Error _ -> ""
  in
  let op =
    match parsed with
    | Ok req -> Protocol.op_name req.command
    | Error _ -> "invalid"
  in
  (* pin the solver object so the deltas survive a [close] removing the
     session from the registry mid-request *)
  let solver = session_solver t session_name in
  let before = counters_of solver in
  let outcome =
    match parsed with Ok req -> service t req | Error msg -> fail msg
  in
  write_reply t.reply ?id outcome.payload;
  if Trace.active t.trace then begin
    let solver =
      match solver with Some _ -> solver | None -> session_solver t session_name
    in
    let after = counters_of solver in
    Trace.emit t.trace
      (Trace.Server_request
         {
           session = session_name;
           op;
           status = outcome.status;
           conflicts = fst after - fst before;
           propagations = snd after - snd before;
           latency_ms = 1000. *. (Unix.gettimeofday () -. started);
         })
  end;
  match parsed with
  | Ok { command = Protocol.Shutdown; _ } -> `Shutdown
  | Ok _ | Error _ -> `Continue

(* Services one request line, leaving its reply in [t.reply]. *)
let respond_line t line =
  Buffer.clear t.reply;
  match Json.of_string line with
  | json -> respond t json
  | exception Json.Parse_error msg ->
    if Trace.active t.trace then
      Trace.emit t.trace
        (Trace.Server_request
           {
             session = "";
             op = "invalid";
             status = "error";
             conflicts = 0;
             propagations = 0;
             latency_ms = 0.;
           });
    write_reply t.reply (Failed ("malformed JSON: " ^ msg));
    `Continue

let handle_line t line =
  let continue = respond_line t line in
  (Buffer.contents t.reply, continue)

(* ------------------------------------------------------------------ *)
(* Transports                                                          *)

let serve_channels t ic oc =
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line when String.trim line = "" -> loop ()
    | line -> (
      let response, continue = handle_line t line in
      output_string oc response;
      output_char oc '\n';
      flush oc;
      match continue with `Continue -> loop () | `Shutdown -> ())
  in
  loop ()

(* --- Unix-domain-socket select loop ------------------------------- *)

(* The bytes a client sent after its last complete line, in the pieces
   they arrived in, newest first. *)
type pending = string list ref

let pending () = ref []

let split_lines p chunk n =
  let rec newline i =
    if i >= n then None
    else if Bytes.get chunk i = '\n' then Some i
    else newline (i + 1)
  in
  let rec go start lines =
    match newline start with
    | Some stop ->
      let piece = Bytes.sub_string chunk start (stop - start) in
      let line =
        if !p = [] then piece else String.concat "" (List.rev (piece :: !p))
      in
      p := [];
      go (stop + 1) (line :: lines)
    | None ->
      if start < n then p := Bytes.sub_string chunk start (n - start) :: !p;
      List.rev lines
  in
  go 0 []

type conn = {
  fd : Unix.file_descr;
  pending : pending;
}

let rec select_retry rds timeout =
  match Unix.select rds [] [] timeout with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> select_retry rds timeout

let write_all fd s =
  let rec go off =
    if off < String.length s then
      match Unix.write_substring fd s off (String.length s - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let serve_socket_until t ~path ~ready =
  (match Unix.unlink path with
  | () -> ()
  | exception Unix.Unix_error _ -> ());
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 8 in
  let close_conn c =
    Hashtbl.remove conns c.fd;
    match Unix.close c.fd with
    | () -> ()
    | exception Unix.Unix_error _ -> ()
  in
  (* A client that hangs up before its reply must cost only its own
     connection: with SIGPIPE ignored, the write fails with EPIPE and
     the connection is closed, where the signal would end the daemon. *)
  let old_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let finish () =
    Hashtbl.iter (fun _ c -> close_conn c) conns;
    (match Unix.close srv with
    | () -> ()
    | exception Unix.Unix_error _ -> ());
    (match Unix.unlink path with
    | () -> ()
    | exception Unix.Unix_error _ -> ());
    Sys.set_signal Sys.sigpipe old_sigpipe
  in
  Fun.protect ~finally:finish (fun () ->
      Unix.bind srv (Unix.ADDR_UNIX path);
      Unix.listen srv 16;
      ready ();
      let stop = ref false in
      let chunk = Bytes.create 65536 in
      while not !stop do
        let rds = srv :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns [] in
        let readable, _, _ = select_retry rds (-1.0) in
        List.iter
          (fun fd ->
            if fd == srv then begin
              match Unix.accept srv with
              | client, _ ->
                Hashtbl.replace conns client
                  { fd = client; pending = pending () }
              | exception Unix.Unix_error _ -> ()
            end
            else
              match Hashtbl.find_opt conns fd with
              | None -> ()
              | Some c -> (
                match Unix.read c.fd chunk 0 (Bytes.length chunk) with
                | 0 -> close_conn c
                | n ->
                  List.iter
                    (fun line ->
                      if (not !stop) && String.trim line <> "" then begin
                        let continue = respond_line t line in
                        (* the reply and its newline, copied out together *)
                        Buffer.add_char t.reply '\n';
                        (match write_all c.fd (Buffer.contents t.reply) with
                        | () -> ()
                        | exception Unix.Unix_error _ -> close_conn c);
                        match continue with
                        | `Shutdown -> stop := true
                        | `Continue -> ()
                      end)
                    (split_lines c.pending chunk n)
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
                | exception Unix.Unix_error _ -> close_conn c))
          readable
      done)

let serve_socket t ~path = serve_socket_until t ~path ~ready:(fun () -> ())

(** Persistent solver daemon: hot {!Berkmin.Solver} instances behind a
    JSONL request loop.

    The point of the server is what survives between requests.  Each
    session keys a resident solver whose learnt clauses, activity
    tables and phase memory accumulate across [solve] calls, so a
    stream of related queries (the incremental-equivalence-checking
    workload of [bin/ec.ml], CEGAR-style refinement loops, …) pays for
    the shared search work once instead of once per query.

    The core is transport-agnostic: {!handle_line} maps one request
    line to one response line.  Two transports are provided — a blocking
    stdio loop ({!serve_channels}) and a Unix-domain-socket select
    loop ({!serve_socket}) multiplexing any number of concurrent
    clients from a single thread, in the style of
    {!Berkmin_portfolio}.  Single-threading is a feature: requests are
    serviced one at a time in arrival order, so solver state never
    needs locking and every run is deterministic for a given request
    interleaving.

    Per-request observability rides the existing plumbing: every
    request, a malformed line included, emits one
    {!Berkmin.Trace.Server_request} event (op, status, latency,
    conflict and propagation deltas) on the server's trace stream.
    Aggregate counts (requests, errors, solves by verdict) are sums
    over those events. *)

type t

val create :
  ?config:Berkmin.Config.t -> ?max_sessions:int -> unit -> t
(** A server with no sessions.  [config] seeds every session's solver
    (default {!Berkmin.Config.berkmin}); [max_sessions] (default 64)
    bounds resident solvers — further [open]s are refused, not
    evicted.
    @raise Invalid_argument if [max_sessions] is below 1. *)

val handle_line : t -> string -> string * [ `Continue | `Shutdown ]
(** Services one request line: returns the response line to send back
    (a fresh string, without its newline) and whether the daemon
    should keep serving.  Never raises on malformed input — errors
    become [{"ok": false}] responses.  [`Shutdown] only follows an
    explicit [shutdown] request.  Every response is written into one
    buffer the server keeps, as large as its largest response; a SAT
    model is written straight from the solver's answer
    ({!Protocol.add_sat}). *)

val num_sessions : t -> int

val session_solver : t -> string -> Berkmin.Solver.t option
(** Direct access to a resident solver (tests and in-process
    embedders). *)

val trace : t -> Berkmin.Trace.t
(** The server's trace stream ([Null] sink by default); install a sink
    to capture one [server_request] event per serviced request. *)

val close : t -> unit
(** Drops every session and closes the trace sink. *)

val serve_channels : t -> in_channel -> out_channel -> unit
(** Blocking single-client loop: one request line in, one response
    line out, until EOF or [shutdown].  The stdio transport
    ([serverd --stdio]). *)

val serve_socket : t -> path:string -> unit
(** Binds (replacing any stale file) and serves a Unix-domain
    stream socket until a [shutdown] request, multiplexing all
    connected clients through one [select] loop.  Each client speaks
    the same line protocol; responses are written before the next
    request — of any client — is read, so solver state is never
    interleaved.  A client that hangs up before its reply loses only
    its connection: SIGPIPE is ignored while the loop runs and the
    previous handler restored on return.  The socket file is unlinked
    on return. *)

val serve_socket_until :
  t -> path:string -> ready:(unit -> unit) -> unit
(** {!serve_socket} with a [ready] callback invoked once the socket is
    bound and listening — how a test (or a parent process) knows it
    may connect without racing the bind. *)

type pending
(** The bytes a client has sent after its last complete line. *)

val pending : unit -> pending
(** Nothing pending. *)

val split_lines : pending -> bytes -> int -> string list
(** [split_lines p chunk n] takes the first [n] bytes of [chunk], as
    read from a client, and returns the lines they complete, in order,
    without their ['\n'] (blank lines included); the bytes after the
    last ['\n'] stay in [p].  Only the new bytes are scanned, and a
    line is copied out once, when it completes, so a line read in
    pieces costs time and allocation linear in its length.  The
    socket loop's splitter, exposed for tests. *)

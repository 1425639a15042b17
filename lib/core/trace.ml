open Berkmin_types

type decision_kind =
  | D_top_clause
  | D_global
  | D_assumption

type share_direction =
  | S_export
  | S_import

type event =
  | Decide of { level : int; var : int; value : bool; kind : decision_kind }
  | Propagate of { level : int; lit : Lit.t }
  | Conflict of { level : int; conflict_no : int }
  | Learn of { size : int; asserting : Lit.t; backjump_level : int }
  | Backjump of { from_level : int; to_level : int }
  | Restart of { restart_no : int; conflict_no : int; seq_index : int }
  | Reduce_db of {
      live_before : int;
      removed : int;
      threshold : int;
      glue_kept : int;
      glue_dropped : int;
    }
  | Simplify of {
      rounds : int;
      subsumed : int;
      strengthened : int;
      eliminated_vars : int;
      failed_literals : int;
      clauses_before : int;
      clauses_after : int;
    }
  | Gc of {
      reclaimed_bytes : int;
      arena_bytes_before : int;
      arena_bytes_after : int;
    }
  | Heartbeat of {
      conflict_no : int;
      decisions : int;
      propagations : int;
      learnt_live : int;
      seconds : float;
    }
  | Share of { direction : share_direction; size : int; glue : int }
  | Warn of { message : string }
  | Server_request of {
      session : string;
      op : string;
      status : string;
      conflicts : int;
      propagations : int;
      latency_ms : float;
    }

type sink =
  | Null
  | Callback of (event -> unit)
  | Jsonl of out_channel

type t = {
  mutable sink : sink;
  mutable active : bool;  (* false iff sink = Null: the hot-path guard *)
  mutable emitted : int;
  mutable worker : int option;
}

let create () = { sink = Null; active = false; emitted = 0; worker = None }

let kind_to_string = function
  | D_top_clause -> "top_clause"
  | D_global -> "global"
  | D_assumption -> "assumption"

let direction_to_string = function
  | S_export -> "export"
  | S_import -> "import"

let event_fields = function
  | Decide { level; var; value; kind } ->
    Json.Obj
      [
        "event", Json.String "decide";
        "level", Json.Int level;
        "var", Json.Int var;
        "value", Json.Bool value;
        "kind", Json.String (kind_to_string kind);
      ]
  | Propagate { level; lit } ->
    Json.Obj
      [
        "event", Json.String "propagate";
        "level", Json.Int level;
        "lit", Json.Int (Lit.to_dimacs lit);
      ]
  | Conflict { level; conflict_no } ->
    Json.Obj
      [
        "event", Json.String "conflict";
        "level", Json.Int level;
        "conflict_no", Json.Int conflict_no;
      ]
  | Learn { size; asserting; backjump_level } ->
    Json.Obj
      [
        "event", Json.String "learn";
        "size", Json.Int size;
        "asserting", Json.Int (Lit.to_dimacs asserting);
        "backjump_level", Json.Int backjump_level;
      ]
  | Backjump { from_level; to_level } ->
    Json.Obj
      [
        "event", Json.String "backjump";
        "from_level", Json.Int from_level;
        "to_level", Json.Int to_level;
      ]
  | Restart { restart_no; conflict_no; seq_index } ->
    Json.Obj
      [
        "event", Json.String "restart";
        "restart_no", Json.Int restart_no;
        "conflict_no", Json.Int conflict_no;
        "seq_index", Json.Int seq_index;
      ]
  | Reduce_db { live_before; removed; threshold; glue_kept; glue_dropped } ->
    Json.Obj
      [
        "event", Json.String "reduce_db";
        "live_before", Json.Int live_before;
        "removed", Json.Int removed;
        "threshold", Json.Int threshold;
        "glue_kept", Json.Int glue_kept;
        "glue_dropped", Json.Int glue_dropped;
      ]
  | Simplify
      {
        rounds;
        subsumed;
        strengthened;
        eliminated_vars;
        failed_literals;
        clauses_before;
        clauses_after;
      } ->
    Json.Obj
      [
        "event", Json.String "simplify";
        "rounds", Json.Int rounds;
        "subsumed", Json.Int subsumed;
        "strengthened", Json.Int strengthened;
        "eliminated_vars", Json.Int eliminated_vars;
        "failed_literals", Json.Int failed_literals;
        "clauses_before", Json.Int clauses_before;
        "clauses_after", Json.Int clauses_after;
      ]
  | Gc { reclaimed_bytes; arena_bytes_before; arena_bytes_after } ->
    Json.Obj
      [
        "event", Json.String "gc";
        "reclaimed_bytes", Json.Int reclaimed_bytes;
        "arena_bytes_before", Json.Int arena_bytes_before;
        "arena_bytes_after", Json.Int arena_bytes_after;
      ]
  | Heartbeat { conflict_no; decisions; propagations; learnt_live; seconds } ->
    Json.Obj
      [
        "event", Json.String "heartbeat";
        "conflict_no", Json.Int conflict_no;
        "decisions", Json.Int decisions;
        "propagations", Json.Int propagations;
        "learnt_live", Json.Int learnt_live;
        "seconds", Json.Float seconds;
      ]
  | Share { direction; size; glue } ->
    Json.Obj
      [
        "event", Json.String "share";
        "direction", Json.String (direction_to_string direction);
        "size", Json.Int size;
        "glue", Json.Int glue;
      ]
  | Warn { message } ->
    Json.Obj
      [ "event", Json.String "warn"; "message", Json.String message ]
  | Server_request { session; op; status; conflicts; propagations; latency_ms }
    ->
    Json.Obj
      [
        "event", Json.String "server_request";
        "session", Json.String session;
        "op", Json.String op;
        "status", Json.String status;
        "conflicts", Json.Int conflicts;
        "propagations", Json.Int propagations;
        "latency_ms", Json.Float latency_ms;
      ]

let event_to_json ?worker event =
  let fields =
    match event_fields event with
    | Json.Obj fields -> fields
    | json -> [ "event", json ]
  in
  match worker with
  | None -> Json.Obj fields
  | Some w -> Json.Obj (("worker", Json.Int w) :: fields)

let set_sink t sink =
  t.sink <- sink;
  t.active <- sink <> Null

let sink t = t.sink
let active t = t.active
let emitted t = t.emitted
let set_worker t w = t.worker <- Some w
let worker t = t.worker

let emit t event =
  match t.sink with
  | Null -> ()
  | Callback f ->
    t.emitted <- t.emitted + 1;
    f event
  | Jsonl oc ->
    t.emitted <- t.emitted + 1;
    (* Line-buffered with an explicit flush: traces are a debugging
       aid, so survivability of every line beats raw throughput. *)
    output_string oc (Json.to_string (event_to_json ?worker:t.worker event));
    output_char oc '\n';
    flush oc

let open_jsonl path = Jsonl (open_out path)

let close t =
  (match t.sink with
  | Jsonl oc -> close_out_noerr oc
  | Null | Callback _ -> ());
  set_sink t Null

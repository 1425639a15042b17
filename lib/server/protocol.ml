open Berkmin_types

type command =
  | Open of { vars : int }
  | New_var of { count : int }
  | Add_clause of { lits : Lit.t list }
  | Add_clauses of { clauses : Lit.t list list }
  | Solve of {
      assumps : Lit.t list;
      max_conflicts : int option;
      max_ms : float option;
    }
  | Stats
  | Close
  | Ping
  | Shutdown

type request = {
  id : Json.t option;
  session : string option;
  command : command;
}

let op_name = function
  | Open _ -> "open"
  | New_var _ -> "new_var"
  | Add_clause _ -> "add_clause"
  | Add_clauses _ -> "add_clauses"
  | Solve _ -> "solve"
  | Stats -> "stats"
  | Close -> "close"
  | Ping -> "ping"
  | Shutdown -> "shutdown"

let lit_of_dimacs_checked n =
  if n = 0 then Error "literal 0 is not a literal" else Ok (Lit.of_dimacs n)

(* Result-aware combinators over the hand-rolled Json accessors. *)
let ( let* ) r f = Result.bind r f

let field name json = Json.member name json

let int_field ?default name json =
  match field name json with
  | None -> (
    match default with
    | Some d -> Ok d
    | None -> Error (Printf.sprintf "missing integer field %S" name))
  | Some j -> (
    match Json.to_int_opt j with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "field %S must be an integer" name))

let opt_int_field name json =
  match field name json with
  | None -> Ok None
  | Some j -> (
    match Json.to_int_opt j with
    | Some n -> Ok (Some n)
    | None -> Error (Printf.sprintf "field %S must be an integer" name))

let opt_float_field name json =
  match field name json with
  | None -> Ok None
  | Some j -> (
    match Json.to_float_opt j with
    | Some x -> Ok (Some x)
    | None -> Error (Printf.sprintf "field %S must be a number" name))

let lits_of_json name json =
  match Json.to_list_opt json with
  | None -> Error (Printf.sprintf "field %S must be a list of literals" name)
  | Some elems ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | j :: rest -> (
        match Json.to_int_opt j with
        | None -> Error (Printf.sprintf "field %S holds a non-integer" name)
        | Some n ->
          let* l = lit_of_dimacs_checked n in
          go (l :: acc) rest)
    in
    go [] elems

let lits_field ?(default = []) name json =
  match field name json with
  | None -> Ok default
  | Some j -> lits_of_json name j

let parse json =
  match json with
  | Json.Obj _ -> (
    let id = field "id" json in
    let session =
      match field "session" json with
      | Some (Json.String s) -> Some s
      | Some _ | None -> None
    in
    let finish command = Ok { id; session; command } in
    match field "op" json with
    | Some (Json.String op) -> (
      let r =
        match op with
        | "open" ->
          let* vars = int_field ~default:0 "vars" json in
          if vars < 0 then Error "field \"vars\" must be non-negative"
          else finish (Open { vars })
        | "new_var" ->
          let* count = int_field ~default:1 "count" json in
          if count < 1 then Error "field \"count\" must be positive"
          else finish (New_var { count })
        | "add_clause" ->
          let* lits = lits_field "lits" json in
          finish (Add_clause { lits })
        | "add_clauses" -> (
          match field "clauses" json with
          | None -> Error "missing field \"clauses\""
          | Some j -> (
            match Json.to_list_opt j with
            | None -> Error "field \"clauses\" must be a list of clauses"
            | Some elems ->
              let rec go acc = function
                | [] -> finish (Add_clauses { clauses = List.rev acc })
                | c :: rest ->
                  let* lits = lits_of_json "clauses" c in
                  go (lits :: acc) rest
              in
              go [] elems))
        | "solve" ->
          let* assumps = lits_field "assumps" json in
          let* max_conflicts = opt_int_field "max_conflicts" json in
          let* max_ms = opt_float_field "max_ms" json in
          (match max_conflicts, max_ms with
          | Some n, _ when n < 0 ->
            Error "field \"max_conflicts\" must be non-negative"
          | _, Some ms when not (ms >= 0.0) ->
            Error "field \"max_ms\" must be non-negative"
          | _ -> finish (Solve { assumps; max_conflicts; max_ms }))
        | "stats" -> finish Stats
        | "close" -> finish Close
        | "ping" -> finish Ping
        | "shutdown" -> finish Shutdown
        | op -> Error (Printf.sprintf "unknown op %S" op)
      in
      r)
    | Some _ -> Error "field \"op\" must be a string"
    | None -> Error "missing field \"op\"")
  | _ -> Error "request must be a JSON object"

let parse_line line =
  match Json.of_string line with
  | json -> parse json
  | exception Json.Parse_error msg -> Error ("malformed JSON: " ^ msg)

let dimacs_list lits = Json.List (List.map (fun l -> Json.Int (Lit.to_dimacs l)) lits)

let request_to_json { id; session; command } =
  let base = [ "op", Json.String (op_name command) ] in
  let payload =
    match command with
    | Open { vars } -> [ "vars", Json.Int vars ]
    | New_var { count } -> [ "count", Json.Int count ]
    | Add_clause { lits } -> [ "lits", dimacs_list lits ]
    | Add_clauses { clauses } ->
      [ "clauses", Json.List (List.map dimacs_list clauses) ]
    | Solve { assumps; max_conflicts; max_ms } ->
      List.concat
        [
          (if assumps = [] then [] else [ "assumps", dimacs_list assumps ]);
          (match max_conflicts with
          | Some n -> [ "max_conflicts", Json.Int n ]
          | None -> []);
          (match max_ms with
          | Some x -> [ "max_ms", Json.Float x ]
          | None -> []);
        ]
    | Stats | Close | Ping | Shutdown -> []
  in
  let session =
    match session with Some s -> [ "session", Json.String s ] | None -> []
  in
  let id = match id with Some j -> [ "id", j ] | None -> [] in
  Json.Obj (id @ base @ session @ payload)

let ok ?id fields =
  let id = match id with Some j -> [ "id", j ] | None -> [] in
  Json.Obj (id @ (("ok", Json.Bool true) :: fields))

let error ?id msg =
  let id = match id with Some j -> [ "id", j ] | None -> [] in
  Json.Obj (id @ [ "ok", Json.Bool false; "error", Json.String msg ])

(* The one reply that grows with the formula, so it gets no [Json.t]
   node per variable. *)
let add_sat b ?id model =
  Buffer.add_char b '{';
  (match id with
  | Some j ->
    Buffer.add_string b {|"id":|};
    Json.add b j;
    Buffer.add_char b ','
  | None -> ());
  Buffer.add_string b {|"ok":true,"status":"sat","model":[|};
  Array.iteri
    (fun v value ->
      if v > 0 then Buffer.add_char b ',';
      Json.add_int b (if value then v + 1 else -(v + 1)))
    model;
  Buffer.add_string b "]}"

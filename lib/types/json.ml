exception Parse_error of string

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing.                                                           *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Shortest decimal rendering that round-trips to the same double;
   non-finite floats have no JSON form and become null. *)
let float_repr f =
  if f <> f || f = Float.infinity || f = Float.neg_infinity then "null"
  else
    let s = Printf.sprintf "%.15g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    (* Ensure the token stays a JSON number with a fractional part, so
       it parses back as a float rather than an int. *)
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"

(* The decimal digits of [n >= 0], most significant first. *)
let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (Char.code '0' + (n mod 10)))

(* [string_of_int n] written into [b], with no string per integer.
   [-min_int] overflows, so a negative [n] writes the digits of
   [-(n / 10)] and then its last digit. *)
let add_int b n =
  if n >= 0 then add_digits b n
  else begin
    Buffer.add_char b '-';
    if n <= -10 then add_digits b (-(n / 10));
    Buffer.add_char b (Char.unsafe_chr (Char.code '0' - (n mod 10)))
  end

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int n -> add_int b n
  | Float f -> Buffer.add_string b (float_repr f)
  | String s -> escape_string b s
  | List items ->
    Buffer.add_char b '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char b ',';
        add b item)
      items;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        escape_string b k;
        Buffer.add_char b ':';
        add b v)
      fields;
    Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 256 in
  add b j;
  Buffer.contents b

(* Indented rendering for files meant to be read by humans too. *)
let to_string_pretty j =
  let b = Buffer.create 256 in
  let pad n = Buffer.add_string b (String.make n ' ') in
  let rec go indent = function
    | (Null | Bool _ | Int _ | Float _ | String _) as atom -> add b atom
    | List [] -> Buffer.add_string b "[]"
    | List items ->
      Buffer.add_string b "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string b ",\n";
          pad (indent + 2);
          go (indent + 2) item)
        items;
      Buffer.add_char b '\n';
      pad indent;
      Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj fields ->
      Buffer.add_string b "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ",\n";
          pad (indent + 2);
          escape_string b k;
          Buffer.add_string b ": ";
          go (indent + 2) v)
        fields;
      Buffer.add_char b '\n';
      pad indent;
      Buffer.add_char b '}'
  in
  go 0 j;
  Buffer.contents b

let pp fmt j = Format.pp_print_string fmt (to_string j)

(* ------------------------------------------------------------------ *)
(* Parsing: plain recursive descent.                                   *)

type parser_state = {
  input : string;
  mutable pos : int;
}

let fail st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.input then Some st.input.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let continue = ref true in
  while !continue do
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') -> advance st
    | _ -> continue := false
  done

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | _ -> fail st (Printf.sprintf "expected %C" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.input
     && String.sub st.input st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  let continue = ref true in
  while !continue do
    match peek st with
    | Some ('0' .. '9' | '-' | '+') -> advance st
    | Some ('.' | 'e' | 'E') ->
      is_float := true;
      advance st
    | _ -> continue := false
  done;
  let token = String.sub st.input start (st.pos - start) in
  if !is_float then
    match float_of_string_opt token with
    | Some f -> Float f
    | None -> fail st "malformed number"
  else
    match int_of_string_opt token with
    | Some n -> Int n
    | None -> fail st "malformed number"

let parse_string_body st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
      | Some '"' -> Buffer.add_char b '"'; advance st
      | Some '\\' -> Buffer.add_char b '\\'; advance st
      | Some '/' -> Buffer.add_char b '/'; advance st
      | Some 'n' -> Buffer.add_char b '\n'; advance st
      | Some 'r' -> Buffer.add_char b '\r'; advance st
      | Some 't' -> Buffer.add_char b '\t'; advance st
      | Some 'b' -> Buffer.add_char b '\b'; advance st
      | Some 'f' -> Buffer.add_char b '\012'; advance st
      | Some 'u' ->
        advance st;
        if st.pos + 4 > String.length st.input then fail st "truncated \\u";
        let hex = String.sub st.input st.pos 4 in
        (match int_of_string_opt ("0x" ^ hex) with
        | None -> fail st "malformed \\u escape"
        | Some code ->
          st.pos <- st.pos + 4;
          (* Encode the code point as UTF-8 (surrogates are kept as-is
             bytes-wise; the emitter never produces them). *)
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
          end)
      | _ -> fail st "bad escape");
      loop ()
    | Some c ->
      Buffer.add_char b c;
      advance st;
      loop ()
  in
  loop ();
  Buffer.contents b

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> String (parse_string_body st)
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let items = ref [ parse_value st ] in
      skip_ws st;
      while peek st = Some ',' do
        advance st;
        items := parse_value st :: !items;
        skip_ws st
      done;
      expect st ']';
      List (List.rev !items)
    end
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let field () =
        skip_ws st;
        let k = parse_string_body st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        (k, v)
      in
      let fields = ref [ field () ] in
      skip_ws st;
      while peek st = Some ',' do
        advance st;
        fields := field () :: !fields;
        skip_ws st
      done;
      expect st '}';
      Obj (List.rev !fields)
    end
  | Some c -> fail st (Printf.sprintf "unexpected character %C" c)

let of_string input =
  let st = { input; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length input then fail st "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Accessors for consumers of parsed documents.                        *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int_opt = function
  | Int n -> Some n
  | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let to_string_opt = function
  | String s -> Some s
  | _ -> None

let to_list_opt = function
  | List items -> Some items
  | _ -> None

type align =
  | Left
  | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - n) ' '
    | Right -> String.make (width - n) ' ' ^ s

let render ~header ?aligns rows =
  let cols = List.length header in
  let aligns =
    match aligns with
    | Some a -> a
    | None -> List.init cols (fun i -> if i = 0 then Left else Right)
  in
  let all = header :: rows in
  let widths =
    List.init cols (fun i ->
        List.fold_left
          (fun w row ->
            match List.nth_opt row i with
            | Some cell -> max w (String.length cell)
            | None -> w)
          0 all)
  in
  let line row =
    String.concat "  "
      (List.mapi
         (fun i cell ->
           pad (List.nth aligns i) (List.nth widths i) cell)
         row)
  in
  let sep =
    String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  String.concat "\n" (line header :: sep :: List.map line rows) ^ "\n"

let print ~header ?aligns rows =
  print_string (render ~header ?aligns rows)

let to_json ~header rows =
  let open Berkmin_types in
  Json.Obj
    [
      "header", Json.List (List.map (fun h -> Json.String h) header);
      ( "rows",
        Json.List
          (List.map
             (fun row -> Json.List (List.map (fun c -> Json.String c) row))
             rows) );
    ]

let seconds s = Printf.sprintf "%.2f" s

let penalized total aborted ~penalty =
  total +. (penalty *. float_of_int aborted)

let seconds_aborted total aborted ~penalty =
  if aborted = 0 then seconds total
  else Printf.sprintf "> %s (%d)" (seconds (penalized total aborted ~penalty)) aborted

let ratio r = Printf.sprintf "%.2f" r

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

type t = {
  mutable data : int array;
  mutable len : int;
}

let create ?(capacity = 16) () = { data = Array.make (max capacity 1) 0; len = 0 }

let of_list l =
  match l with
  | [] -> create ()
  | _ ->
    let data = Array.of_list l in
    { data; len = Array.length data }

let[@inline] length v = v.len
let is_empty v = v.len = 0

(* The message is built only on the failure path, so [get] and [set]
   keep an inline compare and no call on the way to the array. *)
let[@inline never] out_of_bounds op v i =
  invalid_arg (Printf.sprintf "Ivec.%s: index %d out of bounds [0,%d)" op i v.len)

let[@inline] get v i =
  if i < 0 || i >= v.len then out_of_bounds "get" v i;
  Array.unsafe_get v.data i

let[@inline] set v i x =
  if i < 0 || i >= v.len then out_of_bounds "set" v i;
  Array.unsafe_set v.data i x

let resize v cap =
  let data = Array.make cap 0 in
  Array.blit v.data 0 data 0 v.len;
  v.data <- data

let reserve v n = if n > Array.length v.data then resize v n

let push v x =
  if v.len = Array.length v.data then resize v (2 * v.len);
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then invalid_arg "Ivec.pop: empty";
  v.len <- v.len - 1;
  Array.unsafe_get v.data v.len

let last v =
  if v.len = 0 then invalid_arg "Ivec.last: empty";
  Array.unsafe_get v.data (v.len - 1)

let clear v = v.len <- 0

let shrink v n =
  if n < 0 || n > v.len then invalid_arg "Ivec.shrink";
  v.len <- n

let iter f v =
  for i = 0 to v.len - 1 do
    f (Array.unsafe_get v.data i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i (Array.unsafe_get v.data i)
  done

let filter_in_place p v =
  let j = ref 0 in
  for i = 0 to v.len - 1 do
    let x = Array.unsafe_get v.data i in
    if p x then begin
      Array.unsafe_set v.data !j x;
      incr j
    end
  done;
  v.len <- !j

let to_list v =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (Array.unsafe_get v.data i :: acc) in
  loop (v.len - 1) []

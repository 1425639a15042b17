type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ?(capacity = 16) ~dummy () =
  let capacity = max capacity 1 in
  { data = Array.make capacity dummy; len = 0; dummy }

let make n x ~dummy =
  let v = { data = Array.make (max n 1) x; len = n; dummy } in
  v

let length v = v.len
let is_empty v = v.len = 0

let check_bounds v i op =
  if i < 0 || i >= v.len then
    invalid_arg (Printf.sprintf "Vec.%s: index %d out of bounds [0,%d)" op i v.len)

let get v i =
  check_bounds v i "get";
  Array.unsafe_get v.data i

let set v i x =
  check_bounds v i "set";
  Array.unsafe_set v.data i x

let grow v =
  let cap = Array.length v.data in
  let data = Array.make (2 * cap) v.dummy in
  Array.blit v.data 0 data 0 v.len;
  v.data <- data

let push v x =
  if v.len = Array.length v.data then grow v;
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then invalid_arg "Vec.pop: empty";
  v.len <- v.len - 1;
  let x = Array.unsafe_get v.data v.len in
  Array.unsafe_set v.data v.len v.dummy;
  x

let last v =
  if v.len = 0 then invalid_arg "Vec.last: empty";
  Array.unsafe_get v.data (v.len - 1)

let clear v =
  Array.fill v.data 0 v.len v.dummy;
  v.len <- 0

let shrink v n =
  if n < 0 || n > v.len then invalid_arg "Vec.shrink";
  Array.fill v.data n (v.len - n) v.dummy;
  v.len <- n

let swap_remove v i =
  check_bounds v i "swap_remove";
  v.len <- v.len - 1;
  Array.unsafe_set v.data i (Array.unsafe_get v.data v.len);
  Array.unsafe_set v.data v.len v.dummy

let iter f v =
  for i = 0 to v.len - 1 do
    f (Array.unsafe_get v.data i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i (Array.unsafe_get v.data i)
  done

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc (Array.unsafe_get v.data i)
  done;
  !acc

let exists p v =
  let rec loop i = i < v.len && (p (Array.unsafe_get v.data i) || loop (i + 1)) in
  loop 0

let for_all p v = not (exists (fun x -> not (p x)) v)

let filter_in_place p v =
  let j = ref 0 in
  for i = 0 to v.len - 1 do
    let x = Array.unsafe_get v.data i in
    if p x then begin
      Array.unsafe_set v.data !j x;
      incr j
    end
  done;
  let new_len = !j in
  Array.fill v.data new_len (v.len - new_len) v.dummy;
  v.len <- new_len

let to_list v =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (Array.unsafe_get v.data i :: acc) in
  loop (v.len - 1) []

let to_array v = Array.sub v.data 0 v.len

let of_array a ~dummy =
  if Array.length a = 0 then create ~dummy ()
  else { data = Array.copy a; len = Array.length a; dummy }

let of_list l ~dummy = of_array (Array.of_list l) ~dummy

let copy v = { data = Array.copy v.data; len = v.len; dummy = v.dummy }

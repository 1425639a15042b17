type t = {
  mutable data : int array;
  mutable size : int;
  mutable wasted : int;
}

type cref = int

let cref_undef = -1
let header_words = 2
let lits_offset = header_words

(* Header word layout:
   size lsl 4 | imported(8) | relocated(4) | deleted(2) | learnt(1). *)
let learnt_bit = 1
let deleted_bit = 2
let relocated_bit = 4
let imported_bit = 8
let size_shift = 4

let create ?(capacity = 1024) () =
  { data = Array.make (max capacity 16) 0; size = 0; wasted = 0 }

let ensure a extra =
  let needed = a.size + extra in
  let cap = Array.length a.data in
  if needed > cap then begin
    let cap' = ref cap in
    while needed > !cap' do
      cap' := 2 * !cap'
    done;
    let data = Array.make !cap' 0 in
    Array.blit a.data 0 data 0 a.size;
    a.data <- data
  end

(* Bulk loading pre-sizes from the [p cnf V C] header so the load loop
   never reallocates; a single grow to the exact target beats the
   doubling ladder (each rung of which copies everything so far). *)
let ensure_capacity a ~words =
  if words > Array.length a.data then begin
    let data = Array.make words 0 in
    Array.blit a.data 0 data 0 a.size;
    a.data <- data
  end

let capacity_words a = Array.length a.data

let alloc_sub ?(imported = false) a ~learnt lits ~len =
  if len < 1 then invalid_arg "Arena.alloc: empty clause";
  ensure a (len + header_words);
  let c = a.size in
  a.data.(c) <-
    (len lsl size_shift)
    lor (if learnt then learnt_bit else 0)
    lor (if imported then imported_bit else 0);
  a.data.(c + 1) <- 0;
  Array.blit lits 0 a.data (c + lits_offset) len;
  a.size <- a.size + len + header_words;
  c

let alloc ?imported a ~learnt lits =
  alloc_sub ?imported a ~learnt lits ~len:(Array.length lits)

let clause_size a c = a.data.(c) lsr size_shift
let clause_words a c = clause_size a c + header_words
let[@inline] is_learnt a c = a.data.(c) land learnt_bit <> 0
let is_deleted a c = a.data.(c) land deleted_bit <> 0
let[@inline] is_imported a c = a.data.(c) land imported_bit <> 0
let relocated a c = a.data.(c) land relocated_bit <> 0

let activity a c = a.data.(c + 1)
let set_activity a c v = a.data.(c + 1) <- v
let[@inline] bump_activity a c = a.data.(c + 1) <- a.data.(c + 1) + 1

let[@inline] lit a c j = a.data.(c + lits_offset + j)
let set_lit a c j l = a.data.(c + lits_offset + j) <- l

let swap_lits a c i j =
  let base = c + lits_offset in
  let tmp = a.data.(base + i) in
  a.data.(base + i) <- a.data.(base + j);
  a.data.(base + j) <- tmp

let lits_array a c = Array.sub a.data (c + lits_offset) (clause_size a c)

let exists_lit a c p =
  let n = clause_size a c in
  let rec loop j = j < n && (p a.data.(c + lits_offset + j) || loop (j + 1)) in
  loop 0

let for_all_lits a c p = not (exists_lit a c (fun l -> not (p l)))

let iter_lits a c f =
  for j = 0 to clause_size a c - 1 do
    f a.data.(c + lits_offset + j)
  done

let free a c =
  if not (is_deleted a c) then begin
    a.data.(c) <- a.data.(c) lor deleted_bit;
    a.wasted <- a.wasted + clause_words a c
  end

let size_words a = a.size
let wasted_words a = a.wasted
let live_words a = a.size - a.wasted

let bytes_per_word = Sys.word_size / 8
let bytes a = a.size * bytes_per_word
let wasted_bytes a = a.wasted * bytes_per_word
let live_bytes a = (a.size - a.wasted) * bytes_per_word

let reloc a ~into c =
  if relocated a c then a.data.(c + 1)
  else begin
    assert (not (is_deleted a c));
    let n = clause_size a c in
    ensure into (n + header_words);
    let c' = into.size in
    (* Copy header (flags are clean: not deleted, not relocated),
       activity and literals verbatim. *)
    Array.blit a.data c into.data c' (n + header_words);
    into.size <- into.size + n + header_words;
    a.data.(c) <- a.data.(c) lor relocated_bit;
    a.data.(c + 1) <- c';
    c'
  end

let commit a ~into =
  a.data <- into.data;
  a.size <- into.size;
  a.wasted <- into.wasted

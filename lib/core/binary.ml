open Berkmin_types

type t = {
  mutable index : Ivec.t array;
      (* per literal: (implied_lit, cref) stride-2 pairs *)
  mutable entries : int;
}

(* Lists start at capacity 0, so a literal in no 2-clause costs its
   3-word record alone. *)
let create ~num_lits =
  {
    index = Array.init (max num_lits 1) (fun _ -> Ivec.create ~capacity:0 ());
    entries = 0;
  }

let grow t ~num_lits =
  let cap = Array.length t.index in
  if num_lits > cap then begin
    let new_cap = max num_lits (2 * cap) in
    let index =
      Array.init new_cap (fun i ->
          if i < cap then t.index.(i) else Ivec.create ~capacity:0 ())
    in
    t.index <- index
  end

let add t ~cref a b =
  let va = t.index.(Lit.negate a) in
  Ivec.push va b;
  Ivec.push va cref;
  let vb = t.index.(Lit.negate b) in
  Ivec.push vb a;
  Ivec.push vb cref;
  t.entries <- t.entries + 2

let clear t =
  Array.iter Ivec.clear t.index;
  t.entries <- 0

let[@inline] implications t p = t.index.(p)

let num_entries t = t.entries

let iter_entries t f =
  Array.iteri
    (fun src v ->
      let n = Ivec.length v in
      let i = ref 0 in
      while !i < n do
        f src (Ivec.get v !i) (Ivec.get v (!i + 1));
        i := !i + 2
      done)
    t.index

let filter_reloc t ~dead ~reloc =
  Array.iter
    (fun v ->
      let n = Ivec.length v in
      let i = ref 0 in
      let j = ref 0 in
      while !i < n do
        let u = Ivec.get v !i in
        let c = Ivec.get v (!i + 1) in
        if not (dead c) then begin
          Ivec.set v !j u;
          Ivec.set v (!j + 1) (reloc c);
          j := !j + 2
        end
        else t.entries <- t.entries - 1;
        i := !i + 2
      done;
      Ivec.shrink v !j)
    t.index

(* Unit and property tests for the base types library: Lit, Value, Vec,
   Ivec, Rng, Clause, Cnf. *)

open Berkmin_types

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Lit                                                                 *)

let test_lit_encoding () =
  check Alcotest.int "pos 0" 0 (Lit.pos 0);
  check Alcotest.int "neg 0" 1 (Lit.neg_of 0);
  check Alcotest.int "pos 5" 10 (Lit.pos 5);
  check Alcotest.int "neg 5" 11 (Lit.neg_of 5);
  check Alcotest.int "var of pos" 5 (Lit.var (Lit.pos 5));
  check Alcotest.int "var of neg" 5 (Lit.var (Lit.neg_of 5));
  check Alcotest.bool "is_pos pos" true (Lit.is_pos (Lit.pos 3));
  check Alcotest.bool "is_pos neg" false (Lit.is_pos (Lit.neg_of 3))

let test_lit_negate () =
  check Alcotest.int "negate pos" (Lit.neg_of 7) (Lit.negate (Lit.pos 7));
  check Alcotest.int "negate neg" (Lit.pos 7) (Lit.negate (Lit.neg_of 7));
  check Alcotest.int "double negate" (Lit.pos 7)
    (Lit.negate (Lit.negate (Lit.pos 7)))

let test_lit_dimacs () =
  check Alcotest.int "of_dimacs 1" (Lit.pos 0) (Lit.of_dimacs 1);
  check Alcotest.int "of_dimacs -1" (Lit.neg_of 0) (Lit.of_dimacs (-1));
  check Alcotest.int "of_dimacs 42" (Lit.pos 41) (Lit.of_dimacs 42);
  check Alcotest.int "to_dimacs" (-13) (Lit.to_dimacs (Lit.neg_of 12));
  check Alcotest.string "to_string" "-3" (Lit.to_string (Lit.neg_of 2));
  Alcotest.check_raises "of_dimacs 0" (Invalid_argument "Lit.of_dimacs: zero")
    (fun () -> ignore (Lit.of_dimacs 0))

let test_lit_make () =
  check Alcotest.int "make true" (Lit.pos 4) (Lit.make 4 true);
  check Alcotest.int "make false" (Lit.neg_of 4) (Lit.make 4 false);
  Alcotest.check_raises "make negative"
    (Invalid_argument "Lit.make: negative variable") (fun () ->
      ignore (Lit.make (-1) true))

let prop_lit_dimacs_roundtrip =
  QCheck.Test.make ~name:"lit: dimacs roundtrip" ~count:500
    QCheck.(map (fun (v, s) -> (abs v mod 10000, s)) (pair int bool))
    (fun (v, s) ->
      let l = Lit.make v s in
      Lit.of_dimacs (Lit.to_dimacs l) = l)

(* ------------------------------------------------------------------ *)
(* Value                                                               *)

let test_value () =
  check Alcotest.bool "negate involutive" true
    (List.for_all
       (fun v -> Value.equal v (Value.negate (Value.negate v)))
       [ Value.True; Value.False; Value.Unassigned ]);
  check Alcotest.bool "of_bool true" true (Value.equal Value.True (Value.of_bool true));
  check
    (Alcotest.option Alcotest.bool)
    "to_bool unassigned" None
    (Value.to_bool Value.Unassigned);
  check Alcotest.bool "is_assigned" false (Value.is_assigned Value.Unassigned);
  check Alcotest.bool "is_assigned t" true (Value.is_assigned Value.True)

(* ------------------------------------------------------------------ *)
(* Vec and Ivec                                                        *)

(* The int-vector contract both [Vec] (at type [int]) and [Ivec] keep,
   bounds messages included: the shared cases below run over each. *)
module type INT_VEC = sig
  type t

  val name : string
  val create : unit -> t
  val of_list : int list -> t
  val length : t -> int
  val is_empty : t -> bool
  val get : t -> int -> int
  val set : t -> int -> int -> unit
  val push : t -> int -> unit
  val pop : t -> int
  val last : t -> int
  val clear : t -> unit
  val shrink : t -> int -> unit
  val filter_in_place : (int -> bool) -> t -> unit
  val to_list : t -> int list
end

module Poly_vec : INT_VEC = struct
  include Vec

  type nonrec t = int t

  let name = "Vec"
  let create () = Vec.create ~dummy:(-1) ()
  let of_list l = Vec.of_list l ~dummy:0
end

module Int_vec : INT_VEC = struct
  include Ivec

  let name = "Ivec"
  let create () = Ivec.create ()
end

module Vec_cases (V : INT_VEC) = struct
  let test_push_pop () =
    let v = V.create () in
    check Alcotest.bool "empty" true (V.is_empty v);
    for i = 0 to 99 do
      V.push v i
    done;
    check Alcotest.int "length" 100 (V.length v);
    check Alcotest.int "get 42" 42 (V.get v 42);
    check Alcotest.int "last" 99 (V.last v);
    check Alcotest.int "pop" 99 (V.pop v);
    check Alcotest.int "length after pop" 99 (V.length v)

  let test_bounds () =
    let v = V.of_list [ 1; 2; 3 ] in
    Alcotest.check_raises "get oob"
      (Invalid_argument (V.name ^ ".get: index 3 out of bounds [0,3)"))
      (fun () -> ignore (V.get v 3));
    Alcotest.check_raises "set oob"
      (Invalid_argument (V.name ^ ".set: index -1 out of bounds [0,3)"))
      (fun () -> V.set v (-1) 9)

  let test_shrink_clear () =
    let v = V.of_list [ 1; 2; 3; 4; 5 ] in
    V.shrink v 2;
    check (Alcotest.list Alcotest.int) "shrink" [ 1; 2 ] (V.to_list v);
    V.clear v;
    check Alcotest.int "clear" 0 (V.length v);
    V.push v 7;
    check (Alcotest.list Alcotest.int) "push after clear" [ 7 ] (V.to_list v)

  let test_filter_in_place () =
    let v = V.of_list [ 1; 2; 3; 4; 5; 6 ] in
    V.filter_in_place (fun x -> x mod 2 = 0) v;
    check (Alcotest.list Alcotest.int) "filter keeps order" [ 2; 4; 6 ]
      (V.to_list v)

  let prop_model =
    (* Push/pop behaves like a list model under a random op script. *)
    QCheck.Test.make
      ~name:(String.lowercase_ascii V.name ^ ": list model")
      ~count:300
      QCheck.(list (pair bool small_int))
      (fun ops ->
        let v = V.create () in
        let model = ref [] in
        List.iter
          (fun (is_push, x) ->
            if is_push then begin
              V.push v x;
              model := x :: !model
            end
            else if not (V.is_empty v) then begin
              let got = V.pop v in
              match !model with
              | top :: rest ->
                if got <> top then QCheck.Test.fail_report "pop mismatch";
                model := rest
              | [] -> QCheck.Test.fail_report "model empty"
            end)
          ops;
        V.to_list v = List.rev !model)
end

module Vec_tests = Vec_cases (Poly_vec)
module Ivec_tests = Vec_cases (Int_vec)

(* The functor above calls [Ivec] through a module parameter, so those
   calls never inline.  These direct calls run the copy of the bounds
   check that [get] and [set] compile into their callers. *)
let test_ivec_inlined_bounds () =
  let v = Ivec.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "get oob"
    (Invalid_argument "Ivec.get: index 3 out of bounds [0,3)")
    (fun () -> ignore (Ivec.get v 3));
  Alcotest.check_raises "set oob"
    (Invalid_argument "Ivec.set: index -1 out of bounds [0,3)")
    (fun () -> Ivec.set v (-1) 9)

(* The solver's per-literal lists start at capacity 0: no backing array
   until the first push, which makes room for 4; later pushes double. *)
let test_ivec_capacity_zero () =
  let v = Ivec.create ~capacity:0 () in
  let capacity () = Array.length v.Ivec.data in
  check Alcotest.int "no array" 0 (capacity ());
  check Alcotest.bool "empty" true (Ivec.is_empty v);
  Ivec.push v 10;
  check Alcotest.int "first push makes room for 4" 4 (capacity ());
  for i = 1 to 4 do
    Ivec.push v (10 + i)
  done;
  check Alcotest.int "fifth push doubles" 8 (capacity ());
  check (Alcotest.list Alcotest.int) "contents" [ 10; 11; 12; 13; 14 ]
    (Ivec.to_list v);
  let w = Ivec.create ~capacity:0 () in
  Ivec.reserve w 5;
  check Alcotest.int "reserve sizes exactly" 5 (Array.length w.Ivec.data);
  check Alcotest.int "reserve keeps the length" 0 (Ivec.length w);
  for i = 0 to 4 do
    Ivec.push w (i * i)
  done;
  check Alcotest.int "no growth within the reserve" 5
    (Array.length w.Ivec.data);
  check Alcotest.int "get" 16 (Ivec.get w 4);
  Alcotest.check_raises "get past the length"
    (Invalid_argument "Ivec.get: index 5 out of bounds [0,5)")
    (fun () -> ignore (Ivec.get w 5))

let test_vec_swap_remove () =
  let v = Vec.of_list [ 10; 20; 30; 40 ] ~dummy:0 in
  Vec.swap_remove v 1;
  check (Alcotest.list Alcotest.int) "swap_remove middle" [ 10; 40; 30 ]
    (Vec.to_list v);
  Vec.swap_remove v 2;
  check (Alcotest.list Alcotest.int) "swap_remove last" [ 10; 40 ]
    (Vec.to_list v)

let test_vec_iterators () =
  let v = Vec.of_list [ 1; 2; 3 ] ~dummy:0 in
  check Alcotest.int "fold sum" 6 (Vec.fold ( + ) 0 v);
  check Alcotest.bool "exists" true (Vec.exists (fun x -> x = 2) v);
  check Alcotest.bool "for_all" false (Vec.for_all (fun x -> x > 1) v);
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  check Alcotest.int "iteri count" 3 (List.length !acc)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  check (Alcotest.list Alcotest.int) "same seed, same stream" xs ys

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 20 (fun _ -> Rng.int a 1000000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000000) in
  check Alcotest.bool "different seeds diverge" true (xs <> ys)

let test_rng_zero_seed () =
  let r = Rng.create 0 in
  (* Must not get stuck at zero. *)
  let all_zero = List.for_all (fun x -> x = 0) (List.init 10 (fun _ -> Rng.int r 100)) in
  check Alcotest.bool "zero seed works" false all_zero

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    if x < 0 || x >= 10 then Alcotest.fail "Rng.int out of bounds"
  done;
  for _ = 1 to 100 do
    let f = Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "Rng.float out of bounds"
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_shuffle_permutes () =
  let r = Rng.create 9 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "shuffle is a permutation"
    (Array.init 50 (fun i -> i))
    sorted

let test_rng_copy () =
  let a = Rng.create 5 in
  ignore (Rng.int a 10);
  let b = Rng.copy a in
  check Alcotest.int "copy continues identically" (Rng.int a 1000) (Rng.int b 1000)

(* ------------------------------------------------------------------ *)
(* Clause                                                              *)

let cl lits = Clause.of_list (List.map Lit.of_dimacs lits)

let test_clause_normalisation () =
  check Alcotest.int "dedup" 2 (Clause.length (cl [ 1; 1; 2; 2; 2 ]));
  check Alcotest.bool "sorted" true
    (Clause.to_list (cl [ 3; -1; 2 ])
    = List.sort compare (List.map Lit.of_dimacs [ 3; -1; 2 ]));
  check Alcotest.bool "empty" true (Clause.is_empty (cl []))

let test_clause_tautology () =
  check Alcotest.bool "x or -x" true (Clause.is_tautology (cl [ 1; -1 ]));
  check Alcotest.bool "with extras" true (Clause.is_tautology (cl [ 2; 1; -1; 3 ]));
  check Alcotest.bool "no taut" false (Clause.is_tautology (cl [ 1; 2; -3 ]))

let test_clause_resolve () =
  (* (c ∨ d) and (c ∨ ¬d ∨ x) resolve on d to (c ∨ x) — the paper's
     Section 2 example. *)
  let c = Lit.var (Lit.of_dimacs 1) in
  ignore c;
  let r = Clause.resolve (cl [ 1; 2 ]) (cl [ 1; -2; 3 ]) (Lit.var (Lit.of_dimacs 2)) in
  (match r with
  | Some res ->
    check Alcotest.bool "resolvent" true (Clause.equal res (cl [ 1; 3 ]))
  | None -> Alcotest.fail "expected clash");
  check Alcotest.bool "no clash" true
    (Clause.resolve (cl [ 1; 2 ]) (cl [ 1; 3 ]) (Lit.var (Lit.of_dimacs 2)) = None);
  (* Both phases in both clauses: not a proper clash. *)
  check Alcotest.bool "double clash rejected" true
    (Clause.resolve (cl [ 2; -2; 1 ]) (cl [ 2; -2; 3 ]) (Lit.var (Lit.of_dimacs 2)) = None)

let test_clause_subsumes () =
  check Alcotest.bool "subset" true (Clause.subsumes (cl [ 1; 3 ]) (cl [ 1; 2; 3 ]));
  check Alcotest.bool "equal" true (Clause.subsumes (cl [ 1; 2 ]) (cl [ 1; 2 ]));
  check Alcotest.bool "not subset" false (Clause.subsumes (cl [ 1; 4 ]) (cl [ 1; 2; 3 ]));
  check Alcotest.bool "empty subsumes" true (Clause.subsumes (cl []) (cl [ 5 ]))

let test_clause_eval () =
  let valuation = function
    | 0 -> Value.True
    | 1 -> Value.False
    | _ -> Value.Unassigned
  in
  check Alcotest.bool "sat by pos" true
    (Value.equal Value.True (Clause.eval valuation (cl [ 1; 2 ])));
  check Alcotest.bool "sat by neg" true
    (Value.equal Value.True (Clause.eval valuation (cl [ -2; 3 ])));
  check Alcotest.bool "false" true
    (Value.equal Value.False (Clause.eval valuation (cl [ -1; 2 ])));
  check Alcotest.bool "unassigned" true
    (Value.equal Value.Unassigned (Clause.eval valuation (cl [ -1; 3 ])))

let test_clause_max_var () =
  check Alcotest.int "max var" 41 (Clause.max_var (cl [ 1; -42; 7 ]));
  check Alcotest.int "empty max var" (-1) (Clause.max_var (cl []))

let prop_resolvent_implied =
  (* Any model of both parents satisfies the resolvent. *)
  QCheck.Test.make ~name:"clause: resolvent is implied" ~count:300
    QCheck.(
      triple
        (list_of_size Gen.(1 -- 5) (int_range 1 6))
        (list_of_size Gen.(1 -- 5) (int_range 1 6))
        (array_of_size (Gen.return 6) bool))
    (fun (raw1, raw2, model) ->
      let rng = Rng.create (Hashtbl.hash (raw1, raw2)) in
      let sign v = if Rng.bool rng then v else -v in
      let c1 = cl (List.map sign raw1 @ [ 2 ]) in
      let c2 = cl (List.map sign raw2 @ [ -2 ]) in
      match Clause.resolve c1 c2 1 with
      | None -> true
      | Some res ->
        let valuation v = Value.of_bool model.(v) in
        let sat c = Value.equal Value.True (Clause.eval valuation c) in
        (not (sat c1 && sat c2)) || sat res || Clause.is_tautology res)

(* ------------------------------------------------------------------ *)
(* Cnf                                                                 *)

let test_cnf_builder () =
  let cnf = Cnf.create () in
  let a = Cnf.fresh_var cnf in
  let b = Cnf.fresh_var cnf in
  check Alcotest.int "fresh vars" 2 (Cnf.num_vars cnf);
  Cnf.add_clause cnf [ Lit.pos a; Lit.neg_of b ];
  check Alcotest.int "clauses" 1 (Cnf.num_clauses cnf);
  Cnf.add_clause cnf [ Lit.pos 10 ];
  check Alcotest.int "grows vars" 11 (Cnf.num_vars cnf);
  check Alcotest.int "literal count" 3 (Cnf.num_literals cnf)

let test_cnf_eval () =
  let cnf = Cnf.create ~num_vars:2 () in
  Cnf.add_clause cnf [ Lit.pos 0; Lit.pos 1 ];
  Cnf.add_clause cnf [ Lit.neg_of 0 ];
  check Alcotest.bool "sat" true (Cnf.satisfied_by cnf [| false; true |]);
  check Alcotest.bool "unsat assignment" false
    (Cnf.satisfied_by cnf [| true; true |]);
  Alcotest.check_raises "short assignment"
    (Invalid_argument "Cnf.eval: assignment too short") (fun () ->
      ignore (Cnf.eval cnf [| true |]))

let test_cnf_copy_append () =
  let a = Cnf.create ~num_vars:2 () in
  Cnf.add_clause a [ Lit.pos 0 ];
  let b = Cnf.copy a in
  Cnf.add_clause b [ Lit.pos 1 ];
  check Alcotest.int "copy isolated" 1 (Cnf.num_clauses a);
  Cnf.append a b;
  check Alcotest.int "append" 3 (Cnf.num_clauses a)

let test_cnf_empty_clause () =
  let cnf = Cnf.create () in
  check Alcotest.bool "no empty" false (Cnf.has_empty_clause cnf);
  Cnf.add_clause cnf [];
  check Alcotest.bool "has empty" true (Cnf.has_empty_clause cnf)

let () =
  Alcotest.run "types"
    [
      ( "lit",
        [
          Alcotest.test_case "encoding" `Quick test_lit_encoding;
          Alcotest.test_case "negate" `Quick test_lit_negate;
          Alcotest.test_case "dimacs" `Quick test_lit_dimacs;
          Alcotest.test_case "make" `Quick test_lit_make;
          qtest prop_lit_dimacs_roundtrip;
        ] );
      ("value", [ Alcotest.test_case "basics" `Quick test_value ]);
      ( "vec",
        [
          Alcotest.test_case "push/pop" `Quick Vec_tests.test_push_pop;
          Alcotest.test_case "bounds" `Quick Vec_tests.test_bounds;
          Alcotest.test_case "shrink/clear" `Quick Vec_tests.test_shrink_clear;
          Alcotest.test_case "swap_remove" `Quick test_vec_swap_remove;
          Alcotest.test_case "filter_in_place" `Quick
            Vec_tests.test_filter_in_place;
          Alcotest.test_case "iterators" `Quick test_vec_iterators;
          qtest Vec_tests.prop_model;
        ] );
      ( "ivec",
        [
          Alcotest.test_case "push/pop" `Quick Ivec_tests.test_push_pop;
          Alcotest.test_case "bounds" `Quick Ivec_tests.test_bounds;
          Alcotest.test_case "bounds, inlined" `Quick test_ivec_inlined_bounds;
          Alcotest.test_case "capacity 0" `Quick test_ivec_capacity_zero;
          Alcotest.test_case "shrink/clear" `Quick Ivec_tests.test_shrink_clear;
          Alcotest.test_case "filter_in_place" `Quick
            Ivec_tests.test_filter_in_place;
          qtest Ivec_tests.prop_model;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "zero seed" `Quick test_rng_zero_seed;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "copy" `Quick test_rng_copy;
        ] );
      ( "clause",
        [
          Alcotest.test_case "normalisation" `Quick test_clause_normalisation;
          Alcotest.test_case "tautology" `Quick test_clause_tautology;
          Alcotest.test_case "resolve" `Quick test_clause_resolve;
          Alcotest.test_case "subsumes" `Quick test_clause_subsumes;
          Alcotest.test_case "eval" `Quick test_clause_eval;
          Alcotest.test_case "max_var" `Quick test_clause_max_var;
          qtest prop_resolvent_implied;
        ] );
      ( "cnf",
        [
          Alcotest.test_case "builder" `Quick test_cnf_builder;
          Alcotest.test_case "eval" `Quick test_cnf_eval;
          Alcotest.test_case "copy/append" `Quick test_cnf_copy_append;
          Alcotest.test_case "empty clause" `Quick test_cnf_empty_clause;
        ] );
    ]

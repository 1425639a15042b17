(* Large BMC instances: bounded-model-checking unrollings of a
   sequential circuit, the industrial shape the paper targets, sized
   to stress the arena, the watch lists and the streaming load path
   rather than the search heuristics alone.  The repo benchmark's
   large_formula and incremental workloads (perfbench/) draw their
   formulas from here; generation is deterministic in the seed. *)

module C = Berkmin_circuit.Circuit
module B = Berkmin_circuit.Bitvec
module Cseq = Berkmin_circuit.Seq
module Bmc = Berkmin_circuit.Bmc

(* A digital lock generalizing examples/bmc_lock.ml: a state register
   counts how many correct digits of an [n]-digit combination have
   been entered in a row (wrong digit resets, open state absorbs).
   The OPEN state needs exactly [n] steps to reach, which pins the
   BMC verdict on either side of the bound. *)
let lock_circuit ~combination =
  let n = List.length combination in
  let width =
    let rec go w = if 1 lsl w > n then w else go (w + 1) in
    go 1
  in
  let c = C.create () in
  let s = Cseq.create c in
  let digit = B.inputs c "digit" 3 in
  let regs =
    List.init width (fun i ->
        Cseq.add_register s ~name:(Printf.sprintf "st%d" i) ~init:false)
  in
  let state =
    Array.of_list (List.map (fun r -> r.Cseq.state_input) regs)
  in
  let state_is k = B.equal_bv c state (B.const_int c ~width k) in
  let digit_is k = B.equal_bv c digit (B.const_int c ~width:3 k) in
  let next_val =
    let zero = B.const_int c ~width 0 in
    let step acc (idx, expected) =
      let advance = C.and_ c (state_is idx) (digit_is expected) in
      B.mux_bv c ~sel:advance
        ~if_true:(B.const_int c ~width (idx + 1))
        ~if_false:acc
    in
    let base =
      B.mux_bv c ~sel:(state_is n)
        ~if_true:(B.const_int c ~width n)
        ~if_false:zero
    in
    List.fold_left step base (List.mapi (fun i d -> (i, d)) combination)
  in
  List.iteri (fun i r -> Cseq.connect s r ~next:next_val.(i)) regs;
  C.set_output c "open" (state_is n);
  s

let bmc_lock_instance ~combo_len ~reachable ~seed =
  if combo_len < 2 then invalid_arg "Bigbench.bmc_lock_instance: combo_len < 2";
  let rng = Random.State.make [| 0xb16b; seed; combo_len |] in
  let combination = List.init combo_len (fun _ -> Random.State.int rng 8) in
  let s = lock_circuit ~combination in
  (* Opening takes exactly [combo_len] steps, so a bound one past it is
     SAT and one short of it is UNSAT — with a frame to spare on each
     side against any inclusive/exclusive bound convention. *)
  let bound = if reachable then combo_len + 1 else combo_len - 1 in
  let cnf = Bmc.encode s ~bad:"open" ~bound in
  Instance.make
    (Printf.sprintf "bmc_lock_L%d_%s" combo_len
       (if reachable then "sat" else "unsat"))
    (if reachable then Instance.Expect_sat else Instance.Expect_unsat)
    cnf

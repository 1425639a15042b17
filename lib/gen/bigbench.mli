(** Large BMC instances: bounded-model-checking unrollings of a
    parameterized sequential lock circuit (via {!Berkmin_circuit.Bmc}),
    sized to stress the arena, watch lists and the streaming load path
    rather than the search heuristics alone.  The repo benchmark's
    large_formula and incremental workloads (perfbench/) draw their
    formulas from here.  Generation is deterministic in the seed. *)

val bmc_lock_instance :
  combo_len:int -> reachable:bool -> seed:int -> Instance.t
(** BMC unrolling of a digital lock whose [combo_len]-digit
    combination is drawn from [seed].  The OPEN state is reachable in
    exactly [combo_len] steps, so [reachable:true] unrolls one frame
    past it (SAT) and [reachable:false] one frame short (UNSAT).
    @raise Invalid_argument if [combo_len < 2]. *)

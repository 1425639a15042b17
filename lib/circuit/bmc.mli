(** SAT-based bounded model checking over {!Seq} circuits.

    Checks a safety property "the [bad] output is never 1" up to a
    bound: the circuit is time-expanded, the disjunction of the bad
    signal across all frames is asserted, and the SAT solver either
    refutes it (safe up to the bound) or yields a counterexample trace.
    This is the Biere-et-al. reduction the paper's introduction cites
    as a driving SAT application. *)

open Berkmin_types

type trace = {
  depth : int;  (** frame at which [bad] fires, 0-based *)
  frames : bool array list;
      (** free-input vector per frame, creation order, frames 0..depth *)
}

type result =
  | Safe of int  (** no counterexample within the given bound *)
  | Counterexample of trace
  | Inconclusive  (** solver budget exhausted *)

val encode : Seq.t -> bad:string -> bound:int -> Cnf.t
(** The raw CNF: satisfiable iff [bad] is reachable within [bound]
    frames.  @raise Not_found if no output is named [bad]. *)

val check :
  ?config:Berkmin.Config.t ->
  ?budget:Berkmin.Solver.budget ->
  Seq.t ->
  bad:string ->
  bound:int ->
  result
(** Runs the solver on {!encode}'s formula and decodes any model into
    a trace.  The returned trace is replayable with {!Seq.simulate}
    (the tests do exactly that). *)

val check_incremental :
  ?config:Berkmin.Config.t ->
  ?budget:Berkmin.Solver.budget ->
  Seq.t ->
  bad:string ->
  max_bound:int ->
  result
(** Deepening strategy using one solver and assumption literals: the
    bound-[k] query assumes "bad fires at frame k" on a single
    unrolling of depth [max_bound], reusing learnt clauses across
    depths — the standard incremental-BMC trick, one
    {!Berkmin.Solver.solve} [~assumps] call per depth.  [budget]
    applies to each depth's call on its own. *)

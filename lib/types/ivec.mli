(** Growable vector of unboxed [int]s.

    The solver's watch lists, binary implication index, trail and
    clause stacks, and the simplifier's occurrence lists, all hold
    literals, crefs or counters.  {!Vec} is polymorphic, so each of its
    stores goes through the write barrier ([caml_modify]); this vector
    is an [int array] underneath, so a store is a plain move and the
    bounds check of {!get} and {!set} is an inline compare.  The
    operations it shares with {!Vec} keep {!Vec}'s contract, bounds
    errors included.

    [t] is [private] rather than abstract for the compiler's sake, not
    for callers: knowing that a vector is a record lets it read an
    [Ivec.t array] (the solver's watch lists, the binary implication
    index) as an array of pointers, without the run-time float-array
    tag test an abstract element type needs.  Only this module reads
    or writes the fields; everyone else goes through the functions
    below, whose [get], [set] and [length] inline into their callers,
    bounds check included. *)

type t = private {
  mutable data : int array;
  mutable len : int;
}

val create : ?capacity:int -> unit -> t
(** Fresh empty vector. *)

val of_list : int list -> t

val length : t -> int

val is_empty : t -> bool

val get : t -> int -> int
(** @raise Invalid_argument when out of bounds. *)

val set : t -> int -> int -> unit
(** @raise Invalid_argument when out of bounds. *)

val reserve : t -> int -> unit
(** [reserve v n] grows the backing array to hold at least [n] elements
    without changing the length, so the next [n - length v] pushes
    never reallocate.  A no-op when capacity already suffices; bulk
    loaders use it to size watch lists exactly. *)

val push : t -> int -> unit

val pop : t -> int
(** Removes and returns the last element.
    @raise Invalid_argument on an empty vector. *)

val last : t -> int
(** @raise Invalid_argument on an empty vector. *)

val clear : t -> unit
(** Logical clear; capacity is retained. *)

val shrink : t -> int -> unit
(** [shrink v n] truncates [v] to its first [n] elements.
    @raise Invalid_argument if [n] exceeds the current length. *)

val iter : (int -> unit) -> t -> unit

val iteri : (int -> int -> unit) -> t -> unit

val filter_in_place : (int -> bool) -> t -> unit
(** Keeps only elements satisfying the predicate, preserving order. *)

val to_list : t -> int list

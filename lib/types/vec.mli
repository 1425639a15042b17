(** Growable array of boxed values.

    OCaml 5.1 predates [Dynarray]; CNF clause lists, circuit nodes,
    proof events and the simplifier's clause records need amortised
    O(1) push and random access, so we provide a small polymorphic
    vector.  A dummy element is supplied at creation to fill unused
    capacity (this avoids [Obj.magic]).  Vectors of [int]s — literals,
    crefs, counters — use {!Ivec}, whose stores skip the write
    barrier. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** Fresh empty vector.  [dummy] fills unused slots and is returned by
    no public operation. *)

val make : int -> 'a -> dummy:'a -> 'a t
(** [make n x ~dummy] is a vector of [n] copies of [x]. *)

val of_list : 'a list -> dummy:'a -> 'a t

val of_array : 'a array -> dummy:'a -> 'a t
(** Copies the array. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** @raise Invalid_argument when out of bounds. *)

val set : 'a t -> int -> 'a -> unit
(** @raise Invalid_argument when out of bounds. *)

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** Removes and returns the last element.
    @raise Invalid_argument on an empty vector. *)

val last : 'a t -> 'a
(** @raise Invalid_argument on an empty vector. *)

val clear : 'a t -> unit
(** Logical clear; capacity is retained but slots are reset to the dummy
    so stale elements are not kept live. *)

val shrink : 'a t -> int -> unit
(** [shrink v n] truncates [v] to its first [n] elements.
    @raise Invalid_argument if [n] exceeds the current length. *)

val swap_remove : 'a t -> int -> unit
(** Removes index [i] by moving the last element into its slot: O(1),
    order not preserved. *)

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val exists : ('a -> bool) -> 'a t -> bool

val for_all : ('a -> bool) -> 'a t -> bool

val filter_in_place : ('a -> bool) -> 'a t -> unit
(** Keeps only elements satisfying the predicate, preserving order. *)

val to_list : 'a t -> 'a list

val to_array : 'a t -> 'a array

val copy : 'a t -> 'a t

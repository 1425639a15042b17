(** Dedicated binary-clause implication layer.

    Two-literal clauses never earn their keep in the generic
    two-watched-literal machinery: a binary clause [(a v b)] has no
    third literal to migrate a watch to, so every BCP visit either
    finds it satisfied or immediately implies/falsifies the other
    literal.  Routing them through the watch lists still costs a
    watcher pair, a blocker check and — on a miss — an arena header
    read per visit.

    This module stores the same information as per-literal packed
    implication arrays instead: for every clause [(a v b)] the index
    records, under literal [~a], the pair [(b, cref)] — "when [~a]
    becomes true (i.e. [a] becomes false), [b] is implied with reason
    [cref]" — and symmetrically under [~b].  Draining the implications
    of a newly assigned literal then reads one flat [int] vector:
    no watch-list compaction, no arena reads, no allocation.

    The clauses themselves still live in the {!Arena} (conflict
    analysis and proof logging need their literals, and reasons are
    crefs), but BCP never touches it for binary propagation: the
    implied literal is stored in the index next to the cref.

    The index also doubles as the static neighbourhood structure of
    the paper's [nb_two] polarity heuristic (Section 7): the entries
    under [~l] are exactly the stored 2-clauses containing [l]. *)

open Berkmin_types

type t

val create : num_lits:int -> t
(** An empty index over literals [0 .. num_lits - 1]. *)

val grow : t -> num_lits:int -> unit
(** Widens the per-literal index to cover [0 .. num_lits - 1] (no-op
    when already large enough).  Existing entries are untouched — the
    incremental [new_var] hook. *)

val add : t -> cref:int -> Lit.t -> Lit.t -> unit
(** [add t ~cref a b] registers the stored clause [(a v b)] (cref is
    its arena address): [(b, cref)] under [negate a] and [(a, cref)]
    under [negate b]. *)

val clear : t -> unit
(** Drop every entry (capacity retained).  Used by the simplifier's
    database rebuild, which re-adds every surviving 2-clause. *)

val implications : t -> Lit.t -> Ivec.t
(** [implications t p] is the packed implication vector consulted when
    [p] becomes true: stride-2 [(implied_lit, cref)] pairs, one per
    stored binary clause containing [negate p].  Exposed as the raw
    vector so the BCP hot loop can iterate it without allocation;
    callers must not mutate it. *)

val num_entries : t -> int
(** Live [(implied_lit, cref)] pairs in the index — two per registered
    clause. *)

val iter_entries : t -> (Lit.t -> Lit.t -> int -> unit) -> unit
(** [iter_entries t f] calls [f source implied cref] for every pair:
    the clause [(negate source v implied)] at [cref].  For audits and
    tests. *)

val filter_reloc : t -> dead:(int -> bool) -> reloc:(int -> int) -> unit
(** GC hook: drops every pair whose cref satisfies [dead] and rewrites
    the survivors' crefs through [reloc], in place.  Mirrors the watch
    lists' pass in the arena-compaction protocol. *)

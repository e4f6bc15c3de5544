(** Best-Fit-Decreasing partitioning of weighted items into a fixed number
    of bins, minimizing the maximum bin load. This is the workhorse of the
    [Design_wrapper] heuristic (Iyengar et al., JETTA 2002): items are
    internal scan chains (weights = chain lengths) and bins are wrapper
    scan chains. *)

type assignment = {
  bins : int list array;  (** item indices per bin *)
  loads : int array;  (** total weight per bin *)
}

val pack : weights:int array -> bins:int -> assignment
(** [pack ~weights ~bins] sorts items by decreasing weight and places each
    in the currently least-loaded bin.
    @raise Invalid_argument if [bins < 1] or any weight is negative. *)

val pack_loads : sorted:int array -> loads:int array -> bins:int -> unit
(** The loads {!pack} reaches, without the assignment: [sorted] holds the
    weights in decreasing order, and [loads.(0 .. bins-1)] is overwritten
    with the per-bin totals. Reuses the caller's buffer and does not
    count toward [wrapper.bfd_packs]; see {!note_packs}. *)

val note_packs : int -> unit
(** Adds [n] packs to the [wrapper.bfd_packs] counter, for callers of
    {!pack_loads}. *)

val max_load : assignment -> int
val min_load : assignment -> int

val spread_units : loads:int array -> units:int -> int array
(** [spread_units ~loads ~units] greedily adds [units] unit-weight items
    (functional terminals) one at a time to the currently least-loaded bin
    and returns the number of units given to each bin. Used to attach
    functional inputs/outputs to wrapper chains. *)

val water_level : loads:int array -> bins:int -> units:int -> int * int
(** [(level, spare)] of {!spread_units} over [loads.(0 .. bins-1)]: the
    greedy spread raises every bin below [level] to [level] and gives one
    more unit to the first [spare] bins at or below it ([spare] is
    smaller than their count). So the highest bin afterwards is
    [max (max load) (level + (if spare > 0 then 1 else 0))].
    Requires [bins >= 1] and [units >= 0]. *)

val exact_max_load : weights:int array -> bins:int -> int
(** Optimal (minimum possible) maximum bin load, by branch-and-bound —
    a reference for testing the BFD heuristic's quality. Exponential:
    intended for small item counts (tests use <= 14 items).
    @raise Invalid_argument if [bins < 1], a weight is negative, or
    there are more than 20 items. *)

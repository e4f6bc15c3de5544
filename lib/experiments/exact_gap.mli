(** Heuristic-vs-exact study (the paper's Sec. 2 motivation: the exact
    wrapper/TAM co-optimization of ref. [12] is "intrinsically
    intractable", its compute time exponential — while the heuristic runs
    in milliseconds and stays close to optimal).

    We scale the number of cores on d695 prefixes: branch-and-bound node
    counts explode, the heuristic's optimality gap stays small. *)

type row = {
  cores : int;
  tam_width : int;
  heuristic : int;
  exact : int;
  optimal : bool;  (** exact search completed within budget *)
  nodes : int;
  gap_percent : float;  (** (heuristic - exact) / exact * 100 *)
}

val prefix : Soctest_soc.Soc_def.t -> int -> Soctest_soc.Soc_def.t
(** [prefix soc n]: the first [n] cores of [soc], rebuilt from their
    test parameters alone (no hierarchy, no BIST engines) — the
    sub-SOCs {!run} solves. *)

val run :
  ?soc:Soctest_soc.Soc_def.t ->
  ?core_counts:int list ->
  ?tam_width:int ->
  ?node_limit:int ->
  unit ->
  row list
(** Defaults: d695 prefixes of 2..6 cores at W = 16, 3 M nodes. *)

val to_table : row list -> string

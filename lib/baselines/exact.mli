(** Exact branch-and-bound reference solver for Problem 1.

    With fork/merge TAM wires, wrapper/TAM co-optimization and
    non-preemptive scheduling is a {e cumulative scheduling} problem:
    pick one Pareto rectangle (width, time) per core and start times such
    that at every instant the total width in use is at most [W]; minimize
    the makespan. For cumulative scheduling some optimal schedule is
    left-justified (every start is 0 or a finish time), so a chronological
    branch-and-bound over event points is exact.

    The paper's comparison point [12] is an exact method whose compute
    time "increases exponentially with the number of TAMs"; this module
    reproduces that trade-off: exact optima on small SOCs (up to ~6-8
    cores), exponential blow-up beyond, against the heuristic's
    milliseconds.

    {b Test oracle only.} The production exact solver is
    {!Soctest_pack.Bnb} (the portfolio's [exact-bnb], the exact-gap
    experiment). This constraint-blind search is kept as the independent
    reference the tests check [Bnb]'s optima against, the way
    [Soctest_check.Ref_alloc] is kept for the wire allocator; no
    production code calls it. *)

type outcome = {
  testing_time : int;
  schedule : Soctest_tam.Schedule.t;
  optimal : bool;
      (** [true] when the search space was exhausted; [false] when the
          node budget ran out (the result is then the best found, still a
          valid upper bound). *)
  nodes : int;  (** search nodes expanded *)
}

val solve :
  ?node_limit:int ->
  ?upper_bound:int ->
  Soctest_core.Optimizer.prepared ->
  tam_width:int ->
  outcome
(** [solve prepared ~tam_width] computes a minimum-makespan non-preemptive
    schedule. [node_limit] defaults to 2 million; [upper_bound] seeds the
    incumbent (e.g. from the heuristic) to sharpen pruning.
    @raise Invalid_argument if [tam_width < 1] or [node_limit < 1]. *)

(** High-level facade: the three problems of the paper as one-call flows
    over the {!Engine}.

    - {!solve}: wrapper/TAM co-optimization + scheduling of one SOC at
      one TAM width. With [Constraint_def.empty] constraints (the default)
      this is Problem 1 ([P_nw]); with constraints it is Problem 2
      ([P_npw]) — p1 {e is} p2 with the empty constraint set.
    - {!solve_sweep}: sweeps the TAM width and identifies effective
      widths for the time/volume trade-off (Problem 3).

    Every flow routes through {!Engine.solve} / {!Engine.solve_many};
    pass your own [?engine] handle to share its caches across calls
    (e.g. across the widths of a sweep and a later single solve). *)

module Optimizer = Soctest_core.Optimizer
module Volume = Soctest_core.Volume
module Cost = Soctest_core.Cost

val solve :
  ?engine:Engine.t ->
  ?constraints:Soctest_constraints.Constraint_def.t ->
  Soctest_soc.Soc_def.t ->
  tam_width:int ->
  Optimizer.result
(** One evaluation at {!Optimizer.default_params}. [constraints]
    defaults to [Constraint_def.empty ~core_count:(Soc_def.core_count
    soc)] (Problem 1). A fresh engine is created when [engine] is
    omitted (no caching across calls). *)

type p3_result = {
  points : Volume.point list;
  evaluations : Cost.evaluation list;
}

val solve_sweep :
  ?engine:Engine.t ->
  ?constraints:Soctest_constraints.Constraint_def.t ->
  Soctest_soc.Soc_def.t ->
  widths:int list ->
  alphas:float list ->
  p3_result
(** One {!Engine.solve_many} batch over the (deduplicated, sorted)
    widths: the per-core Pareto staircases are computed once for the
    whole sweep. [constraints] defaults as in {!solve}. *)

val default_power_limit : Soctest_soc.Soc_def.t -> int
(** The experiment setting used throughout: 1.5x the largest per-core test
    power — binding enough to serialize the biggest consumers, loose
    enough to stay feasible. *)

val preemption_budget :
  Soctest_soc.Soc_def.t -> limit:int -> (int * int) list
(** The paper's Table-1 preemption setting: allow [limit] preemptions for
    the "larger cores" — those with above-median test data volume. *)

val constraints :
  ?power_limit:int ->
  ?preempt:int ->
  Soctest_soc.Soc_def.t ->
  Soctest_constraints.Constraint_def.t
(** The constraint set behind the CLI's [--power]/[--preempt] and the
    HTTP [power_limit]/[preempt] fields:
    {!Soctest_constraints.Constraint_def.of_soc} (hierarchy and BIST
    exclusions) with [power_limit] (default none) and, when [preempt > 0],
    {!preemption_budget} [~limit:preempt]. [preempt] defaults to 0, which
    forbids preemption on every core.
    @raise Invalid_argument if [preempt < 0]. *)

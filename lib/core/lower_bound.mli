(** Architecture-independent lower bound on SOC testing time (paper,
    Sec. 6):

    {v LB(W) = max( max_i Tmin_i(W),  ceil(A / W) ) v}

    where [Tmin_i(W)] is core [i]'s testing time at the largest usable
    width [min(W, highest Pareto width)] — no schedule can finish before
    its slowest core — and [A = sum_i min_w (w * T_i(w))] is the SOC's
    intrinsic TAM bandwidth demand in wire-cycles — [W] wires cannot ship
    [A] wire-cycles of work in fewer than [A / W] cycles. *)

val bottleneck_term : Optimizer.prepared -> tam_width:int -> int
val bandwidth_term : Optimizer.prepared -> tam_width:int -> int

val compute : Optimizer.prepared -> tam_width:int -> int
(** @raise Invalid_argument if [tam_width < 1]. *)

val compute_soc : Soctest_soc.Soc_def.t -> tam_width:int -> ?wmax:int -> unit -> int

val energy_term :
  Optimizer.prepared -> constraints:Soctest_constraints.Constraint_def.t -> int
(** Power-constrained refinement: testing consumes at least
    [sum_i P_i * Tmin_i] units of energy, and the cap allows at most
    [power_limit] per cycle, so no schedule beats
    [ceil(total energy / power_limit)]. [0] when unconstrained. *)

val critical_path_term : Optimizer.prepared -> tam_width:int ->
  constraints:Soctest_constraints.Constraint_def.t -> int
(** Precedence refinement: the longest chain of predecessor tests, each
    at its own minimum time for this TAM width, must run sequentially. *)

val compute_constrained :
  Optimizer.prepared ->
  tam_width:int ->
  constraints:Soctest_constraints.Constraint_def.t ->
  int
(** [max] of {!compute} and both constraint-aware terms — a legitimate
    lower bound for Problem 2 instances. *)

val gap_pct : lower_bound:int -> int -> float
(** [gap_pct ~lower_bound time]: how far [time] sits above
    [lower_bound], in percent of it — [100 (time - lb) / lb], and [0.]
    when [lower_bound <= 0]. *)

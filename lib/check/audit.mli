(** Wire-exact schedule auditing.

    {!run} re-derives every invariant a finished schedule must satisfy
    from first principles — deliberately {e not} trusting the
    bookkeeping of whichever solver produced it, and overlapping with
    but exceeding {!Soctest_constraints.Conflict.validate}:

    - {b Wire occupancy}: a concrete wire assignment exists
      ({!Soctest_tam.Wire_alloc.allocate}) and no wire serves two
      overlapping slices;
    - {b Capacity / overlap}: at every instant the active widths sum to
      at most [tam_width] and no core runs twice at once (independent
      interval sweep, not {!Soctest_tam.Schedule.check_capacity});
    - {b Width discipline}: each core keeps one TAM width across all of
      its slices (preemption may move a core to different wires, never
      to a different width), every slice fits the TAM, and the width is
      {e effective} on the core's Pareto staircase
      ({!Soctest_wrapper.Pareto.effective_width});
    - {b Time accounting}: each core's total busy time equals
      [Pareto.time] at its width plus exactly [si + so] cycles per real
      preemption (a resumption at [start = previous stop] is free),
      and at an effective width within [wmax] that staircase time
      equals {!Soctest_wrapper.Wrapper_design.design}'s, so a wrong
      staircase provider cannot vouch for itself;
    - {b Constraints}: precedence, concurrency exclusions, shared-BIST
      exclusion, the power cap at every instant, and per-core preemption
      budgets;
    - {b Completeness}: every SOC core is scheduled (when the spec
      requires it);
    - {b Tester data volume}: {!Soctest_core.Volume} and
      {!Soctest_tester.Tester_image} totals agree with the schedule they
      were derived from ([depth = makespan],
      [useful = total busy area], [volume = W * depth],
      [padding = volume - useful], per-wire busy sums).

    The auditor never raises on malformed schedules: rogue core ids,
    width changes and capacity overflows all come back as named
    violations in the report. *)

type spec = {
  constraints : Soctest_constraints.Constraint_def.t;
  wmax : int;  (** Pareto analyses are re-derived at this width cap *)
  expect_tam_width : int option;
      (** when set, the schedule's [tam_width] must equal it *)
  require_complete : bool;
      (** when set, every SOC core must appear in the schedule *)
  pareto : Soctest_soc.Core_def.t -> Soctest_wrapper.Pareto.t;
      (** staircase provider for the Pareto-effectiveness and
          time-accounting checks; must be equivalent to
          [Pareto.compute core ~wmax] (the default) — pass a
          cache-backed lookup ({!Soctest_engine.Engine.pareto}) so
          repeated audits stop recomputing staircases *)
}

val spec :
  ?wmax:int ->
  ?expect_tam_width:int ->
  ?require_complete:bool ->
  ?pareto:(Soctest_soc.Core_def.t -> Soctest_wrapper.Pareto.t) ->
  Soctest_constraints.Constraint_def.t ->
  spec
(** [wmax] defaults to 64 (the paper's cap — match the [wmax] the solver
    prepared with, or Pareto-effectiveness checks will misfire);
    [require_complete] defaults to [true]; [pareto] to
    [Soctest_wrapper.Pareto.compute ~wmax] (uncached). *)

type check =
  | Wire_occupancy
  | Width_constant
  | Pareto_width
  | Time_accounting
  | Capacity
  | Overlap
  | Precedence
  | Concurrency
  | Bist
  | Power
  | Preemption_budget
  | Completeness
  | Tam_width
  | Volume_totals
  | Tester_image
  | Unknown_core

val check_name : check -> string
(** Stable kebab-case name, e.g. ["wire-occupancy"] — what the CLI and
    fuzz harness print. *)

type violation = { check : check; detail : string }

type report = {
  violations : violation list;
  checks_run : int;  (** distinct checks executed on this schedule *)
  cores_audited : int;
  slices_audited : int;
  makespan : int;  (** re-derived, not read from the solver *)
}

val run : Soctest_soc.Soc_def.t -> spec -> Soctest_tam.Schedule.t -> report
(** Audit one schedule. Never raises on schedule content; spec errors
    (constraint set sized for a different SOC, [wmax < 1]) raise
    [Invalid_argument]. *)

val ok : report -> bool
(** [ok r] iff [r.violations = []]. *)

val pp_violation : Format.formatter -> violation -> unit
val pp_report : Format.formatter -> report -> unit

(** {1 Debug-mode enforcement}

    [Engine.solve] and the portfolio strategies call {!enforce} on every
    schedule they hand out. It is a no-op unless auditing is enabled —
    via {!set_enabled} or the [SOCTEST_AUDIT] environment variable
    ([1]/[true]/[on]) read at startup — so production solves pay
    nothing. *)

exception Failed of string * report
(** [Failed (source, report)]: an enabled {!enforce} found violations in
    a schedule produced by [source]. *)

val enforce :
  source:string ->
  Soctest_soc.Soc_def.t ->
  spec ->
  Soctest_tam.Schedule.t ->
  unit
(** @raise Failed when auditing is enabled and the audit is not clean. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

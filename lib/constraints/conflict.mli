(** The [Conflict] predicate of the paper (Fig. 7) plus full-schedule
    re-validation.

    {!admissible} is the scheduler-facing check: may core [i] start (or
    resume) {e now}, given what has completed and what is running?
    {!validate} re-checks a complete schedule from first principles and is
    what the test-suite trusts. *)

type running = { core : int; power : int }

type reason =
  | Precedence_pending of int  (** this predecessor has not completed *)
  | Concurrency_clash of int  (** this excluded core is running *)
  | Power_exceeded of { budget : int; needed : int }
  | Bist_clash of int  (** this core shares a BIST engine and is running *)

val admissible :
  Soctest_soc.Soc_def.t ->
  Constraint_def.t ->
  completed:(int -> bool) ->
  running:running list ->
  candidate:int ->
  (unit, reason) result
(** First reason found, checked in the paper's order: precedence,
    concurrency, power, BIST–scan. *)

type ctx
(** Precomputed per-core constraint context: predecessor arrays,
    exclusion and BIST-peer bitsets, per-core power, over core ids
    [0 .. n] with [n] the larger of the SOC's and the constraint set's
    core counts. Build once per solve with {!context}; it is immutable
    and shareable. *)

val context : Soctest_soc.Soc_def.t -> Constraint_def.t -> ctx

val admissible_ctx :
  ctx ->
  completed:(int -> bool) ->
  running:Soctest_tam.Bitset.t ->
  running_power:int ->
  candidate:int ->
  (unit, reason) result
(** Exactly {!admissible}, but the caller maintains the running set as a
    bitset over core ids (universe [0 .. core_count]) and the running
    power total incrementally, so each check is array loads and word
    ANDs rather than list scans. When several running cores offend, the
    reported one is the lowest core id — the same answer the list-based
    check gives on the ascending running lists the scheduler builds. *)

type violation =
  | Capacity of Soctest_tam.Schedule.violation
  | Precedence_violated of { before : int; after : int }
  | Concurrency_violated of { a : int; b : int; time : int }
  | Power_violated of { time : int; power : int; limit : int }
  | Bist_violated of { a : int; b : int; engine : int; time : int }
  | Preemptions_exceeded of { core : int; count : int; limit : int }
  | Width_above_total of { core : int; width : int }
  | Width_changed of { core : int; widths : int list }
      (** a core's slices disagree on TAM width — preemption may move a
          core to different {e wires}, never to a different width *)
  | Unknown_core of { core : int }
      (** a slice names a core id the SOC does not define *)

val validate :
  Soctest_soc.Soc_def.t ->
  Constraint_def.t ->
  Soctest_tam.Schedule.t ->
  violation list
(** Empty list = the schedule satisfies TAM capacity and every constraint.
    Cores absent from the schedule are not flagged here (completeness is a
    separate property checked by callers who require it). Never raises on
    malformed input: out-of-range core ids become {!Unknown_core}
    violations (and are excluded from the SOC-dereferencing checks), and a
    core whose slices change width becomes {!Width_changed} rather than
    the [Invalid_argument] that [Schedule.width_of_core] would raise.

    Cost: one pass over the slices and one {!Soctest_tam.Schedule.sweep}
    over their boundaries; each start is checked against the slices
    active at that instant only. The list is the same, element
    for element and in order, as checking each property separately over
    the whole slice list, which the test suite keeps as the oracle. *)

val validate_ctx : ctx -> Soctest_tam.Schedule.t -> violation list
(** {!validate} against the SOC and constraint set a {!context} was built
    from, without rebuilding it — the optimizer's post-run self-check. *)

val pp_reason : Format.formatter -> reason -> unit
val pp_violation : Format.formatter -> violation -> unit

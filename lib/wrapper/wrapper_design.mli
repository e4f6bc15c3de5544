(** The [Design_wrapper] algorithm: build a test wrapper for a core given a
    TAM width, and derive the core testing time.

    A wrapper of width [w] has [w] wrapper scan chains. Each wrapper chain
    concatenates zero or more internal scan chains plus some wrapper input
    cells (functional inputs) and wrapper output cells (functional
    outputs); bidirectional terminals contribute a cell on both sides.
    The scan-in length of a wrapper chain is its internal flip-flops plus
    its input cells; the scan-out length is internal flip-flops plus output
    cells. With [si]/[so] the longest scan-in/scan-out over all wrapper
    chains and [p] test patterns, the core testing time is

    {v T(w) = (1 + max(si, so)) * p + min(si, so) v}

    (pipelined scan: each pattern needs one capture cycle plus a shift-in
    overlapped with the previous shift-out; one final flush). *)

type t = {
  width : int;  (** wrapper chain count actually used, [>= 1] *)
  scan_in : int array;  (** per-wrapper-chain scan-in length *)
  scan_out : int array;  (** per-wrapper-chain scan-out length *)
  si : int;  (** longest scan-in *)
  so : int;  (** longest scan-out *)
  time : int;  (** core testing time in cycles *)
}

val design : Soctest_soc.Core_def.t -> width:int -> t
(** [design core ~width] runs Best-Fit-Decreasing wrapper optimization.
    Widths larger than the core can use are silently clamped (the result's
    [width] field reports the clamp).
    @raise Invalid_argument if [width < 1]. *)

val testing_time : Soctest_soc.Core_def.t -> width:int -> int
(** [testing_time core ~width = (design core ~width).time]. *)

val staircase : Soctest_soc.Core_def.t -> wmax:int -> int array
(** [staircase core ~wmax] equals
    [Array.init wmax (fun k -> testing_time core ~width:(k + 1))],
    computed from one sort of the scan chains: BFD runs only at widths
    below the chain count, and [si]/[so] come from the water-fill level
    in closed form. {!design} stays the per-width oracle.
    @raise Invalid_argument if [wmax < 1]. *)

val time_formula : si:int -> so:int -> patterns:int -> int
(** The raw formula, exposed for tests and for the preemption penalty. *)

val pp : Format.formatter -> t -> unit

val design_exact : Soctest_soc.Core_def.t -> width:int -> t
(** Like {!design} but with the internal scan chains partitioned by exact
    branch-and-bound instead of Best-Fit-Decreasing (functional terminals
    are still spread greedily — they are unit-weight, for which greedy is
    optimal). Exponential in the chain count; falls back to {!design}
    beyond 16 chains. Never slower than {!design} on the scan component;
    used to audit how much the BFD heuristic leaves on the table. *)

module Soc_def = Soctest_soc.Soc_def
module Core_def = Soctest_soc.Core_def
module Schedule = Soctest_tam.Schedule
module Wire_alloc = Soctest_tam.Wire_alloc
module Pareto = Soctest_wrapper.Pareto
module Wrapper_design = Soctest_wrapper.Wrapper_design
module Constraint_def = Soctest_constraints.Constraint_def
module Tester_image = Soctest_tester.Tester_image
module Volume = Soctest_core.Volume
module Obs = Soctest_obs.Obs

type spec = {
  constraints : Constraint_def.t;
  wmax : int;
  expect_tam_width : int option;
  require_complete : bool;
  pareto : Core_def.t -> Pareto.t;
}

let spec ?(wmax = 64) ?expect_tam_width ?(require_complete = true) ?pareto
    constraints =
  let pareto =
    match pareto with
    | Some lookup -> lookup
    | None -> fun core -> Pareto.compute core ~wmax
  in
  { constraints; wmax; expect_tam_width; require_complete; pareto }

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

let check_name = function
  | Wire_occupancy -> "wire-occupancy"
  | Width_constant -> "width-constant"
  | Pareto_width -> "pareto-width"
  | Time_accounting -> "time-accounting"
  | Capacity -> "capacity"
  | Overlap -> "overlap"
  | Precedence -> "precedence"
  | Concurrency -> "concurrency"
  | Bist -> "bist"
  | Power -> "power"
  | Preemption_budget -> "preemption-budget"
  | Completeness -> "completeness"
  | Tam_width -> "tam-width"
  | Volume_totals -> "volume-totals"
  | Tester_image -> "tester-image"
  | Unknown_core -> "unknown-core"

type violation = { check : check; detail : string }

type report = {
  violations : violation list;
  checks_run : int;
  cores_audited : int;
  slices_audited : int;
  makespan : int;
}

let ok r = r.violations = []

let pp_violation ppf v =
  Format.fprintf ppf "[%s] %s" (check_name v.check) v.detail

let pp_report ppf r =
  if ok r then
    Format.fprintf ppf
      "audit clean: %d check(s) over %d core(s), %d slice(s), makespan %d"
      r.checks_run r.cores_audited r.slices_audited r.makespan
  else begin
    Format.fprintf ppf "@[<v>audit found %d violation(s):"
      (List.length r.violations);
    List.iter (fun v -> Format.fprintf ppf "@,  %a" pp_violation v)
      r.violations;
    Format.fprintf ppf "@]"
  end

let audits_counter = Obs.counter "check.audits"
let violations_counter = Obs.counter "check.violations"

(* ------------------------------------------------------------------ *)

module Check_set = Set.Make (struct
  type t = check

  let compare = compare
end)

(* Accumulates violations in discovery order and remembers which checks
   actually ran, so a report can say "N checks passed" honestly even
   when some were skipped as unobservable (e.g. the tester image of a
   schedule that has no legal wire assignment). *)
type acc = {
  mutable found : violation list;
  mutable ran : Check_set.t;
}

let ran acc check = acc.ran <- Check_set.add check acc.ran

let fail acc check fmt =
  Format.kasprintf
    (fun detail ->
      ran acc check;
      acc.found <- { check; detail } :: acc.found)
    fmt

let run soc spec sched =
  Obs.with_span ~cat:"check" "audit.run"
    ~args:[ ("soc", soc.Soc_def.name) ]
  @@ fun () ->
  Obs.incr audits_counter;
  if spec.wmax < 1 then invalid_arg "Audit.run: wmax must be >= 1";
  let n = Soc_def.core_count soc in
  if spec.constraints.Constraint_def.core_count <> n then
    invalid_arg "Audit.run: constraints sized for a different SOC";
  let acc = { found = []; ran = Check_set.empty } in
  let slices = sched.Schedule.slices in
  let tam_width = sched.Schedule.tam_width in
  (* every derived quantity below is recomputed here, from the slice
     list alone — nothing is taken from solver bookkeeping *)
  let makespan =
    List.fold_left (fun m (s : Schedule.slice) -> max m s.Schedule.stop) 0
      slices
  in
  let busy_area =
    List.fold_left
      (fun a (s : Schedule.slice) ->
        a + (s.Schedule.width * (s.Schedule.stop - s.Schedule.start)))
      0 slices
  in
  let scheduled_cores = Schedule.cores sched in
  let known c = c >= 1 && c <= n in
  let known_cores = List.filter known scheduled_cores in

  (* -- unknown-core: rogue ids are reported once and kept out of every
        check that dereferences the SOC -- *)
  ran acc Unknown_core;
  List.iter
    (fun c ->
      if not (known c) then
        fail acc Unknown_core
          "slice refers to core %d; SOC %s defines cores 1..%d" c
          soc.Soc_def.name n)
    scheduled_cores;

  (* -- tam-width: the schedule is for the TAM the caller asked for, and
        no single slice is wider than the whole TAM -- *)
  ran acc Tam_width;
  (match spec.expect_tam_width with
  | Some w when w <> tam_width ->
    fail acc Tam_width "schedule built for W=%d, expected W=%d" tam_width w
  | _ -> ());
  List.iter
    (fun (s : Schedule.slice) ->
      if s.Schedule.width > tam_width then
        fail acc Tam_width "core %d slice width %d exceeds the TAM (W=%d)"
          s.Schedule.core s.Schedule.width tam_width)
    slices;

  (* -- interval sweep: the schedule is piecewise constant between slice
        boundaries, so checking each boundary instant checks every
        instant. Capacity, core overlap, power, concurrency and BIST
        exclusion all fall out of the same active sets. -- *)
  let boundaries =
    List.concat_map
      (fun (s : Schedule.slice) -> [ s.Schedule.start; s.Schedule.stop ])
      slices
    |> List.sort_uniq compare
  in
  ran acc Capacity;
  ran acc Overlap;
  ran acc Power;
  ran acc Concurrency;
  ran acc Bist;
  (* a long illegal overlap spans many boundaries: report each offending
     pair (or core) once, at the first instant it is caught *)
  let seen_overlap = Hashtbl.create 8 in
  let seen_pair = Hashtbl.create 8 in
  let shares_bist a b =
    match
      ( (Soc_def.core soc a).Core_def.bist_engine,
        (Soc_def.core soc b).Core_def.bist_engine )
    with
    | Some ea, Some eb when ea = eb -> Some ea
    | _ -> None
  in
  List.iter
    (fun time ->
      let active =
        List.filter
          (fun (s : Schedule.slice) ->
            s.Schedule.start <= time && time < s.Schedule.stop)
          slices
      in
      let used =
        List.fold_left (fun a (s : Schedule.slice) -> a + s.Schedule.width)
          0 active
      in
      if used > tam_width then
        fail acc Capacity "%d wires in use at t=%d (W=%d)" used time
          tam_width;
      (* per-core multiplicity in the active set *)
      let by_core = Hashtbl.create 8 in
      List.iter
        (fun (s : Schedule.slice) ->
          let c = s.Schedule.core in
          let k = try Hashtbl.find by_core c with Not_found -> 0 in
          Hashtbl.replace by_core c (k + 1))
        active;
      Hashtbl.iter
        (fun c k ->
          if k > 1 && not (Hashtbl.mem seen_overlap c) then begin
            Hashtbl.add seen_overlap c ();
            fail acc Overlap "core %d runs %d slices at once at t=%d" c k
              time
          end)
        by_core;
      (match spec.constraints.Constraint_def.power_limit with
      | None -> ()
      | Some limit ->
        let power =
          List.fold_left
            (fun a (s : Schedule.slice) ->
              if known s.Schedule.core then
                a + (Soc_def.core soc s.Schedule.core).Core_def.power
              else a)
            0 active
        in
        if power > limit then
          fail acc Power "power %d exceeds limit %d at t=%d" power limit
            time);
      let active_cores =
        List.filter known (List.map (fun s -> s.Schedule.core) active)
        |> List.sort_uniq compare
      in
      let rec pairs = function
        | [] -> ()
        | a :: rest ->
          List.iter
            (fun b ->
              if
                Constraint_def.excluded spec.constraints a b
                && not (Hashtbl.mem seen_pair (`Conc, a, b))
              then begin
                Hashtbl.add seen_pair (`Conc, a, b) ();
                fail acc Concurrency
                  "excluded cores %d and %d overlap at t=%d" a b time
              end;
              match shares_bist a b with
              | Some engine when not (Hashtbl.mem seen_pair (`Bist, a, b))
                ->
                Hashtbl.add seen_pair (`Bist, a, b) ();
                fail acc Bist
                  "cores %d and %d share BIST engine %d at t=%d" a b engine
                  time
              | _ -> ())
            rest;
          pairs rest
      in
      pairs active_cores)
    boundaries;

  (* -- wire occupancy: an explicit fork/merge wire assignment must
        exist, and no wire may serve two overlapping slices -- *)
  ran acc Wire_occupancy;
  let allocations =
    match Wire_alloc.allocate sched with
    | allocations ->
      List.iter
        (fun { Wire_alloc.slice; wires } ->
          if List.length wires <> slice.Schedule.width then
            fail acc Wire_occupancy
              "core %d slice at t=%d got %d wires for width %d"
              slice.Schedule.core slice.Schedule.start (List.length wires)
              slice.Schedule.width;
          List.iter
            (fun w ->
              if w < 0 || w >= tam_width then
                fail acc Wire_occupancy
                  "core %d assigned wire %d outside 0..%d"
                  slice.Schedule.core w (tam_width - 1))
            wires)
        allocations;
      if not (Wire_alloc.is_disjoint allocations) then
        fail acc Wire_occupancy
          "two overlapping slices share a wire (allocator invariant \
           broken)";
      if not (Ref_alloc.is_disjoint allocations) then
        fail acc Wire_occupancy
          "reference pairwise check disagrees: overlapping slices share \
           a wire that the sweep-based check missed";
      (* differential: the independent set-based allocator must derive
         the exact same assignment, slice for slice, wire for wire *)
      (match Ref_alloc.allocate sched with
      | Error (time, core, deficit) ->
        fail acc Wire_occupancy
          "allocator divergence: bitset path found an assignment but the \
           reference allocator is short %d wire(s) for core %d at t=%d"
          deficit core time
      | Ok ref_allocations ->
        if
          not
            (List.equal
               (fun (a : Wire_alloc.allocation) (b : Wire_alloc.allocation) ->
                 a.Wire_alloc.slice = b.Wire_alloc.slice
                 && a.Wire_alloc.wires = b.Wire_alloc.wires)
               allocations ref_allocations)
        then
          fail acc Wire_occupancy
            "allocator divergence: bitset and reference paths assign \
             different wires to the same schedule");
      Some allocations
    | exception Wire_alloc.Capacity_exceeded { time; core; deficit } ->
      fail acc Wire_occupancy
        "no wire assignment exists: core %d short %d wire(s) at t=%d" core
        deficit time;
      (match Ref_alloc.allocate sched with
      | Error (rt, rc, rd) when (rt, rc, rd) = (time, core, deficit) -> ()
      | Error (rt, rc, rd) ->
        fail acc Wire_occupancy
          "allocator divergence: capacity errors disagree (bitset: core \
           %d short %d at t=%d; reference: core %d short %d at t=%d)"
          core deficit time rc rd rt
      | Ok _ ->
        fail acc Wire_occupancy
          "allocator divergence: reference allocator found an assignment \
           where the bitset path reported capacity exhaustion");
      None
  in

  (* -- per-core width discipline and cost accounting -- *)
  ran acc Width_constant;
  List.iter
    (fun c ->
      let css = Schedule.slices_of_core sched c in
      let widths =
        List.map (fun (s : Schedule.slice) -> s.Schedule.width) css
        |> List.sort_uniq compare
      in
      match widths with
      | [] -> ()
      | [ width ] ->
        let core = Soc_def.core soc c in
        let p = spec.pareto core in
        ran acc Pareto_width;
        let effective = Pareto.effective_width p ~width in
        if effective <> width then
          fail acc Pareto_width
            "core %d uses width %d; effective Pareto width is %d (same \
             time, fewer wires)"
            c width effective;
        ran acc Time_accounting;
        let busy =
          List.fold_left
            (fun a (s : Schedule.slice) ->
              a + (s.Schedule.stop - s.Schedule.start))
            0 css
        in
        let preempts = Schedule.preemptions sched c in
        let d = Wrapper_design.design core ~width in
        let penalty = d.Wrapper_design.si + d.Wrapper_design.so in
        let expected =
          Pareto.time p ~width + (preempts * penalty)
        in
        if busy <> expected then
          fail acc Time_accounting
            "core %d busy %d cycles; Pareto time %d + %d preemption(s) x \
             (si+so = %d) = %d"
            c busy (Pareto.time p ~width) preempts penalty expected;
        (* the per-width design is already at hand for the penalty: it
           re-derives the staircase step the schedule stands on, so a
           wrong staircase cannot vouch for itself *)
        if effective = width && width <= Pareto.wmax p
           && d.Wrapper_design.time <> Pareto.time p ~width
        then
          fail acc Time_accounting
            "core %d at width %d: staircase time %d, wrapper design %d" c
            width (Pareto.time p ~width) d.Wrapper_design.time
      | widths ->
        fail acc Width_constant "core %d changes width across slices (%s)"
          c
          (String.concat ", " (List.map string_of_int widths)))
    known_cores;

  (* -- precedence: predecessor fully done before successor starts -- *)
  ran acc Precedence;
  List.iter
    (fun (before, after) ->
      match
        (Schedule.core_finish sched before, Schedule.core_start sched after)
      with
      | Some fin, Some start when start < fin ->
        fail acc Precedence
          "core %d starts at t=%d before predecessor %d finishes at t=%d"
          after start before fin
      | None, Some start ->
        fail acc Precedence
          "core %d starts at t=%d but predecessor %d is never scheduled"
          after start before
      | _ -> ())
    spec.constraints.Constraint_def.precedence;

  (* -- preemption budgets, with the si+so charge already verified by
        time accounting above -- *)
  ran acc Preemption_budget;
  List.iter
    (fun c ->
      let count = Schedule.preemptions sched c in
      let limit = Constraint_def.max_preemptions_of spec.constraints c in
      if count > limit then
        fail acc Preemption_budget "core %d preempted %d time(s), limit %d"
          c count limit)
    known_cores;

  (* -- completeness -- *)
  if spec.require_complete then begin
    ran acc Completeness;
    for c = 1 to n do
      if not (List.mem c known_cores) then
        fail acc Completeness "core %d is never scheduled" c
    done
  end;

  (* -- tester data volume: the Volume and Tester_image modules must
        agree with totals re-derived from the slice list -- *)
  ran acc Volume_totals;
  let volume = Volume.of_schedule sched in
  if volume <> tam_width * makespan then
    fail acc Volume_totals "Volume.of_schedule = %d, expected W x makespan \
                            = %d x %d = %d"
      volume tam_width makespan (tam_width * makespan);
  if Schedule.total_busy_area sched <> busy_area then
    fail acc Volume_totals "Schedule.total_busy_area = %d, slice sum = %d"
      (Schedule.total_busy_area sched)
      busy_area;
  (match allocations with
  | None -> () (* no wire assignment: the image is not even defined *)
  | Some _ ->
    ran acc Tester_image;
    let img = Tester_image.of_schedule sched in
    if img.Tester_image.depth <> makespan then
      fail acc Tester_image "image depth %d <> makespan %d"
        img.Tester_image.depth makespan;
    if img.Tester_image.volume <> tam_width * makespan then
      fail acc Tester_image "image volume %d <> W x depth = %d"
        img.Tester_image.volume (tam_width * makespan);
    if img.Tester_image.useful <> busy_area then
      fail acc Tester_image "image useful bits %d <> schedule busy area %d"
        img.Tester_image.useful busy_area;
    if
      img.Tester_image.padding
      <> img.Tester_image.volume - img.Tester_image.useful
    then
      fail acc Tester_image "image padding %d <> volume - useful = %d"
        img.Tester_image.padding
        (img.Tester_image.volume - img.Tester_image.useful);
    if Array.length img.Tester_image.per_wire_busy <> tam_width then
      fail acc Tester_image "image has %d wire rows, TAM has %d"
        (Array.length img.Tester_image.per_wire_busy)
        tam_width;
    let per_wire_sum =
      Array.fold_left ( + ) 0 img.Tester_image.per_wire_busy
    in
    if per_wire_sum <> img.Tester_image.useful then
      fail acc Tester_image "per-wire busy sums to %d, useful is %d"
        per_wire_sum img.Tester_image.useful;
    Array.iteri
      (fun w busy ->
        if busy > makespan then
          fail acc Tester_image "wire %d busy %d cycles > makespan %d" w
            busy makespan)
      img.Tester_image.per_wire_busy);

  let violations = List.rev acc.found in
  Obs.add violations_counter (List.length violations);
  {
    violations;
    checks_run = Check_set.cardinal acc.ran;
    cores_audited = List.length known_cores;
    slices_audited = List.length slices;
    makespan;
  }

(* ------------------------------------------------------------------ *)

exception Failed of string * report

let () =
  Printexc.register_printer (function
    | Failed (source, report) ->
      Some (Format.asprintf "Audit.Failed in %s: %a" source pp_report report)
    | _ -> None)

let enabled_flag =
  Atomic.make
    (match Sys.getenv_opt "SOCTEST_AUDIT" with
    | Some ("1" | "true" | "on" | "yes") -> true
    | _ -> false)

let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let enforce ~source soc spec sched =
  if enabled () then begin
    let report = run soc spec sched in
    if not (ok report) then begin
      Obs.instant ~cat:"check" "audit.failed"
        ~args:
          [
            ("source", source);
            ("violations", string_of_int (List.length report.violations));
          ];
      raise (Failed (source, report))
    end
  end

(* The per-check formulation of [Conflict.validate], [Schedule.peak_width]
   and [Schedule.check_capacity] that the library's single event sweeps
   replaced, kept verbatim as the differential oracle: each property is
   checked on its own over the whole slice list (pairs quadratically,
   the capacity sweep re-partitioning the remaining events at every
   timestamp). The library functions must return exactly these lists,
   element for element and in order. *)

module Soc_def = Soctest_soc.Soc_def
module Core_def = Soctest_soc.Core_def
module Schedule = Soctest_tam.Schedule
module Constraint_def = Soctest_constraints.Constraint_def
open Soctest_constraints.Conflict

let shares_bist soc a b =
  match
    ( (Soc_def.core soc a).Core_def.bist_engine,
      (Soc_def.core soc b).Core_def.bist_engine )
  with
  | Some ea, Some eb -> ea = eb
  | _ -> false

let events (t : Schedule.t) =
  List.concat_map
    (fun (s : Schedule.slice) ->
      [ (s.Schedule.start, s.Schedule.width, s.Schedule.core);
        (s.Schedule.stop, -s.Schedule.width, s.Schedule.core) ])
    t.Schedule.slices
  |> List.sort compare

let peak_width t =
  let peak = ref 0 and used = ref 0 in
  (* process all events at the same timestamp together so that a slice
     ending exactly when another starts does not double-count *)
  let evs = events t in
  let rec sweep = function
    | [] -> ()
    | (time, _, _) :: _ as evs ->
      let now, later =
        List.partition (fun (tm, _, _) -> tm = time) evs
      in
      List.iter (fun (_, dw, _) -> used := !used + dw) now;
      peak := max !peak !used;
      sweep later
  in
  sweep evs;
  !peak

let check_capacity (t : Schedule.t) =
  let violations = ref [] in
  let used = ref 0 in
  let running : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let rec sweep = function
    | [] -> ()
    | (time, _, _) :: _ as evs ->
      let now, later = List.partition (fun (tm, _, _) -> tm = time) evs in
      (* apply all ends first, then all starts, at identical timestamps *)
      let ends, starts = List.partition (fun (_, dw, _) -> dw < 0) now in
      List.iter
        (fun (_, dw, core) ->
          used := !used + dw;
          let n = Hashtbl.find running core in
          if n = 1 then Hashtbl.remove running core
          else Hashtbl.replace running core (n - 1))
        ends;
      List.iter
        (fun (_, dw, core) ->
          used := !used + dw;
          let n = try Hashtbl.find running core with Not_found -> 0 in
          if n > 0 then
            violations := Schedule.Core_overlap { core; time } :: !violations;
          Hashtbl.replace running core (n + 1))
        starts;
      if !used > t.Schedule.tam_width then
        violations :=
          Schedule.Capacity_exceeded { time; used = !used } :: !violations;
      sweep later
  in
  sweep (events t);
  List.rev !violations

let overlap (a : Schedule.slice) (b : Schedule.slice) =
  if a.Schedule.start < b.Schedule.stop && b.Schedule.start < a.Schedule.stop
  then Some (max a.Schedule.start b.Schedule.start)
  else None

(* Slice core ids the SOC actually defines. Everything that dereferences
   [Soc_def.core] or the per-core preemption limits must stay inside this
   set: a rogue id is reported as [Unknown_core] instead of letting the
   lookup raise [Invalid_argument] mid-validation. *)
let known_core soc core = core >= 1 && core <= Soc_def.core_count soc

let unknown_core_violations soc (sched : Schedule.t) =
  List.filter_map
    (fun core ->
      if known_core soc core then None else Some (Unknown_core { core }))
    (Schedule.cores sched)

(* The framework's schedules assign each core one TAM width for its whole
   (possibly preempted) test; [Schedule.width_of_core] raises on a width
   change, so group slices by hand here and report it as a violation. *)
let width_change_violations (sched : Schedule.t) =
  List.filter_map
    (fun (core, slices) ->
      let widths =
        Array.to_list (Array.map (fun s -> s.Schedule.width) slices)
        |> List.sort_uniq compare
      in
      match widths with
      | [] | [ _ ] -> None
      | widths -> Some (Width_changed { core; widths }))
    (Schedule.index sched)

let pairwise_violations soc constraints (sched : Schedule.t) =
  let slices =
    List.filter
      (fun s -> known_core soc s.Schedule.core)
      sched.Schedule.slices
  in
  let rec loop acc = function
    | [] -> acc
    | s :: rest ->
      let acc =
        List.fold_left
          (fun acc s' ->
            if s.Schedule.core = s'.Schedule.core then acc
            else
              match overlap s s' with
              | None -> acc
              | Some time ->
                let a = min s.Schedule.core s'.Schedule.core
                and b = max s.Schedule.core s'.Schedule.core in
                let acc =
                  if Constraint_def.excluded constraints a b then
                    Concurrency_violated { a; b; time } :: acc
                  else acc
                in
                if shares_bist soc a b then
                  let engine =
                    Option.value ~default:0
                      (Soc_def.core soc a).Core_def.bist_engine
                  in
                  Bist_violated { a; b; engine; time } :: acc
                else acc)
          acc rest
      in
      loop acc rest
  in
  loop [] slices

let precedence_violations constraints (sched : Schedule.t) =
  List.filter_map
    (fun (before, after) ->
      match
        (Schedule.core_finish sched before, Schedule.core_start sched after)
      with
      | Some fin, Some start when start < fin ->
        Some (Precedence_violated { before; after })
      | None, Some _ ->
        (* successor scheduled but predecessor never runs at all *)
        Some (Precedence_violated { before; after })
      | _ -> None)
    constraints.Constraint_def.precedence

let power_violations soc constraints (sched : Schedule.t) =
  match constraints.Constraint_def.power_limit with
  | None -> []
  | Some limit ->
    (* power profile is piecewise constant between slice boundaries *)
    let boundaries =
      List.concat_map
        (fun s -> [ s.Schedule.start; s.Schedule.stop ])
        sched.Schedule.slices
      |> List.sort_uniq compare
    in
    List.filter_map
      (fun time ->
        let power =
          List.fold_left
            (fun acc s ->
              if known_core soc s.Schedule.core then
                acc + (Soc_def.core soc s.Schedule.core).Core_def.power
              else acc)
            0
            (Schedule.active_at sched time)
        in
        if power > limit then Some (Power_violated { time; power; limit })
        else None)
      boundaries

let preemption_violations constraints (sched : Schedule.t) =
  List.filter_map
    (fun core ->
      if core < 1 || core > constraints.Constraint_def.core_count then None
      else
        let count = Schedule.preemptions sched core in
        let limit = Constraint_def.max_preemptions_of constraints core in
        if count > limit then
          Some (Preemptions_exceeded { core; count; limit })
        else None)
    (Schedule.cores sched)

let width_violations (sched : Schedule.t) =
  List.filter_map
    (fun (s : Schedule.slice) ->
      if s.Schedule.width > sched.Schedule.tam_width then
        Some
          (Width_above_total
             { core = s.Schedule.core; width = s.Schedule.width })
      else None)
    sched.Schedule.slices

let validate soc constraints sched =
  List.map (fun v -> Capacity v) (check_capacity sched)
  @ unknown_core_violations soc sched
  @ width_violations sched
  @ width_change_violations sched
  @ precedence_violations constraints sched
  @ pairwise_violations soc constraints sched
  @ power_violations soc constraints sched
  @ preemption_violations constraints sched

module Optimizer = Soctest_core.Optimizer
module Volume = Soctest_core.Volume
module Cost = Soctest_core.Cost
module Soc_def = Soctest_soc.Soc_def
module Core_def = Soctest_soc.Core_def
module Constraint_def = Soctest_constraints.Constraint_def

let constraints_or_empty soc = function
  | Some c -> c
  | None -> Constraint_def.empty ~core_count:(Soc_def.core_count soc)

let engine_or_fresh = function Some e -> e | None -> Engine.create ()

(* [Engine.request]'s defaults are [Optimizer.default_params]' wmax and
   knobs: one default-parameter evaluation *)
let solve ?engine ?constraints soc ~tam_width =
  let constraints = constraints_or_empty soc constraints in
  (Engine.solve (engine_or_fresh engine)
     (Engine.request soc ~tam_width ~constraints ()))
    .Engine.result

type p3_result = {
  points : Volume.point list;
  evaluations : Cost.evaluation list;
}

let solve_sweep ?engine ?constraints soc ~widths ~alphas =
  let constraints = constraints_or_empty soc constraints in
  let widths = List.sort_uniq compare widths in
  let outcomes =
    Engine.solve_many (engine_or_fresh engine)
      (List.map
         (fun width -> Engine.request soc ~tam_width:width ~constraints ())
         widths)
  in
  let points =
    List.map2
      (fun width (o : Engine.outcome) ->
        let time = o.Engine.result.Optimizer.testing_time in
        { Volume.width; time; volume = width * time })
      widths outcomes
  in
  { points; evaluations = Cost.evaluate_many ~alphas points }

let default_power_limit soc =
  let m = Soc_def.max_power soc in
  m + (m / 2)

let preemption_budget soc ~limit =
  if limit < 0 then invalid_arg "Flow.preemption_budget: negative limit";
  let volumes =
    Array.to_list soc.Soc_def.cores
    |> List.map (fun c -> (c.Core_def.id, Core_def.test_data_bits c))
  in
  let sorted = List.sort (fun (_, a) (_, b) -> compare a b) volumes in
  let median =
    match List.nth_opt sorted (List.length sorted / 2) with
    | Some (_, v) -> v
    | None -> 0
  in
  List.filter_map
    (fun (id, v) -> if v >= median then Some (id, limit) else None)
    volumes

let constraints ?power_limit ?(preempt = 0) soc =
  if preempt < 0 then invalid_arg "Flow.constraints: preempt must be >= 0";
  let max_preemptions =
    if preempt > 0 then preemption_budget soc ~limit:preempt else []
  in
  Constraint_def.of_soc soc ?power_limit ~max_preemptions ()

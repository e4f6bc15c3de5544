module Pareto = Soctest_wrapper.Pareto

let fold_paretos prepared f init =
  let n = Soctest_soc.Soc_def.core_count (Optimizer.soc_of prepared) in
  let acc = ref init in
  for id = 1 to n do
    acc := f !acc (Optimizer.pareto_of prepared id)
  done;
  !acc

let bottleneck_term prepared ~tam_width =
  if tam_width < 1 then
    invalid_arg "Lower_bound.bottleneck_term: tam_width must be >= 1";
  fold_paretos prepared
    (fun acc p ->
      let w = min tam_width (Pareto.highest_pareto p) in
      max acc (Pareto.time p ~width:w))
    0

let bandwidth_term prepared ~tam_width =
  if tam_width < 1 then
    invalid_arg "Lower_bound.bandwidth_term: tam_width must be >= 1";
  let area = fold_paretos prepared (fun acc p -> acc + Pareto.min_area p) 0 in
  (area + tam_width - 1) / tam_width

let compute prepared ~tam_width =
  max (bottleneck_term prepared ~tam_width)
    (bandwidth_term prepared ~tam_width)

let compute_soc soc ~tam_width ?(wmax = 64) () =
  compute (Optimizer.prepare ~wmax soc) ~tam_width

module Constraint_def = Soctest_constraints.Constraint_def
module Core_def = Soctest_soc.Core_def
module Soc_def = Soctest_soc.Soc_def

let energy_term prepared ~constraints =
  match constraints.Constraint_def.power_limit with
  | None -> 0
  | Some limit ->
    let soc = Optimizer.soc_of prepared in
    let n = Soc_def.core_count soc in
    let energy = ref 0 in
    for id = 1 to n do
      let p = Optimizer.pareto_of prepared id in
      energy :=
        !energy
        + ((Soc_def.core soc id).Core_def.power * Pareto.min_time p)
    done;
    (!energy + limit - 1) / limit

let critical_path_term prepared ~tam_width ~constraints =
  if tam_width < 1 then
    invalid_arg "Lower_bound.critical_path_term: tam_width must be >= 1";
  let n = constraints.Constraint_def.core_count in
  let min_time id =
    let p = Optimizer.pareto_of prepared id in
    Pareto.time p ~width:(min tam_width (Pareto.highest_pareto p))
  in
  (* longest path in the precedence DAG; construction guarantees
     acyclicity, so memoized DFS terminates *)
  let memo = Array.make (n + 1) (-1) in
  let rec finish id =
    if memo.(id) >= 0 then memo.(id)
    else begin
      let before =
        List.fold_left
          (fun acc p -> max acc (finish p))
          0
          (Constraint_def.predecessors constraints id)
      in
      memo.(id) <- before + min_time id;
      memo.(id)
    end
  in
  let best = ref 0 in
  for id = 1 to n do
    best := max !best (finish id)
  done;
  !best

let compute_constrained prepared ~tam_width ~constraints =
  max
    (compute prepared ~tam_width)
    (max
       (energy_term prepared ~constraints)
       (critical_path_term prepared ~tam_width ~constraints))

let gap_pct ~lower_bound time =
  if lower_bound > 0 then
    100. *. float_of_int (time - lower_bound) /. float_of_int lower_bound
  else 0.

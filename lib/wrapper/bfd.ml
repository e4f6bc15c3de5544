module Obs = Soctest_obs.Obs

type assignment = { bins : int list array; loads : int array }

let packs_counter = Obs.counter "wrapper.bfd_packs"
let exact_nodes_counter = Obs.counter "wrapper.bfd_exact_nodes"

(* lowest-index least-loaded bin among the first [bins] *)
let least_loaded loads ~bins =
  let best = ref 0 in
  for k = 1 to bins - 1 do
    if loads.(k) < loads.(!best) then best := k
  done;
  !best

let pack ~weights ~bins =
  if bins < 1 then invalid_arg "Bfd.pack: bins must be >= 1";
  Obs.incr packs_counter;
  if Array.exists (fun w -> w < 0) weights then
    invalid_arg "Bfd.pack: negative weight";
  let order = Array.init (Array.length weights) Fun.id in
  Array.sort (fun a b -> compare weights.(b) weights.(a)) order;
  let result = { bins = Array.make bins []; loads = Array.make bins 0 } in
  Array.iter
    (fun item ->
      let bin = least_loaded result.loads ~bins in
      result.bins.(bin) <- item :: result.bins.(bin);
      result.loads.(bin) <- result.loads.(bin) + weights.(item))
    order;
  result

let pack_loads ~sorted ~loads ~bins =
  Array.fill loads 0 bins 0;
  Array.iter
    (fun w ->
      let bin = least_loaded loads ~bins in
      loads.(bin) <- loads.(bin) + w)
    sorted

let note_packs n = Obs.add packs_counter n

let max_load a = Array.fold_left max 0 a.loads

let min_load a =
  Array.fold_left min max_int a.loads

(* Closed-form water-fill, replacing a unit-at-a-time loop that cost
   O(units x bins). The loop's outcome is fully determined: it raises the
   lowest bins to a common level, then hands the leftover units to level
   bins in ascending index order (ties in [least_loaded] resolve to the
   lowest index). So the level is the largest one whose fill cost stays
   within [units], found by binary search since fill is monotone —
   bit-identical to the loop, which test_bfd checks by property. *)
let water_level ~loads ~bins ~units =
  let fill level =
    let acc = ref 0 in
    for i = 0 to bins - 1 do
      if loads.(i) < level then acc := !acc + level - loads.(i)
    done;
    !acc
  in
  let min_load = ref loads.(0) in
  for i = 1 to bins - 1 do
    if loads.(i) < !min_load then min_load := loads.(i)
  done;
  let lo = ref !min_load and hi = ref (!min_load + units) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo + 1) / 2) in
    if fill mid <= units then lo := mid else hi := mid - 1
  done;
  (!lo, units - fill !lo)

let spread_units ~loads ~units =
  if units < 0 then invalid_arg "Bfd.spread_units: negative units";
  let bins = Array.length loads in
  if bins = 0 then invalid_arg "Bfd.spread_units: no bins";
  let given = Array.make bins 0 in
  if units > 0 then begin
    let level, spare = water_level ~loads ~bins ~units in
    let spare = ref spare in
    Array.iteri
      (fun i v -> if v < level then given.(i) <- level - v)
      loads;
    Array.iteri
      (fun i v ->
        if !spare > 0 && v <= level then begin
          given.(i) <- given.(i) + 1;
          decr spare
        end)
      loads
  end;
  given

(* branch and bound: place items (largest first) into bins; prune when
   the current max load already reaches the incumbent; break bin
   symmetry by only allowing a new (empty) bin once per level *)
let exact_max_load ~weights ~bins =
  if bins < 1 then invalid_arg "Bfd.exact_max_load: bins must be >= 1";
  if Array.exists (fun w -> w < 0) weights then
    invalid_arg "Bfd.exact_max_load: negative weight";
  if Array.length weights > 20 then
    invalid_arg "Bfd.exact_max_load: too many items for exact search";
  let items = Array.copy weights in
  Array.sort (fun a b -> compare b a) items;
  let n = Array.length items in
  let loads = Array.make bins 0 in
  (* seed the incumbent with the heuristic *)
  let best = ref (max_load (pack ~weights ~bins)) in
  let rec place k current_max =
    Obs.incr exact_nodes_counter;
    if current_max >= !best then ()
    else if k = n then best := current_max
    else begin
      let seen_empty = ref false in
      for b = 0 to bins - 1 do
        let empty = loads.(b) = 0 in
        if (not empty) || not !seen_empty then begin
          if empty then seen_empty := true;
          loads.(b) <- loads.(b) + items.(k);
          place (k + 1) (max current_max loads.(b));
          loads.(b) <- loads.(b) - items.(k)
        end
      done
    end
  in
  place 0 0;
  !best

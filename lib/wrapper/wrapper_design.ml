module Core_def = Soctest_soc.Core_def

type t = {
  width : int;
  scan_in : int array;
  scan_out : int array;
  si : int;
  so : int;
  time : int;
}

let time_formula ~si ~so ~patterns =
  ((1 + max si so) * patterns) + min si so

(* The chains and terminal counts [Design_wrapper] packs, and the
   widest wrapper worth building: a wrapper chain carrying neither scan
   nor terminals is useless, so clamp every design to [useful] chains,
   each holding at least one cell. *)
type shape = {
  chains : int array;
  in_terminals : int;
  out_terminals : int;
  useful : int;
}

let shape (core : Core_def.t) =
  let chains = Array.of_list core.Core_def.scan_chains in
  let in_terminals = core.Core_def.inputs + core.Core_def.bidirs in
  let out_terminals = core.Core_def.outputs + core.Core_def.bidirs in
  {
    chains;
    in_terminals;
    out_terminals;
    useful = max 1 (Array.length chains + max in_terminals out_terminals);
  }

(* spread the terminals over packed scan loads and time the result *)
let of_loads (core : Core_def.t) s loads =
  let input_cells = Bfd.spread_units ~loads ~units:s.in_terminals in
  let output_cells = Bfd.spread_units ~loads ~units:s.out_terminals in
  let scan_in = Array.mapi (fun k load -> load + input_cells.(k)) loads in
  let scan_out = Array.mapi (fun k load -> load + output_cells.(k)) loads in
  let si = Array.fold_left max 0 scan_in in
  let so = Array.fold_left max 0 scan_out in
  {
    width = Array.length loads;
    scan_in;
    scan_out;
    si;
    so;
    time = time_formula ~si ~so ~patterns:core.Core_def.patterns;
  }

let design (core : Core_def.t) ~width =
  if width < 1 then invalid_arg "Wrapper_design.design: width must be >= 1";
  let s = shape core in
  let bins = min width s.useful in
  of_loads core s (Bfd.pack ~weights:s.chains ~bins).Bfd.loads

let testing_time core ~width = (design core ~width).time

let pp ppf w =
  Format.fprintf ppf "wrapper width=%d si=%d so=%d time=%d" w.width w.si
    w.so w.time

(* exact variant: optimal scan partition, then the same greedy terminal
   spread (optimal for unit weights) *)
let design_exact (core : Core_def.t) ~width =
  if width < 1 then
    invalid_arg "Wrapper_design.design_exact: width must be >= 1";
  let s = shape core in
  let chains = s.chains in
  if Array.length chains > 16 then design core ~width
  else begin
    let bins = min width s.useful in
    (* recover an optimal assignment: rerun the B&B but keep loads *)
    let target = Bfd.exact_max_load ~weights:chains ~bins in
    (* greedy reconstruction: place items largest-first, never letting a
       bin exceed [target]; guaranteed feasible since target is optimal
       ... except greedy order may paint itself into a corner, so search
       with backtracking (small n) *)
    let order = Array.init (Array.length chains) Fun.id in
    Array.sort (fun a b -> compare chains.(b) chains.(a)) order;
    let loads = Array.make bins 0 in
    let exception Found of int array in
    let rec place k =
      if k = Array.length order then raise (Found (Array.copy loads))
      else
        let item = chains.(order.(k)) in
        let seen_empty = ref false in
        for b = 0 to bins - 1 do
          let empty = loads.(b) = 0 in
          if ((not empty) || not !seen_empty) && loads.(b) + item <= target
          then begin
            if empty then seen_empty := true;
            loads.(b) <- loads.(b) + item;
            place (k + 1);
            loads.(b) <- loads.(b) - item
          end
        done
    in
    let loads = try place 0; Array.make bins 0 with Found l -> l in
    of_loads core s loads
  end

(* The whole staircase from one sort. BFD's loads depend only on the
   sorted weights, so the chains are sorted once and packed into one
   reused buffer. From [#chains] bins on, BFD puts each chain alone in
   the lowest empty bin: the loads are the sorted chains then zeros, and
   no pack runs. The longest scan-in/scan-out follows from the
   water-fill level without building the spread arrays. *)
let staircase (core : Core_def.t) ~wmax =
  if wmax < 1 then invalid_arg "Wrapper_design.staircase: wmax must be >= 1";
  let s = shape core in
  let sorted = s.chains in
  Array.sort (fun a b -> compare b a) sorted;
  let n = Array.length sorted in
  let top = min wmax s.useful in
  let loads = Array.make top 0 in
  let longest ~bins ~max_load units =
    let level, spare = Bfd.water_level ~loads ~bins ~units in
    let top_level = if spare > 0 then level + 1 else level in
    if top_level > max_load then top_level else max_load
  in
  let raw = Array.make wmax 0 in
  for bins = 1 to top do
    if bins < n then Bfd.pack_loads ~sorted ~loads ~bins
    else if bins = n then Array.blit sorted 0 loads 0 n;
    let max_load = ref 0 in
    for i = 0 to bins - 1 do
      if loads.(i) > !max_load then max_load := loads.(i)
    done;
    let si = longest ~bins ~max_load:!max_load s.in_terminals in
    let so = longest ~bins ~max_load:!max_load s.out_terminals in
    raw.(bins - 1) <- time_formula ~si ~so ~patterns:core.Core_def.patterns
  done;
  Array.fill raw top (wmax - top) raw.(top - 1);
  Bfd.note_packs (max 0 (min top (n - 1)));
  raw

module Core_def = Soctest_soc.Core_def
module Obs = Soctest_obs.Obs

type t = {
  core_id : int;
  wmax : int;
  raw : int array;  (** raw.(w-1) = Design_wrapper time at width w *)
  envelope : int array;  (** prefix minimum of [raw] *)
  effective : int array;  (** smallest width achieving [envelope.(w-1)] *)
  pareto : int list;  (** ascending Pareto-optimal widths *)
}

let computes_counter = Obs.counter "pareto.computes"

let compute core ~wmax =
  if wmax < 1 then invalid_arg "Pareto.compute: wmax must be >= 1";
  Obs.incr computes_counter;
  Obs.with_span ~cat:"wrapper" "pareto.compute"
    ~args:[ ("core", string_of_int core.Core_def.id) ]
  @@ fun () ->
  let raw = Wrapper_design.staircase core ~wmax in
  let envelope = Array.copy raw in
  let effective = Array.make wmax 1 in
  for w = 1 to wmax - 1 do
    if envelope.(w) < envelope.(w - 1) then effective.(w) <- w + 1
    else begin
      envelope.(w) <- envelope.(w - 1);
      effective.(w) <- effective.(w - 1)
    end
  done;
  let pareto = ref [] in
  for w = wmax downto 1 do
    if w = 1 || envelope.(w - 1) < envelope.(w - 2) then
      pareto := w :: !pareto
  done;
  { core_id = core.Core_def.id; wmax; raw; envelope; effective;
    pareto = !pareto }

let core_id t = t.core_id
let wmax t = t.wmax

let clamp t width =
  if width < 1 then invalid_arg "Pareto: width must be >= 1";
  min width t.wmax

let time t ~width = t.envelope.(clamp t width - 1)
let raw_time t ~width = t.raw.(clamp t width - 1)
let effective_width t ~width = t.effective.(clamp t width - 1)
let pareto_widths t = t.pareto

let highest_pareto t =
  match List.rev t.pareto with
  | w :: _ -> w
  | [] -> 1 (* unreachable: pareto always contains width 1 *)

let min_time t = t.envelope.(t.wmax - 1)

let rectangles t = List.map (fun w -> (w, time t ~width:w)) t.pareto

let preferred_width t ~percent ~delta =
  if percent < 0 then invalid_arg "Pareto.preferred_width: percent < 0";
  if delta < 0 then invalid_arg "Pareto.preferred_width: delta < 0";
  let target =
    min_time t + (min_time t * percent / 100)
  in
  let best =
    List.fold_left
      (fun best w ->
        let gap = abs (time t ~width:w - target) in
        match best with
        | Some (_, best_gap) when best_gap <= gap -> best
        | _ -> Some (w, gap))
      None t.pareto
  in
  let preferred = match best with Some (w, _) -> w | None -> 1 in
  let top = highest_pareto t in
  if top - preferred <= delta then top else preferred

let min_area t =
  List.fold_left
    (fun acc w -> min acc (w * time t ~width:w))
    max_int t.pareto

let pp ppf t =
  Format.fprintf ppf "@[<v>core %d Pareto staircase (wmax=%d):" t.core_id
    t.wmax;
  List.iter
    (fun w -> Format.fprintf ppf "@,w=%2d  T=%d" w (time t ~width:w))
    t.pareto;
  Format.fprintf ppf "@]"

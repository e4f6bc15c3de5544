type slice = { core : int; width : int; start : int; stop : int }

type t = { tam_width : int; slices : slice list }

let compare_slice a b =
  match compare a.start b.start with
  | 0 -> compare a.core b.core
  | c -> c

let make ~tam_width ~slices =
  if tam_width < 1 then invalid_arg "Schedule.make: tam_width must be >= 1";
  List.iter
    (fun s ->
      if s.width < 1 || s.start < 0 || s.stop <= s.start || s.core < 1 then
        invalid_arg
          (Printf.sprintf
             "Schedule.make: malformed slice core=%d w=%d [%d,%d)" s.core
             s.width s.start s.stop))
    slices;
  { tam_width; slices = List.sort compare_slice slices }

let empty ~tam_width = make ~tam_width ~slices:[]

let makespan t = List.fold_left (fun acc s -> max acc s.stop) 0 t.slices

let total_busy_area t =
  List.fold_left (fun acc s -> acc + (s.width * (s.stop - s.start))) 0
    t.slices

let idle_area t = (t.tam_width * makespan t) - total_busy_area t

let utilization t =
  let span = makespan t in
  if span = 0 then 0.
  else
    float_of_int (total_busy_area t) /. float_of_int (t.tam_width * span)

let cores t =
  List.map (fun s -> s.core) t.slices
  |> List.sort_uniq compare

(* One pass over the (start, core)-sorted slice list groups each core's
   slices in start order; the result replaces the per-core
   [List.filter] that stats/audit/post-processing used to repeat once
   per core (O(cores × slices)). *)
let index t =
  let by_core : (int, slice list ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun s ->
      match Hashtbl.find_opt by_core s.core with
      | Some cell -> cell := s :: !cell
      | None ->
        Hashtbl.add by_core s.core (ref [ s ]);
        order := s.core :: !order)
    t.slices;
  List.rev_map
    (fun core ->
      let cell = Hashtbl.find by_core core in
      (core, Array.of_list (List.rev !cell)))
    !order
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* [t.slices] is sorted by (start, core) by [make], and [t] is private, so
   the filtered list is sorted by start. [preemptions] and [core_finish]
   depend on that order; re-verify it here so a future constructor that
   forgets to sort fails loudly instead of silently miscounting gaps. *)
let slices_of_core t core =
  let ss = List.filter (fun s -> s.core = core) t.slices in
  let rec check = function
    | a :: (b :: _ as rest) ->
      if a.start > b.start then
        invalid_arg
          (Printf.sprintf
             "Schedule.slices_of_core: core %d slices unsorted ([%d,%d) \
              before [%d,%d))"
             core a.start a.stop b.start b.stop)
      else check rest
    | _ -> ()
  in
  check ss;
  ss

let core_start t core =
  match slices_of_core t core with [] -> None | s :: _ -> Some s.start

let core_finish t core =
  match slices_of_core t core with
  | [] -> None
  | ss -> Some (List.fold_left (fun acc s -> max acc s.stop) 0 ss)

(* A resumption that is back-to-back with the previous slice
   ([s.start = prev_stop]) is a merge artifact, not a real interruption:
   nothing stopped, so no preemption (and no si+so restart cost) is
   counted. Only a strict gap ([s.start > prev_stop]) counts. *)
let preemptions t core =
  let rec runs prev_stop count = function
    | [] -> count
    | s :: rest ->
      let count = if s.start > prev_stop then count + 1 else count in
      runs (max prev_stop s.stop) count rest
  in
  match slices_of_core t core with
  | [] -> 0
  | s :: rest -> runs s.stop 0 rest

let width_of_core t core =
  match slices_of_core t core with
  | [] -> None
  | s :: rest ->
    if List.exists (fun s' -> s'.width <> s.width) rest then
      invalid_arg
        (Printf.sprintf "Schedule.width_of_core: core %d changes width" core)
    else Some s.width

(* Event sweep over slice boundaries. The slices are already sorted by
   start, so the starts only need each run of equal start times put
   narrowest first (an insertion sort, linear on that input); the ends
   get one sort by stop. A merge of the two then visits every end at a
   timestamp before every start there, so a slice ending exactly when
   another starts is never counted twice. *)
let sweep t ~event ~group =
  let slices = Array.of_list t.slices in
  let n = Array.length slices in
  let before a b =
    let sa = slices.(a) and sb = slices.(b) in
    sa.start < sb.start
    || sa.start = sb.start
       && (sa.width < sb.width || (sa.width = sb.width && sa.core < sb.core))
  in
  let starts = Array.init n Fun.id in
  for k = 1 to n - 1 do
    let x = starts.(k) in
    let j = ref (k - 1) in
    while !j >= 0 && before x starts.(!j) do
      starts.(!j + 1) <- starts.(!j);
      decr j
    done;
    starts.(!j + 1) <- x
  done;
  let ends = Array.init n Fun.id in
  Array.sort (fun a b -> Int.compare slices.(a).stop slices.(b).stop) ends;
  let si = ref 0 and ei = ref 0 in
  while !ei < n do
    let now =
      let stop = slices.(ends.(!ei)).stop in
      if !si < n && slices.(starts.(!si)).start < stop then
        slices.(starts.(!si)).start
      else stop
    in
    while !ei < n && slices.(ends.(!ei)).stop = now do
      let i = ends.(!ei) in
      event i slices.(i) false;
      incr ei
    done;
    while !si < n && slices.(starts.(!si)).start = now do
      let i = starts.(!si) in
      event i slices.(i) true;
      incr si
    done;
    group now
  done

let peak_width t =
  let peak = ref 0 and used = ref 0 in
  sweep t
    ~event:(fun _ s starting ->
      used := if starting then !used + s.width else !used - s.width)
    ~group:(fun _ -> if !used > !peak then peak := !used);
  !peak

let active_at t time =
  List.filter (fun s -> s.start <= time && time < s.stop) t.slices

type violation =
  | Capacity_exceeded of { time : int; used : int }
  | Core_overlap of { core : int; time : int }

let check_capacity t =
  let violations = ref [] in
  let used = ref 0 in
  let running : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let count core = Option.value ~default:0 (Hashtbl.find_opt running core) in
  sweep t
    ~event:(fun _ s starting ->
      let n = count s.core in
      if starting then begin
        used := !used + s.width;
        if n > 0 then
          violations := Core_overlap { core = s.core; time = s.start }
                        :: !violations;
        Hashtbl.replace running s.core (n + 1)
      end
      else begin
        used := !used - s.width;
        Hashtbl.replace running s.core (n - 1)
      end)
    ~group:(fun time ->
      if !used > t.tam_width then
        violations := Capacity_exceeded { time; used = !used } :: !violations);
  List.rev !violations

let pp_violation ppf = function
  | Capacity_exceeded { time; used } ->
    Format.fprintf ppf "capacity exceeded at t=%d (%d wires in use)" time
      used
  | Core_overlap { core; time } ->
    Format.fprintf ppf "core %d scheduled twice at t=%d" core time

let pp ppf t =
  Format.fprintf ppf "@[<v>schedule W=%d makespan=%d util=%.1f%%"
    t.tam_width (makespan t) (100. *. utilization t);
  List.iter
    (fun s ->
      Format.fprintf ppf "@,core %2d: w=%2d [%d, %d)" s.core s.width
        s.start s.stop)
    t.slices;
  Format.fprintf ppf "@]"

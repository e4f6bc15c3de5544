module Soc_def = Soctest_soc.Soc_def
module Core_def = Soctest_soc.Core_def
module Schedule = Soctest_tam.Schedule
module Bitset = Soctest_tam.Bitset
module Obs = Soctest_obs.Obs

type running = { core : int; power : int }

(* [admissible] sits in the optimizer's innermost contention loop, so it
   gets a lock-free counter only. [validate] runs once per scheduler run
   (every grid point the optimizer computes) and keeps a span, so its
   cost shows up per call in traces. *)
let admissible_counter = Obs.counter "constraints.admissible_checks"
let validations_counter = Obs.counter "constraints.validations"

type reason =
  | Precedence_pending of int
  | Concurrency_clash of int
  | Power_exceeded of { budget : int; needed : int }
  | Bist_clash of int

let shares_bist soc a b =
  match
    ( (Soc_def.core soc a).Core_def.bist_engine,
      (Soc_def.core soc b).Core_def.bist_engine )
  with
  | Some ea, Some eb -> ea = eb
  | _ -> false

let admissible soc constraints ~completed ~running ~candidate =
  Obs.incr admissible_counter;
  let pending =
    List.find_opt
      (fun p -> not (completed p))
      (Constraint_def.predecessors constraints candidate)
  in
  match pending with
  | Some p -> Error (Precedence_pending p)
  | None -> (
    match
      List.find_opt
        (fun r -> Constraint_def.excluded constraints candidate r.core)
        running
    with
    | Some r -> Error (Concurrency_clash r.core)
    | None -> (
      let power_ok =
        match constraints.Constraint_def.power_limit with
        | None -> Ok ()
        | Some limit ->
          let used = List.fold_left (fun a r -> a + r.power) 0 running in
          let needed = (Soc_def.core soc candidate).Core_def.power in
          if used + needed > limit then
            Error (Power_exceeded { budget = limit - used; needed })
          else Ok ()
      in
      match power_ok with
      | Error _ as e -> e
      | Ok () -> (
        match
          List.find_opt (fun r -> shares_bist soc candidate r.core) running
        with
        | Some r -> Error (Bist_clash r.core)
        | None -> Ok ())))

(* Everything [admissible] and [validate] scan lists for — predecessors,
   exclusion pairs, BIST peers, per-core power — is fixed once the SOC
   and constraint set are known, so the optimizer builds this context
   once per solve and the per-candidate check becomes array loads and
   word ANDs. Core ids are the bit indices (universe [0 .. n], bit 0
   unused, [n] the larger of the two core counts), matching the
   scheduler's 1-based cores. *)
type ctx = {
  soc : Soc_def.t;
  constraints : Constraint_def.t;
  preds : int array array;
      (* preds.(j): predecessors of j, in [Constraint_def.predecessors]
         order (ascending, from the sorted pair list) *)
  excl : Bitset.t array; (* excl.(j): cores that may not run beside j *)
  bist : Bitset.t array; (* bist.(j): cores sharing j's BIST engine *)
  power : int array; (* power.(j): test power of core j *)
  peered : bool array; (* peered.(j): j has an exclusion or BIST peer *)
  power_limit : int option;
}

let context soc constraints =
  let n_soc = Soc_def.core_count soc in
  let n = max n_soc constraints.Constraint_def.core_count in
  let preds =
    Array.init (n + 1) (fun j ->
        if j = 0 then [||]
        else Array.of_list (Constraint_def.predecessors constraints j))
  in
  let excl = Array.init (n + 1) (fun _ -> Bitset.create (n + 1)) in
  List.iter
    (fun (a, b) ->
      Bitset.add excl.(a) b;
      Bitset.add excl.(b) a)
    constraints.Constraint_def.concurrency;
  let bist = Array.init (n + 1) (fun _ -> Bitset.create (n + 1)) in
  let engine =
    Array.init (n_soc + 1) (fun j ->
        if j = 0 then -1
        else
          Option.value ~default:(-1) (Soc_def.core soc j).Core_def.bist_engine)
  in
  (* [shares_bist], with the engine ids read once *)
  for a = 1 to n_soc do
    if engine.(a) >= 0 then
      for b = a + 1 to n_soc do
        if engine.(b) = engine.(a) then begin
          Bitset.add bist.(a) b;
          Bitset.add bist.(b) a
        end
      done
  done;
  let power =
    Array.init (n + 1) (fun j ->
        if j = 0 || j > n_soc then 0 else (Soc_def.core soc j).Core_def.power)
  in
  let peered =
    Array.init (n + 1) (fun j ->
        not (Bitset.is_empty excl.(j) && Bitset.is_empty bist.(j)))
  in
  { soc; constraints; preds; excl; bist; power; peered;
    power_limit = constraints.Constraint_def.power_limit }

(* Same checks, same order, same reason payloads as [admissible], but
   against a maintained running bitset and power total instead of a
   rebuilt list. [Bitset.first_common] returns the lowest-id running
   offender, which is what the list scan found too: the optimizer always
   materialized [running] in ascending core order. The differential
   tests in test_constraints hold the two implementations together. *)
let admissible_ctx ctx ~completed ~running ~running_power ~candidate =
  Obs.incr admissible_counter;
  let preds = ctx.preds.(candidate) in
  let rec first_pending k =
    if k >= Array.length preds then None
    else if not (completed preds.(k)) then Some preds.(k)
    else first_pending (k + 1)
  in
  match first_pending 0 with
  | Some p -> Error (Precedence_pending p)
  | None -> (
    match Bitset.first_common ctx.excl.(candidate) running with
    | Some r -> Error (Concurrency_clash r)
    | None -> (
      let power_ok =
        match ctx.power_limit with
        | None -> Ok ()
        | Some limit ->
          let needed = ctx.power.(candidate) in
          if running_power + needed > limit then
            Error (Power_exceeded { budget = limit - running_power; needed })
          else Ok ()
      in
      match power_ok with
      | Error _ as e -> e
      | Ok () -> (
        match Bitset.first_common ctx.bist.(candidate) running with
        | Some r -> Error (Bist_clash r)
        | None -> Ok ())))

type violation =
  | Capacity of Schedule.violation
  | Precedence_violated of { before : int; after : int }
  | Concurrency_violated of { a : int; b : int; time : int }
  | Power_violated of { time : int; power : int; limit : int }
  | Bist_violated of { a : int; b : int; engine : int; time : int }
  | Preemptions_exceeded of { core : int; count : int; limit : int }
  | Width_above_total of { core : int; width : int }
  | Width_changed of { core : int; widths : int list }
  | Unknown_core of { core : int }

(* Position of [x] in the ascending array [a], or [-1]. *)
let rank_of a x =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let y = a.(mid) in
      if y = x then mid else if y < x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

(* One pass over the slices for the per-core facts, then one
   [Schedule.sweep] over the boundary events for everything that depends
   on what runs at the same time. At a slice's start the active set holds
   exactly the slices it overlaps that started earlier (ends go before
   starts at equal times), so capacity, core overlap, exclusion and BIST
   pairs and the power total are all read off that set; an unconstrained
   core skips the pair scan. Slice core ids outside the SOC are reported
   as [Unknown_core] and kept out of every SOC-dereferencing check.

   The result is the list the straightforward per-check formulation
   gives, element for element: capacity in sweep order, then unknown
   cores, widths above the TAM, width changes, precedence, pairs (last
   slice pair first, BIST before exclusion within a pair), power and
   preemptions. The test tree keeps that formulation as the oracle. *)
let validate_ctx ctx (sched : Schedule.t) =
  Obs.with_span ~cat:"constraints" "conflict.validate" @@ fun () ->
  Obs.incr validations_counter;
  let constraints = ctx.constraints in
  let n_soc = Soc_def.core_count ctx.soc in
  let known core = core >= 1 && core <= n_soc in
  let slices = Array.of_list sched.Schedule.slices in
  (* Per-core state is indexed by rank: SOC core [c] is rank [c - 1], and
     the rare rogue ids follow in ascending order, so ranks ascend with
     core ids. *)
  let rogue =
    List.filter_map
      (fun (s : Schedule.slice) ->
        if known s.Schedule.core then None else Some s.Schedule.core)
      sched.Schedule.slices
    |> List.sort_uniq Int.compare |> Array.of_list
  in
  let rank_of_core c =
    if known c then c - 1
    else
      let r = rank_of rogue c in
      if r < 0 then -1 else n_soc + r
  in
  let core_of r = if r < n_soc then r + 1 else rogue.(r - n_soc) in
  let rank = Array.map (fun s -> rank_of_core s.Schedule.core) slices in
  (* per core: first start ([-1] = absent), finish, first width, whether
     the width ever changes, and strict gaps between its runs *)
  let k = n_soc + Array.length rogue in
  let start = Array.make k (-1) and finish = Array.make k 0 in
  let width = Array.make k 0 and changed = Array.make k false in
  let gaps = Array.make k 0 in
  Array.iteri
    (fun i (s : Schedule.slice) ->
      let r = rank.(i) in
      if start.(r) < 0 then begin
        start.(r) <- s.Schedule.start;
        finish.(r) <- s.Schedule.stop;
        width.(r) <- s.Schedule.width
      end
      else begin
        if s.Schedule.width <> width.(r) then changed.(r) <- true;
        if s.Schedule.start > finish.(r) then gaps.(r) <- gaps.(r) + 1;
        if s.Schedule.stop > finish.(r) then finish.(r) <- s.Schedule.stop
      end)
    slices;
  let used = ref 0 and power = ref 0 in
  let running = Array.make k 0 in
  (* SOC cores with a slice running, to skip the pair scan when none of
     them is a peer *)
  let running_cores = Bitset.create (Array.length ctx.power) in
  let active = Array.make (Array.length slices) 0 and n_active = ref 0 in
  let slot = Array.make (Array.length slices) 0 in
  let capacity = ref [] and pairs = ref [] and power_over = ref [] in
  Schedule.sweep sched
    ~event:(fun i (s : Schedule.slice) starting ->
      let c = s.Schedule.core and r = rank.(i) in
      if starting then begin
        used := !used + s.Schedule.width;
        if running.(r) > 0 then
          capacity :=
            Capacity (Schedule.Core_overlap { core = c; time = s.Schedule.start })
            :: !capacity;
        running.(r) <- running.(r) + 1;
        if known c then begin
          power := !power + ctx.power.(c);
          let excl = ctx.excl.(c) and bist = ctx.bist.(c) in
          if
            ctx.peered.(c)
            && not
                 (Bitset.disjoint excl running_cores
                 && Bitset.disjoint bist running_cores)
          then
            for m = 0 to !n_active - 1 do
              let j = active.(m) in
              let c' = slices.(j).Schedule.core in
              let clash = c' <> c && Bitset.mem excl c'
              and shared = c' <> c && Bitset.mem bist c' in
              if clash || shared then
                pairs :=
                  (min i j, max i j, min c c', max c c', s.Schedule.start,
                   clash, shared)
                  :: !pairs
            done;
          active.(!n_active) <- i;
          slot.(i) <- !n_active;
          incr n_active;
          Bitset.add running_cores c
        end
      end
      else begin
        used := !used - s.Schedule.width;
        running.(r) <- running.(r) - 1;
        if known c then begin
          power := !power - ctx.power.(c);
          if running.(r) = 0 then Bitset.remove running_cores c;
          decr n_active;
          let last = active.(!n_active) in
          active.(slot.(i)) <- last;
          slot.(last) <- slot.(i)
        end
      end)
    ~group:(fun time ->
      if !used > sched.Schedule.tam_width then
        capacity :=
          Capacity (Schedule.Capacity_exceeded { time; used = !used })
          :: !capacity;
      match ctx.power_limit with
      | Some limit when !power > limit ->
        power_over := Power_violated { time; power = !power; limit }
                      :: !power_over
      | _ -> ());
  (* [f] over the cores present, ascending *)
  let per_core f =
    let acc = ref [] in
    for r = k - 1 downto 0 do
      if start.(r) >= 0 then
        match f r (core_of r) with Some v -> acc := v :: !acc | None -> ()
    done;
    !acc
  in
  let unknown =
    Array.to_list (Array.map (fun core -> Unknown_core { core }) rogue)
  in
  let above =
    List.filter_map
      (fun (s : Schedule.slice) ->
        if s.Schedule.width > sched.Schedule.tam_width then
          Some
            (Width_above_total
               { core = s.Schedule.core; width = s.Schedule.width })
        else None)
      sched.Schedule.slices
  in
  let width_changes =
    per_core (fun r core ->
        if not changed.(r) then None
        else
          let widths =
            List.filter_map
              (fun (s : Schedule.slice) ->
                if s.Schedule.core = core then Some s.Schedule.width else None)
              sched.Schedule.slices
            |> List.sort_uniq Int.compare
          in
          Some (Width_changed { core; widths }))
  in
  let precedence =
    List.filter_map
      (fun (before, after) ->
        let b = rank_of_core before and a = rank_of_core after in
        let started r = r >= 0 && start.(r) >= 0 in
        if started a && ((not (started b)) || start.(a) < finish.(b)) then
          (* a successor that starts before its predecessor finishes, or
             runs while the predecessor never does *)
          Some (Precedence_violated { before; after })
        else None)
      constraints.Constraint_def.precedence
  in
  let pairwise =
    List.sort
      (fun (i, j, _, _, _, _, _) (i', j', _, _, _, _, _) ->
        if i <> i' then Int.compare i' i else Int.compare j' j)
      !pairs
    |> List.concat_map (fun (_, _, a, b, time, clash, shared) ->
           let engine =
             Option.value ~default:0 (Soc_def.core ctx.soc a).Core_def.bist_engine
           in
           (if shared then [ Bist_violated { a; b; engine; time } ] else [])
           @ if clash then [ Concurrency_violated { a; b; time } ] else [])
  in
  let preemptions =
    per_core (fun r core ->
        if core < 1 || core > constraints.Constraint_def.core_count then None
        else
          let limit = Constraint_def.max_preemptions_of constraints core in
          if gaps.(r) > limit then
            Some (Preemptions_exceeded { core; count = gaps.(r); limit })
          else None)
  in
  List.rev !capacity @ unknown @ above @ width_changes @ precedence
  @ pairwise @ List.rev !power_over @ preemptions

let validate soc constraints sched = validate_ctx (context soc constraints) sched

let pp_reason ppf = function
  | Precedence_pending p ->
    Format.fprintf ppf "predecessor %d not completed" p
  | Concurrency_clash c -> Format.fprintf ppf "excluded core %d running" c
  | Power_exceeded { budget; needed } ->
    Format.fprintf ppf "power budget %d < needed %d" budget needed
  | Bist_clash c ->
    Format.fprintf ppf "BIST engine shared with running core %d" c

let pp_violation ppf = function
  | Capacity v -> Schedule.pp_violation ppf v
  | Precedence_violated { before; after } ->
    Format.fprintf ppf "precedence %d < %d violated" before after
  | Concurrency_violated { a; b; time } ->
    Format.fprintf ppf "concurrency %d # %d violated at t=%d" a b time
  | Power_violated { time; power; limit } ->
    Format.fprintf ppf "power %d > limit %d at t=%d" power limit time
  | Bist_violated { a; b; engine; time } ->
    Format.fprintf ppf "BIST engine %d shared by %d and %d at t=%d" engine
      a b time
  | Preemptions_exceeded { core; count; limit } ->
    Format.fprintf ppf "core %d preempted %d times (limit %d)" core count
      limit
  | Width_above_total { core; width } ->
    Format.fprintf ppf "core %d width %d exceeds the TAM" core width
  | Width_changed { core; widths } ->
    Format.fprintf ppf "core %d changes width across slices (%s)" core
      (String.concat ", " (List.map string_of_int widths))
  | Unknown_core { core } ->
    Format.fprintf ppf "slice refers to core %d, which the SOC does not define"
      core

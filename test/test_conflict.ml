(* Tests for the Conflict predicate (paper Fig. 7) and the whole-schedule
   validator. *)

module C = Soctest_constraints.Constraint_def
module Conflict = Soctest_constraints.Conflict
module S = Soctest_tam.Schedule
module Soc_def = Soctest_soc.Soc_def

let mk = Test_helpers.core

let soc =
  Soc_def.make ~name:"t"
    ~cores:
      [
        mk ~power:10 1 "a";
        mk ~power:20 ~bist:1 2 "b";
        mk ~power:30 ~bist:1 3 "c";
        mk ~power:40 4 "d";
      ]
    ()

let never_completed _ = false
let run id power = { Conflict.core = id; power }

let test_admissible_clean () =
  let c = C.unconstrained ~core_count:4 in
  match
    Conflict.admissible soc c ~completed:never_completed ~running:[]
      ~candidate:1
  with
  | Ok () -> ()
  | Error r -> Alcotest.failf "unexpected: %a" Conflict.pp_reason r

let test_precedence_pending () =
  let c = C.make ~core_count:4 ~precedence:[ (2, 1) ] () in
  (match
     Conflict.admissible soc c ~completed:never_completed ~running:[]
       ~candidate:1
   with
  | Error (Conflict.Precedence_pending 2) -> ()
  | _ -> Alcotest.fail "expected Precedence_pending 2");
  (* once the predecessor completed, the candidate is admissible *)
  match
    Conflict.admissible soc c
      ~completed:(fun id -> id = 2)
      ~running:[] ~candidate:1
  with
  | Ok () -> ()
  | Error r -> Alcotest.failf "unexpected: %a" Conflict.pp_reason r

let test_concurrency_clash () =
  let c = C.make ~core_count:4 ~concurrency:[ (1, 4) ] () in
  match
    Conflict.admissible soc c ~completed:never_completed
      ~running:[ run 4 40 ] ~candidate:1
  with
  | Error (Conflict.Concurrency_clash 4) -> ()
  | _ -> Alcotest.fail "expected Concurrency_clash 4"

let test_power_exceeded () =
  let c = C.make ~core_count:4 ~power_limit:45 () in
  (match
     Conflict.admissible soc c ~completed:never_completed
       ~running:[ run 4 40 ] ~candidate:1
   with
  | Error (Conflict.Power_exceeded { budget = 5; needed = 10 }) -> ()
  | _ -> Alcotest.fail "expected Power_exceeded");
  (* exactly at the limit is fine *)
  let c = C.make ~core_count:4 ~power_limit:50 () in
  match
    Conflict.admissible soc c ~completed:never_completed
      ~running:[ run 4 40 ] ~candidate:1
  with
  | Ok () -> ()
  | Error r -> Alcotest.failf "unexpected: %a" Conflict.pp_reason r

let test_bist_clash () =
  let c = C.unconstrained ~core_count:4 in
  match
    Conflict.admissible soc c ~completed:never_completed
      ~running:[ run 2 20 ] ~candidate:3
  with
  | Error (Conflict.Bist_clash 2) -> ()
  | _ -> Alcotest.fail "expected Bist_clash 2"

let test_check_order_precedence_first () =
  (* precedence is reported before power, matching Fig. 7's order *)
  let c =
    C.make ~core_count:4 ~precedence:[ (2, 1) ] ~power_limit:45 ()
  in
  match
    Conflict.admissible soc c ~completed:never_completed
      ~running:[ run 4 40 ] ~candidate:1
  with
  | Error (Conflict.Precedence_pending _) -> ()
  | _ -> Alcotest.fail "expected precedence to be checked first"

(* -------------- validate -------------- *)

let slice core width start stop = { S.core; width; start; stop }

let has_violation pred vs = List.exists pred vs

let test_validate_clean () =
  let c = C.unconstrained ~core_count:4 in
  let sched =
    S.make ~tam_width:8 ~slices:[ slice 1 4 0 10; slice 4 4 0 10 ]
  in
  Alcotest.(check int) "no violations" 0
    (List.length (Conflict.validate soc c sched))

let test_validate_precedence () =
  let c = C.make ~core_count:4 ~precedence:[ (1, 4) ] () in
  let sched =
    S.make ~tam_width:8 ~slices:[ slice 1 4 5 10; slice 4 4 0 10 ]
  in
  Alcotest.(check bool) "violation found" true
    (has_violation
       (function
         | Conflict.Precedence_violated { before = 1; after = 4 } -> true
         | _ -> false)
       (Conflict.validate soc c sched))

let test_validate_precedence_missing_predecessor () =
  let c = C.make ~core_count:4 ~precedence:[ (1, 4) ] () in
  let sched = S.make ~tam_width:8 ~slices:[ slice 4 4 0 10 ] in
  Alcotest.(check bool) "missing predecessor flagged" true
    (has_violation
       (function Conflict.Precedence_violated _ -> true | _ -> false)
       (Conflict.validate soc c sched))

let test_validate_concurrency () =
  let c = C.make ~core_count:4 ~concurrency:[ (1, 4) ] () in
  let sched =
    S.make ~tam_width:8 ~slices:[ slice 1 4 0 10; slice 4 4 5 15 ]
  in
  Alcotest.(check bool) "violation found" true
    (has_violation
       (function
         | Conflict.Concurrency_violated { a = 1; b = 4; _ } -> true
         | _ -> false)
       (Conflict.validate soc c sched));
  (* sequential is fine *)
  let ok = S.make ~tam_width:8 ~slices:[ slice 1 4 0 5; slice 4 4 5 15 ] in
  Alcotest.(check int) "sequential ok" 0
    (List.length (Conflict.validate soc c ok))

let test_validate_power () =
  let c = C.make ~core_count:4 ~power_limit:45 () in
  let sched =
    S.make ~tam_width:8 ~slices:[ slice 2 2 0 10; slice 3 2 0 10 ]
  in
  (* 20 + 30 = 50 > 45; also cores 2 and 3 share a BIST engine *)
  let vs = Conflict.validate soc c sched in
  Alcotest.(check bool) "power violation" true
    (has_violation
       (function
         | Conflict.Power_violated { power = 50; limit = 45; _ } -> true
         | _ -> false)
       vs);
  Alcotest.(check bool) "bist violation" true
    (has_violation
       (function
         | Conflict.Bist_violated { engine = 1; _ } -> true | _ -> false)
       vs)

let test_validate_capacity () =
  let c = C.unconstrained ~core_count:4 in
  let sched =
    S.make ~tam_width:4 ~slices:[ slice 1 3 0 10; slice 4 3 0 10 ]
  in
  Alcotest.(check bool) "capacity violation" true
    (has_violation
       (function Conflict.Capacity _ -> true | _ -> false)
       (Conflict.validate soc c sched))

let test_validate_preemptions () =
  let c = C.unconstrained ~core_count:4 in
  let sched =
    S.make ~tam_width:4 ~slices:[ slice 1 2 0 5; slice 1 2 10 15 ]
  in
  Alcotest.(check bool) "preemption without budget" true
    (has_violation
       (function
         | Conflict.Preemptions_exceeded { core = 1; count = 1; limit = 0 } ->
           true
         | _ -> false)
       (Conflict.validate soc c sched));
  let c = C.make ~core_count:4 ~max_preemptions:[ (1, 1) ] () in
  Alcotest.(check int) "within budget" 0
    (List.length (Conflict.validate soc c sched))

let test_pp_smoke () =
  let strings =
    [
      Format.asprintf "%a" Conflict.pp_reason (Conflict.Precedence_pending 3);
      Format.asprintf "%a" Conflict.pp_reason (Conflict.Concurrency_clash 2);
      Format.asprintf "%a" Conflict.pp_reason
        (Conflict.Power_exceeded { budget = 1; needed = 2 });
      Format.asprintf "%a" Conflict.pp_reason (Conflict.Bist_clash 9);
      Format.asprintf "%a" Conflict.pp_violation
        (Conflict.Precedence_violated { before = 1; after = 2 });
      Format.asprintf "%a" Conflict.pp_violation
        (Conflict.Power_violated { time = 3; power = 9; limit = 5 });
    ]
  in
  List.iter
    (fun s -> Alcotest.(check bool) "non-empty" true (String.length s > 0))
    strings

(* ---------------- sweep = per-check oracle ---------------- *)

module Ref = Test_helpers.Ref_validate

(* Random SOCs with powers and shared BIST engines, constraint sets of
   every kind (core counts one below, equal to or one above the SOC's),
   and slice soups that break every rule: rogue core ids past the SOC,
   widths above W, same-core overlaps, width changes and gaps. Times are
   multiples of 5 so ends and starts often coincide. *)
let gen_case =
  QCheck.Gen.(
    let* n = int_range 1 7 in
    let* cores =
      flatten_l
        (List.init n (fun k ->
             let* power = int_range 1 20 in
             let* bist = opt ~ratio:0.4 (int_range 1 2) in
             return (mk ~power ?bist (k + 1) (Printf.sprintf "c%d" (k + 1)))))
    in
    let soc = Soc_def.make ~name:"sweep" ~cores () in
    let* core_count = int_range (max 1 (n - 1)) (n + 1) in
    let pair =
      let* a = int_range 1 core_count in
      let* b = int_range 1 core_count in
      return (min a b, max a b)
    in
    let* precedence = list_size (int_range 0 4) pair in
    let precedence = List.filter (fun (a, b) -> a < b) precedence in
    let* concurrency = list_size (int_range 0 4) pair in
    let concurrency = List.filter (fun (a, b) -> a < b) concurrency in
    let* power_limit = opt (int_range 1 60) in
    let* budgets =
      list_repeat core_count (int_range 0 2)
    in
    let constraints =
      C.make ~core_count ~precedence ~concurrency ?power_limit
        ~max_preemptions:(List.mapi (fun k b -> (k + 1, b)) budgets)
        ()
    in
    let* tam_width = int_range 1 12 in
    let* slices =
      list_size (int_range 0 14)
        (let* core = int_range 1 (n + 2) in
         let* width = int_range 1 (tam_width + 2) in
         let* start = int_range 0 12 in
         let* len = int_range 1 6 in
         return
           { S.core; width; start = 5 * start; stop = 5 * (start + len) })
    in
    return (soc, constraints, S.make ~tam_width ~slices))

let arb_case =
  QCheck.make gen_case ~print:(fun (soc, c, sched) ->
      Format.asprintf "%a@.%a@.%a" Soc_def.pp soc C.pp c S.pp sched)

let show vs =
  String.concat "; " (List.map (Format.asprintf "%a" Conflict.pp_violation) vs)

let prop_validate_is_oracle =
  Test_helpers.qtest "validate = per-check oracle" ~count:2000 arb_case
    (fun (soc, c, sched) ->
      let got = Conflict.validate soc c sched
      and want = Ref.validate soc c sched in
      got = want
      || QCheck.Test.fail_reportf "sweep: [%s]@.oracle: [%s]" (show got)
           (show want))

let prop_capacity_is_oracle =
  Test_helpers.qtest "check_capacity and peak_width = oracle" ~count:2000
    arb_case (fun (_, _, sched) ->
      S.check_capacity sched = Ref.check_capacity sched
      && S.peak_width sched = Ref.peak_width sched)

(* Boundary cases the random soup can miss: a slice ending exactly when
   a clashing one starts is no overlap, and the same pair one cycle
   earlier is. *)
let test_sweep_touching_boundaries () =
  let c = C.make ~core_count:4 ~concurrency:[ (1, 4) ] ~power_limit:80 () in
  let slice core width start stop = { S.core; width; start; stop } in
  let touching =
    S.make ~tam_width:4
      ~slices:
        [ slice 1 2 0 10; slice 4 2 10 20; slice 2 2 0 10; slice 3 2 10 20 ]
  in
  Alcotest.(check int) "touching slices never clash" 0
    (List.length (Conflict.validate soc c touching));
  let overlapping =
    S.make ~tam_width:4
      ~slices:
        [ slice 1 2 0 11; slice 4 2 10 20; slice 2 2 0 11; slice 3 2 10 20 ]
  in
  let got = Conflict.validate soc c overlapping in
  Alcotest.(check string) "overlap by one cycle = oracle"
    (show (Ref.validate soc c overlapping))
    (show got);
  Alcotest.(check bool) "and it is caught" true (got <> [])

let () =
  Alcotest.run "conflict"
    [
      ( "admissible",
        [
          Alcotest.test_case "clean" `Quick test_admissible_clean;
          Alcotest.test_case "precedence pending" `Quick
            test_precedence_pending;
          Alcotest.test_case "concurrency clash" `Quick
            test_concurrency_clash;
          Alcotest.test_case "power exceeded" `Quick test_power_exceeded;
          Alcotest.test_case "bist clash" `Quick test_bist_clash;
          Alcotest.test_case "check order" `Quick
            test_check_order_precedence_first;
        ] );
      ( "validate",
        [
          Alcotest.test_case "clean schedule" `Quick test_validate_clean;
          Alcotest.test_case "precedence" `Quick test_validate_precedence;
          Alcotest.test_case "missing predecessor" `Quick
            test_validate_precedence_missing_predecessor;
          Alcotest.test_case "concurrency" `Quick test_validate_concurrency;
          Alcotest.test_case "power and bist" `Quick test_validate_power;
          Alcotest.test_case "capacity" `Quick test_validate_capacity;
          Alcotest.test_case "preemptions" `Quick test_validate_preemptions;
          Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
        ] );
      ( "sweep",
        [
          prop_validate_is_oracle;
          prop_capacity_is_oracle;
          Alcotest.test_case "touching boundaries" `Quick
            test_sweep_touching_boundaries;
        ] );
    ]

(* Tests for the Flow facade and the scheduler-state module. *)

module Flow = Soctest_engine.Flow
module O = Soctest_core.Optimizer
module Volume = Soctest_core.Volume
module Cost = Soctest_core.Cost
module C = Soctest_constraints.Constraint_def
module Soc_def = Soctest_soc.Soc_def
module Core_def = Soctest_soc.Core_def
module Sched_state = Soctest_core.Sched_state
module S = Soctest_tam.Schedule

let mk = Test_helpers.core

let test_solve_p1 () =
  let soc = Test_helpers.mini4 () in
  (* no ~constraints = Problem 1 *)
  let r = Flow.solve soc ~tam_width:8 in
  Test_helpers.check_complete soc r.O.schedule;
  (* P1 is unconstrained and non-preemptive *)
  Alcotest.(check (list (pair int int))) "no preemptions" []
    r.O.preemptions

let test_solve_p2_equals_optimizer () =
  let soc = Test_helpers.mini4 () in
  let constraints = C.of_soc soc () in
  let a = Flow.solve ~constraints soc ~tam_width:8 in
  let b =
    O.run_request (O.prepare soc) (O.request ~tam_width:8 ~constraints ())
  in
  Alcotest.(check int) "same result" b.O.testing_time a.O.testing_time

let test_solve_p3 () =
  let soc = Test_helpers.mini4 () in
  let { Flow.points; evaluations } =
    Flow.solve_sweep soc ~widths:[ 2; 4; 8 ] ~alphas:[ 0.0; 1.0 ]
  in
  Alcotest.(check int) "three points" 3 (List.length points);
  Alcotest.(check int) "two evaluations" 2 (List.length evaluations);
  let e0 = List.hd evaluations and e1 = List.nth evaluations 1 in
  Alcotest.(check int) "alpha=0 -> Vmin width"
    (Volume.min_volume_point points).Volume.width
    e0.Cost.effective_width;
  Alcotest.(check int) "alpha=1 -> Tmin width"
    (Volume.min_time_point points).Volume.width
    e1.Cost.effective_width

let test_solve_p3_with_constraints () =
  let soc = Test_helpers.mini4 () in
  let constraints = C.make ~core_count:4 ~precedence:[ (1, 2) ] () in
  let { Flow.points; _ } =
    Flow.solve_sweep ~constraints soc ~widths:[ 4; 8 ] ~alphas:[ 0.5 ]
  in
  Alcotest.(check int) "two points" 2 (List.length points)

let test_default_power_limit () =
  let soc =
    Soc_def.make ~name:"p"
      ~cores:[ mk ~power:100 1 "a"; mk ~power:40 2 "b" ]
      ()
  in
  Alcotest.(check int) "1.5x max" 150 (Flow.default_power_limit soc)

let test_preemption_budget () =
  let soc = Test_helpers.d695 () in
  let budget = Flow.preemption_budget soc ~limit:2 in
  (* only above-median-volume cores are budgeted *)
  Alcotest.(check bool) "some but not all cores" true
    (List.length budget >= 3
    && List.length budget < Soc_def.core_count soc);
  List.iter
    (fun (id, l) ->
      Alcotest.(check int) (Printf.sprintf "core %d limit" id) 2 l)
    budget;
  (* the biggest core is always included *)
  let biggest =
    Array.to_list soc.Soc_def.cores
    |> List.fold_left
         (fun (best_id, best_v) c ->
           let v = Core_def.test_data_bits c in
           if v > best_v then (c.Core_def.id, v) else (best_id, best_v))
         (0, 0)
    |> fst
  in
  Alcotest.(check bool) "biggest core budgeted" true
    (List.mem_assoc biggest budget);
  match Flow.preemption_budget soc ~limit:(-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected limit rejection"

(* ---------------- Sched_state ---------------- *)

let state () =
  Sched_state.create ~tam_width:8
    ~prefs:[| (4, 100, 0); (2, 50, 0) |]
    ~max_preempts:[| 0; 2 |]

let test_state_create () =
  let st = state () in
  Alcotest.(check int) "w_avail" 8 st.Sched_state.w_avail;
  Alcotest.(check int) "remaining" 2 st.Sched_state.remaining;
  Alcotest.(check bool) "incomplete" true (Sched_state.incomplete_exists st);
  let c1 = Sched_state.core st 1 in
  Alcotest.(check int) "pref" 4 c1.Sched_state.w_pref;
  Alcotest.(check int) "time" 100 c1.Sched_state.time_remaining;
  Alcotest.(check int) "budget" 2 (Sched_state.core st 2).Sched_state.max_preempts;
  Alcotest.(check (list int)) "nothing running" []
    (Sched_state.running_cores st)

let test_state_slice_recording_and_merge () =
  let st = state () in
  let c1 = Sched_state.core st 1 in
  c1.Sched_state.w_assigned <- 4;
  c1.Sched_state.assign_start <- 0;
  Sched_state.record_slice st 1 ~stop:10;
  (* contiguous continuation at the same width merges *)
  c1.Sched_state.assign_start <- 10;
  Sched_state.record_slice st 1 ~stop:25;
  let sched = Sched_state.to_schedule st in
  Alcotest.(check int) "merged into one slice" 1
    (List.length sched.S.slices);
  Alcotest.(check int) "span" 25 (S.makespan sched);
  (* zero-length runs are dropped *)
  c1.Sched_state.assign_start <- 25;
  Sched_state.record_slice st 1 ~stop:25;
  Alcotest.(check int) "still one slice" 1
    (List.length (Sched_state.to_schedule st).S.slices)

let test_state_gap_not_merged () =
  let st = state () in
  let c1 = Sched_state.core st 1 in
  c1.Sched_state.w_assigned <- 4;
  c1.Sched_state.assign_start <- 0;
  Sched_state.record_slice st 1 ~stop:10;
  c1.Sched_state.assign_start <- 15;
  Sched_state.record_slice st 1 ~stop:20;
  let sched = Sched_state.to_schedule st in
  Alcotest.(check int) "two slices" 2 (List.length sched.S.slices);
  Alcotest.(check int) "one preemption" 1 (S.preemptions sched 1)

let test_state_create_mismatch () =
  match
    Sched_state.create ~tam_width:4 ~prefs:[| (1, 1, 0) |]
      ~max_preempts:[| 0; 0 |]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected length mismatch rejection"

let test_state_pp_smoke () =
  let s = Format.asprintf "%a" Sched_state.pp (state ()) in
  Alcotest.(check bool) "mentions cores" true
    (Test_helpers.contains_substring s "core  1"
    || Test_helpers.contains_substring s "core 1")

let () =
  Alcotest.run "flow"
    [
      ( "flow",
        [
          Alcotest.test_case "solve_p1" `Quick test_solve_p1;
          Alcotest.test_case "solve_p2" `Quick test_solve_p2_equals_optimizer;
          Alcotest.test_case "solve_p3" `Quick test_solve_p3;
          Alcotest.test_case "solve_p3 constrained" `Quick
            test_solve_p3_with_constraints;
          Alcotest.test_case "default power limit" `Quick
            test_default_power_limit;
          Alcotest.test_case "preemption budget" `Quick
            test_preemption_budget;
        ] );
      ( "sched_state",
        [
          Alcotest.test_case "create" `Quick test_state_create;
          Alcotest.test_case "slice merge" `Quick
            test_state_slice_recording_and_merge;
          Alcotest.test_case "gap not merged" `Quick test_state_gap_not_merged;
          Alcotest.test_case "create mismatch" `Quick
            test_state_create_mismatch;
          Alcotest.test_case "pp smoke" `Quick test_state_pp_smoke;
        ] );
    ]

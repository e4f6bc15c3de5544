(* Tests for TAM_schedule_optimizer: completeness, validity, constraint
   compliance, preemption accounting, parameter handling. *)

module Soc_def = Soctest_soc.Soc_def
module Core_def = Soctest_soc.Core_def
module C = Soctest_constraints.Constraint_def
module Conflict = Soctest_constraints.Conflict
module S = Soctest_tam.Schedule
module O = Soctest_core.Optimizer
module LB = Soctest_core.Lower_bound
module Flow = Soctest_engine.Flow

let mk = Test_helpers.core

let run ?params soc constraints tam_width =
  O.run_request (O.prepare soc) (O.request ?params ~tam_width ~constraints ())

let test_single_core () =
  let soc = Soc_def.make ~name:"one" ~cores:[ mk 1 "a" ] () in
  let r = run soc (C.unconstrained ~core_count:1) 4 in
  Test_helpers.check_complete soc r.O.schedule;
  let p = Soctest_wrapper.Pareto.compute (Soc_def.core soc 1) ~wmax:64 in
  Alcotest.(check int) "time is the core's own time at <=4 wires"
    (Soctest_wrapper.Pareto.time p ~width:4)
    r.O.testing_time

let test_mini4_complete_and_valid () =
  let soc = Test_helpers.mini4 () in
  let constraints = C.of_soc soc () in
  List.iter
    (fun w ->
      let r = run soc constraints w in
      Test_helpers.check_complete soc r.O.schedule;
      Test_helpers.check_valid_schedule soc constraints r.O.schedule;
      Alcotest.(check bool) "time >= LB" true
        (r.O.testing_time >= LB.compute_soc soc ~tam_width:w ()))
    [ 1; 2; 3; 5; 8; 16; 40 ]

let test_d695_all_widths () =
  let soc = Test_helpers.d695 () in
  let constraints = Test_helpers.unconstrained soc in
  let prepared = O.prepare soc in
  List.iter
    (fun w ->
      let r =
        O.run prepared ~tam_width:w ~constraints ~params:O.default_params
      in
      Test_helpers.check_complete soc r.O.schedule;
      Test_helpers.check_valid_schedule soc constraints r.O.schedule;
      let lb = LB.compute prepared ~tam_width:w in
      Alcotest.(check bool)
        (Printf.sprintf "W=%d: LB %d <= T %d <= 3*LB" w lb r.O.testing_time)
        true
        (r.O.testing_time >= lb && r.O.testing_time <= 3 * lb))
    [ 8; 16; 24; 32; 48; 64 ]

let test_non_preemptive_has_no_gaps () =
  let soc = Test_helpers.d695 () in
  let constraints = Test_helpers.unconstrained soc in
  List.iter
    (fun w ->
      let r = run soc constraints w in
      List.iter
        (fun id ->
          Alcotest.(check int)
            (Printf.sprintf "core %d preemptions at W=%d" id w)
            0
            (S.preemptions r.O.schedule id))
        (S.cores r.O.schedule))
    [ 16; 32; 64 ]

let test_preemption_budget_respected () =
  let soc = Test_helpers.d695 () in
  let budget = Flow.preemption_budget soc ~limit:2 in
  let constraints =
    C.make ~core_count:(Soc_def.core_count soc) ~max_preemptions:budget ()
  in
  List.iter
    (fun w ->
      let r = run soc constraints w in
      Test_helpers.check_valid_schedule soc constraints r.O.schedule;
      List.iter
        (fun (id, count) ->
          Alcotest.(check bool)
            (Printf.sprintf "core %d: %d <= budget" id count)
            true
            (count <= C.max_preemptions_of constraints id))
        r.O.preemptions)
    [ 16; 32; 64 ]

let test_precedence_respected () =
  let soc = Test_helpers.mini4 () in
  let constraints =
    C.make ~core_count:4 ~precedence:[ (4, 1); (2, 3) ] ()
  in
  let r = run soc constraints 8 in
  let finish id = Option.get (S.core_finish r.O.schedule id) in
  let start id = Option.get (S.core_start r.O.schedule id) in
  Alcotest.(check bool) "4 before 1" true (finish 4 <= start 1);
  Alcotest.(check bool) "2 before 3" true (finish 2 <= start 3)

let test_precedence_chain_serializes () =
  let soc = Test_helpers.mini4 () in
  let constraints =
    C.make ~core_count:4 ~precedence:[ (1, 2); (2, 3); (3, 4) ] ()
  in
  let r = run soc constraints 32 in
  let finish id = Option.get (S.core_finish r.O.schedule id) in
  let start id = Option.get (S.core_start r.O.schedule id) in
  Alcotest.(check bool) "full chain" true
    (finish 1 <= start 2 && finish 2 <= start 3 && finish 3 <= start 4)

let test_concurrency_respected () =
  let soc = Test_helpers.mini4 () in
  let constraints = C.make ~core_count:4 ~concurrency:[ (1, 2) ] () in
  let r = run soc constraints 32 in
  Test_helpers.check_valid_schedule soc constraints r.O.schedule

let test_power_limit_respected () =
  let soc = Test_helpers.d695 () in
  let limit = Flow.default_power_limit soc in
  let constraints =
    C.make ~core_count:(Soc_def.core_count soc) ~power_limit:limit ()
  in
  let r = run soc constraints 48 in
  Test_helpers.check_valid_schedule soc constraints r.O.schedule;
  (* the limit binds: at least one instant uses more than half of it *)
  Test_helpers.check_complete soc r.O.schedule

let test_tight_power_serializes () =
  (* power limit equal to the max core power forces serial execution *)
  let soc =
    Soc_def.make ~name:"p"
      ~cores:[ mk ~power:10 1 "a"; mk ~power:10 2 "b"; mk ~power:10 3 "c" ]
      ()
  in
  let constraints = C.make ~core_count:3 ~power_limit:10 () in
  let r = run soc constraints 32 in
  Test_helpers.check_valid_schedule soc constraints r.O.schedule;
  (* no two cores overlap: peak width equals max individual width *)
  let widths = List.map snd r.O.widths in
  Alcotest.(check int) "peak = max single width"
    (List.fold_left max 0 widths)
    (S.peak_width r.O.schedule)

let test_infeasible_power_raises () =
  let soc = Soc_def.make ~name:"p" ~cores:[ mk ~power:100 1 "a" ] () in
  let constraints = C.make ~core_count:1 ~power_limit:50 () in
  match run soc constraints 8 with
  | exception O.Infeasible _ -> ()
  | _ -> Alcotest.fail "expected Infeasible"

let test_width_one_tam () =
  let soc = Test_helpers.mini4 () in
  let r = run soc (C.unconstrained ~core_count:4) 1 in
  Test_helpers.check_complete soc r.O.schedule;
  List.iter
    (fun (_, w) -> Alcotest.(check int) "all widths 1" 1 w)
    r.O.widths

let test_params_validation () =
  let soc = Test_helpers.mini4 () in
  let constraints = C.unconstrained ~core_count:4 in
  let expect name params =
    match run ~params soc constraints 8 with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect "bad percent" { O.default_params with O.percent = -1 };
  expect "bad delta" { O.default_params with O.delta = -2 };
  expect "bad slack" { O.default_params with O.insert_slack = -1 };
  match run soc constraints 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for W=0"

let test_constraints_mismatch () =
  let soc = Test_helpers.mini4 () in
  let constraints = C.unconstrained ~core_count:7 in
  match run soc constraints 8 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected core-count mismatch rejection"

let test_best_over_params_no_worse () =
  let soc = Test_helpers.d695 () in
  let prepared = O.prepare soc in
  let constraints = Test_helpers.unconstrained soc in
  let single =
    O.run prepared ~tam_width:32 ~constraints ~params:O.default_params
  in
  let best = O.best_over_params prepared ~tam_width:32 ~constraints () in
  Alcotest.(check bool) "best <= single" true
    (best.O.testing_time <= single.O.testing_time)

(* Points sharing a scheduler input share one run: the answer is the
   plain grid loop's, bit for bit and with the same tie choice, while
   [optimizer.grid_cells] still counts every point and [optimizer.runs]
   only the distinct inputs. *)
let test_best_over_params_shares_runs () =
  let module Obs = Soctest_obs.Obs in
  let soc = Test_helpers.d695 () in
  let prepared = O.prepare soc in
  let constraints = C.of_soc soc ~power_limit:(Flow.default_power_limit soc) () in
  let tam_width = 24 in
  let points = O.grid_points ~wmax:64 () in
  let plain =
    List.fold_left
      (fun best params ->
        let r = O.run prepared ~tam_width ~constraints ~params in
        match best with
        | Some (b : O.result) when b.O.testing_time <= r.O.testing_time -> best
        | _ -> Some r)
      None points
    |> Option.get
  in
  let distinct =
    List.sort_uniq compare
      (List.map
         (fun (p : O.params) ->
           ( O.preferred_widths prepared ~tam_width ~params:p,
             p.O.insert_slack,
             p.O.widen ))
         points)
    |> List.length
  in
  let was_enabled = Obs.enabled () in
  Obs.enable ();
  let cells = Obs.counter "optimizer.grid_cells"
  and runs = Obs.counter "optimizer.runs" in
  let best = O.best_over_params prepared ~tam_width ~constraints () in
  let cells = Obs.counter_value cells and runs = Obs.counter_value runs in
  if not was_enabled then Obs.disable ();
  Alcotest.(check bool) "same params" true (plain.O.params = best.O.params);
  Alcotest.(check string) "same schedule"
    (Format.asprintf "%a" S.pp plain.O.schedule)
    (Format.asprintf "%a" S.pp best.O.schedule);
  Alcotest.(check int) "every grid cell counted" 208 cells;
  Alcotest.(check int) "one run per distinct input" distinct runs;
  Alcotest.(check bool) "inputs repeat" true (distinct < 208)

let test_widths_are_reported () =
  let soc = Test_helpers.d695 () in
  let r = run soc (Test_helpers.unconstrained soc) 32 in
  Alcotest.(check int) "one width per core" 10 (List.length r.O.widths);
  List.iter
    (fun (_, w) ->
      Alcotest.(check bool) "width within TAM" true (w >= 1 && w <= 32))
    r.O.widths

let test_monotone_in_width_roughly () =
  (* more TAM wires never hurt by more than a small tolerance (greedy
     heuristics are not strictly monotone; the paper's aren't either) *)
  let soc = Test_helpers.d695 () in
  let prepared = O.prepare soc in
  let constraints = Test_helpers.unconstrained soc in
  let t w =
    (O.best_over_params prepared ~tam_width:w ~constraints ()).O.testing_time
  in
  let t16 = t 16 and t32 = t 32 and t64 = t 64 in
  Alcotest.(check bool) "t32 < t16" true (t32 < t16);
  Alcotest.(check bool) "t64 < t32" true (t64 < t32)

let test_deterministic () =
  let soc = Test_helpers.d695 () in
  let constraints = Test_helpers.unconstrained soc in
  let a = run soc constraints 24 and b = run soc constraints 24 in
  Alcotest.(check int) "same makespan" a.O.testing_time b.O.testing_time;
  Alcotest.(check bool) "same schedule" true
    (a.O.schedule.S.slices = b.O.schedule.S.slices)

let test_preemption_penalty_accounting () =
  (* a preempted core's total busy time must be exactly its wrapper time
     at the assigned width plus (si + so) per counted preemption *)
  let soc = Test_helpers.d695 () in
  let prepared = O.prepare soc in
  let budget = Flow.preemption_budget soc ~limit:2 in
  let constraints =
    C.make ~core_count:(Soc_def.core_count soc) ~max_preemptions:budget ()
  in
  let checked = ref 0 in
  List.iter
    (fun tam_width ->
      let r =
        O.run prepared ~tam_width ~constraints ~params:O.default_params
      in
      List.iter
        (fun id ->
          let slices = S.slices_of_core r.O.schedule id in
          let busy =
            List.fold_left
              (fun a (s : S.slice) -> a + (s.S.stop - s.S.start))
              0 slices
          in
          let w = Option.get (S.width_of_core r.O.schedule id) in
          let base =
            Soctest_wrapper.Pareto.time (O.pareto_of prepared id) ~width:w
          in
          let preempts = S.preemptions r.O.schedule id in
          if preempts > 0 then begin
            incr checked;
            let d =
              Soctest_wrapper.Wrapper_design.design (Soc_def.core soc id)
                ~width:w
            in
            let penalty =
              d.Soctest_wrapper.Wrapper_design.si
              + d.Soctest_wrapper.Wrapper_design.so
            in
            Alcotest.(check int)
              (Printf.sprintf "core %d at W=%d: busy = T + %d penalties" id
                 tam_width preempts)
              (base + (preempts * penalty))
              busy
          end
          else
            Alcotest.(check int)
              (Printf.sprintf "core %d at W=%d: busy = T" id tam_width)
              base busy)
        (S.cores r.O.schedule))
    [ 16; 24; 32; 48; 64 ];
  Alcotest.(check bool) "some preemption was actually exercised" true
    (!checked > 0)

let test_bist_conflict_serializes () =
  let soc =
    Soc_def.make ~name:"b"
      ~cores:[ mk ~bist:1 1 "a"; mk ~bist:1 2 "b" ]
      ()
  in
  let constraints = C.unconstrained ~core_count:2 in
  let r = run soc constraints 32 in
  Test_helpers.check_valid_schedule soc constraints r.O.schedule;
  let f1 = Option.get (S.core_finish r.O.schedule 1) in
  let s2 = Option.get (S.core_start r.O.schedule 2) in
  let f2 = Option.get (S.core_finish r.O.schedule 2) in
  let s1 = Option.get (S.core_start r.O.schedule 1) in
  Alcotest.(check bool) "serialized" true (f1 <= s2 || f2 <= s1)

let () =
  Alcotest.run "optimizer"
    [
      ( "basic",
        [
          Alcotest.test_case "single core" `Quick test_single_core;
          Alcotest.test_case "mini4 complete+valid" `Quick
            test_mini4_complete_and_valid;
          Alcotest.test_case "d695 across widths" `Quick
            test_d695_all_widths;
          Alcotest.test_case "width-1 TAM" `Quick test_width_one_tam;
          Alcotest.test_case "widths reported" `Quick
            test_widths_are_reported;
          Alcotest.test_case "roughly monotone in W" `Quick
            test_monotone_in_width_roughly;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
        ] );
      ( "preemption",
        [
          Alcotest.test_case "non-preemptive gapless" `Quick
            test_non_preemptive_has_no_gaps;
          Alcotest.test_case "budget respected" `Quick
            test_preemption_budget_respected;
          Alcotest.test_case "penalty accounting" `Quick
            test_preemption_penalty_accounting;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "precedence" `Quick test_precedence_respected;
          Alcotest.test_case "precedence chain" `Quick
            test_precedence_chain_serializes;
          Alcotest.test_case "concurrency" `Quick test_concurrency_respected;
          Alcotest.test_case "power limit" `Quick test_power_limit_respected;
          Alcotest.test_case "tight power serializes" `Quick
            test_tight_power_serializes;
          Alcotest.test_case "infeasible power" `Quick
            test_infeasible_power_raises;
          Alcotest.test_case "bist serializes" `Quick
            test_bist_conflict_serializes;
        ] );
      ( "parameters",
        [
          Alcotest.test_case "validation" `Quick test_params_validation;
          Alcotest.test_case "constraints mismatch" `Quick
            test_constraints_mismatch;
          Alcotest.test_case "best over params" `Quick
            test_best_over_params_no_worse;
          Alcotest.test_case "best_over_params shares runs" `Quick
            test_best_over_params_shares_runs;
        ] );
    ]

(* Whole-system stress: every benchmark SOC, across TAM widths and
   constraint regimes, through the umbrella [Soctest] library — each
   schedule re-validated from first principles. *)

open Soctest

let widths = [ 8; 16; 24; 32; 48; 64 ]

let validate_or_fail soc constraints (r : Optimizer.result) ~label =
  (match Conflict.validate soc constraints r.Optimizer.schedule with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "%s: %s" label
      (Format.asprintf "%a" Conflict.pp_violation v));
  Alcotest.(check (list int))
    (label ^ ": complete")
    (List.init (Soc_def.core_count soc) (fun k -> k + 1))
    (Schedule.cores r.Optimizer.schedule)

let test_unconstrained_all_benchmarks () =
  List.iter
    (fun (name, soc) ->
      let prepared = Optimizer.prepare soc in
      let constraints =
        Constraint_def.unconstrained ~core_count:(Soc_def.core_count soc)
      in
      List.iter
        (fun w ->
          let r =
            Optimizer.run prepared ~tam_width:w ~constraints
              ~params:Optimizer.default_params
          in
          validate_or_fail soc constraints r
            ~label:(Printf.sprintf "%s W=%d" name w);
          let lb = Lower_bound.compute prepared ~tam_width:w in
          Alcotest.(check bool)
            (Printf.sprintf "%s W=%d within 2x of LB" name w)
            true
            (r.Optimizer.testing_time >= lb
            && r.Optimizer.testing_time <= 2 * lb))
        widths)
    (Benchmarks.all ())

let test_constrained_all_benchmarks () =
  List.iter
    (fun (name, soc) ->
      let constraints =
        Constraint_def.of_soc soc
          ~power_limit:(Flow.default_power_limit soc)
          ~max_preemptions:(Flow.preemption_budget soc ~limit:2)
          ()
      in
      List.iter
        (fun w ->
          let r = Flow.solve ~constraints soc ~tam_width:w in
          validate_or_fail soc constraints r
            ~label:(Printf.sprintf "%s constrained W=%d" name w))
        [ 16; 32; 64 ])
    (Benchmarks.all ())

let test_full_pipeline_umbrella () =
  (* end to end through the umbrella: parse -> schedule -> stats ->
     gantt -> svg -> serialize -> revalidate -> volume/cost -> program *)
  let soc =
    Soc_parser.parse_string (Soc_writer.to_string (Benchmarks.mini4 ()))
  in
  let constraints = Constraint_def.of_soc soc () in
  let r = Flow.solve ~constraints soc ~tam_width:8 in
  let sched = r.Optimizer.schedule in
  let stats = Sched_stats.compute sched in
  Alcotest.(check int) "stats makespan" r.Optimizer.testing_time
    stats.Sched_stats.makespan;
  Alcotest.(check bool) "gantt" true
    (String.length (Gantt.render sched) > 0);
  Alcotest.(check bool) "svg" true
    (String.length (Gantt_svg.render sched) > 0);
  let round = Schedule_io.of_string (Schedule_io.to_string sched) in
  Alcotest.(check int) "io round trip" 0
    (List.length (Conflict.validate soc constraints round));
  let prepared = Optimizer.prepare soc in
  let points =
    Volume.sweep prepared ~widths:[ 2; 4; 8 ] ~constraints ()
  in
  let e = Cost.evaluate ~alpha:0.5 points in
  Alcotest.(check bool) "cost sane" true (e.Cost.cost >= 1.0 -. 1e-9);
  let program = Test_program.build prepared sched in
  Alcotest.(check int) "program payload"
    (Schedule.total_busy_area sched)
    (Test_program.payload_bits program)

let test_polish_stress () =
  List.iter
    (fun (name, soc) ->
      let prepared = Optimizer.prepare soc in
      let constraints =
        Constraint_def.unconstrained ~core_count:(Soc_def.core_count soc)
      in
      let seed =
        Optimizer.run prepared ~tam_width:32 ~constraints
          ~params:Optimizer.default_params
      in
      let report =
        Improve.polish ~max_rounds:2 prepared ~tam_width:32 ~constraints
          seed
      in
      Alcotest.(check bool)
        (name ^ ": polish not worse")
        true
        (report.Improve.result.Optimizer.testing_time
        <= seed.Optimizer.testing_time))
    (Benchmarks.all ())

let () =
  Alcotest.run "stress"
    [
      ( "stress",
        [
          Alcotest.test_case "unconstrained benchmarks" `Slow
            test_unconstrained_all_benchmarks;
          Alcotest.test_case "constrained benchmarks" `Slow
            test_constrained_all_benchmarks;
          Alcotest.test_case "umbrella pipeline" `Quick
            test_full_pipeline_umbrella;
          Alcotest.test_case "polish stress" `Slow test_polish_stress;
        ] );
    ]

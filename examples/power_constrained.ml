(* Power- and precedence-constrained scheduling (Problem 2).

   Scenario from the paper's Sec. 4: memories are tested first (so they
   can host system test later), an "abort at first fail" order puts the
   most failure-prone core early, a hierarchical parent must not run with
   its child, and the SOC has a power budget.

   Run with: dune exec examples/power_constrained.exe *)

module Core_def = Soctest_soc.Core_def
module Soc_def = Soctest_soc.Soc_def
module Constraint_def = Soctest_constraints.Constraint_def
module Flow = Soctest_engine.Flow
module Optimizer = Soctest_core.Optimizer
module Schedule = Soctest_tam.Schedule

let soc =
  let cores =
    [
      (* 1: embedded SRAM — must be tested and diagnosed first *)
      Core_def.make ~id:1 ~name:"sram" ~inputs:30 ~outputs:30 ~bidirs:0
        ~scan_chains:[ 200; 200 ] ~patterns:180 ~power:900 ();
      (* 2: flaky analog-digital interface — test early (abort-at-first-fail) *)
      Core_def.make ~id:2 ~name:"adc_if" ~inputs:24 ~outputs:18 ~bidirs:0
        ~scan_chains:[ 60; 60 ] ~patterns:140 ~power:400 ();
      (* 3: CPU — hierarchical parent of core 4 *)
      Core_def.make ~id:3 ~name:"cpu" ~inputs:70 ~outputs:60 ~bidirs:10
        ~scan_chains:[ 150; 150; 140; 140 ] ~patterns:260 ~power:1100 ();
      (* 4: FPU embedded inside the CPU *)
      Core_def.make ~id:4 ~name:"fpu" ~inputs:40 ~outputs:40 ~bidirs:0
        ~scan_chains:[ 100; 100 ] ~patterns:150 ~power:600 ();
      (* 5: DMA engine *)
      Core_def.make ~id:5 ~name:"dma" ~inputs:36 ~outputs:30 ~bidirs:0
        ~scan_chains:[ 80; 80; 70 ] ~patterns:120 ~power:500 ();
    ]
  in
  Soc_def.make ~name:"pwr5" ~cores ~hierarchy:[ (3, 4) ] ()

let tam_width = 24

let report label (r : Optimizer.result) =
  Printf.printf "%-38s T = %6d cycles\n" label r.Optimizer.testing_time;
  List.iter
    (fun id ->
      Printf.printf "    %-8s starts %6d  ends %6d\n"
        (Soc_def.core soc id).Core_def.name
        (Option.get (Schedule.core_start r.Optimizer.schedule id))
        (Option.get (Schedule.core_finish r.Optimizer.schedule id)))
    (Schedule.cores r.Optimizer.schedule)

let () =
  (* Unconstrained baseline. *)
  let free = Flow.solve soc ~tam_width in
  report "unconstrained:" free;
  print_newline ();

  (* Precedence: sram before cpu and dma (memory first), adc_if before
     cpu (most likely to fail). Concurrency 3 # 4 comes from the design
     hierarchy via of_soc. Power cap: 2000 units. *)
  let constraints =
    Constraint_def.of_soc soc
      ~precedence:[ (1, 3); (1, 5); (2, 3) ]
      ~power_limit:2000 ()
  in
  let constrained = Flow.solve ~constraints soc ~tam_width in
  report "precedence + hierarchy + power:" constrained;
  print_newline ();

  (* The validator agrees the schedule meets every constraint. *)
  let violations =
    Soctest_constraints.Conflict.validate soc constraints
      constrained.Optimizer.schedule
  in
  Printf.printf "validator violations: %d\n" (List.length violations);
  Printf.printf "constraint cost: +%d cycles (%.1f%%)\n"
    (constrained.Optimizer.testing_time - free.Optimizer.testing_time)
    (100.
    *. float_of_int
         (constrained.Optimizer.testing_time - free.Optimizer.testing_time)
    /. float_of_int free.Optimizer.testing_time);
  print_newline ();
  print_string (Soctest_tam.Gantt.render ~columns:64 constrained.Optimizer.schedule);
  print_string
    (Soctest_tam.Gantt.legend constrained.Optimizer.schedule (fun id ->
         (Soc_def.core soc id).Core_def.name))

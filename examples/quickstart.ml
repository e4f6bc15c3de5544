(* Quickstart: describe an SOC, co-optimize wrappers and TAM, print the
   schedule.

   Run with: dune exec examples/quickstart.exe *)

module Core_def = Soctest_soc.Core_def
module Soc_def = Soctest_soc.Soc_def
module Flow = Soctest_engine.Flow
module Optimizer = Soctest_core.Optimizer

let () =
  (* 1. Describe the cores: I/O counts, internal scan chains, patterns. *)
  let cores =
    [
      Core_def.make ~id:1 ~name:"cpu" ~inputs:64 ~outputs:48 ~bidirs:8
        ~scan_chains:[ 120; 120; 110; 100 ] ~patterns:220 ();
      Core_def.make ~id:2 ~name:"dsp" ~inputs:40 ~outputs:40 ~bidirs:0
        ~scan_chains:[ 90; 90; 80 ] ~patterns:160 ();
      Core_def.make ~id:3 ~name:"uart" ~inputs:12 ~outputs:10 ~bidirs:0
        ~scan_chains:[ 30 ] ~patterns:60 ();
      Core_def.make ~id:4 ~name:"rom_mbist" ~inputs:20 ~outputs:16 ~bidirs:0
        ~scan_chains:[] ~patterns:500 ();
    ]
  in
  let soc = Soc_def.make ~name:"demo4" ~cores () in

  (* 2. Pick a total TAM width and solve Problem 1 (no ~constraints
     means P_nw: plain wrapper/TAM co-optimization). *)
  let tam_width = 24 in
  let result = Flow.solve soc ~tam_width in

  Printf.printf "SOC %s, TAM width %d\n" soc.Soc_def.name tam_width;
  Printf.printf "testing time: %d cycles\n" result.Optimizer.testing_time;
  Printf.printf "lower bound:  %d cycles\n\n"
    (Soctest_core.Lower_bound.compute_soc soc ~tam_width ());

  (* 3. Inspect per-core TAM widths chosen by the co-optimizer. *)
  List.iter
    (fun (id, w) ->
      let core = Soc_def.core soc id in
      Printf.printf "  %-10s -> %2d TAM wires (%d patterns)\n"
        core.Core_def.name w core.Core_def.patterns)
    result.Optimizer.widths;

  (* 4. Visualize the packing. *)
  print_newline ();
  print_string (Soctest_tam.Gantt.render ~columns:64 result.Optimizer.schedule);
  print_string
    (Soctest_tam.Gantt.legend result.Optimizer.schedule (fun id ->
         (Soc_def.core soc id).Core_def.name))

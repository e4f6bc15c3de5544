(* End-to-end file flow: write an SOC description to disk in the .soc
   text format, parse it back, and run the full co-optimization —
   the path a downstream user takes for their own designs.

   Run with: dune exec examples/custom_soc.exe *)

module Core_def = Soctest_soc.Core_def
module Soc_def = Soctest_soc.Soc_def
module Parser = Soctest_soc.Soc_parser
module Writer = Soctest_soc.Soc_writer
module Flow = Soctest_engine.Flow
module Optimizer = Soctest_core.Optimizer

let description = {|
# A small automotive SOC: two compute cores, CAN controller, memory.
Soc auto4
Core 1 mcu    inputs=52 outputs=40 bidirs=8 patterns=210 scan=96,96,88,80
Core 2 lockstep inputs=52 outputs=40 bidirs=8 patterns=210 scan=96,96,88,80 bist=1
Core 3 can    inputs=18 outputs=14 bidirs=0 patterns=75  scan=44,40
Core 4 eeprom inputs=22 outputs=22 bidirs=0 patterns=300 scan=- bist=1
Hierarchy 1 3
|}

let () =
  (* Parse from a string (a file via Parser.parse_file works the same). *)
  let soc = Parser.parse_string description in
  Format.printf "parsed %s:@.%a@.@." soc.Soc_def.name Soc_def.pp_summary soc;

  (* Round-trip through the writer. *)
  let path = Filename.temp_file "soctest_auto4" ".soc" in
  Writer.to_file path soc;
  let reparsed = Parser.parse_file path in
  Sys.remove path;
  Printf.printf "writer/parser round-trip equal: %b\n\n"
    (Soc_def.equal soc reparsed);

  (* The lockstep core shares a BIST engine with the eeprom (bist=1), and
     core 3 sits inside core 1 — of_soc turns both into concurrency
     exclusions automatically. *)
  let constraints = Soctest_constraints.Constraint_def.of_soc soc () in
  Format.printf "%a@.@." Soctest_constraints.Constraint_def.pp constraints;

  List.iter
    (fun w ->
      let r = Flow.solve ~constraints soc ~tam_width:w in
      Printf.printf "W=%2d: testing time %6d cycles (TAM utilization %.1f%%)\n"
        w r.Optimizer.testing_time
        (100. *. Soctest_tam.Schedule.utilization r.Optimizer.schedule))
    [ 8; 16; 24; 32 ]

(* Tests for the pattern-derived scan power model. *)

module PM = Soctest_tester.Power_model
module B = Soctest_tester.Bitstream
module Soc_def = Soctest_soc.Soc_def
module Core_def = Soctest_soc.Core_def

let mk = Test_helpers.core

let test_transitions () =
  Alcotest.(check int) "none" 0 (PM.transitions (B.of_string "0000"));
  Alcotest.(check int) "alternating" 3 (PM.transitions (B.of_string "0101"));
  Alcotest.(check int) "one" 1 (PM.transitions (B.of_string "0011"));
  Alcotest.(check int) "empty" 0 (PM.transitions (B.of_string ""));
  Alcotest.(check int) "single bit" 0 (PM.transitions (B.of_string "1"))

let test_wtc () =
  (* "01": one toggle at position 1, rides through 1 cell *)
  Alcotest.(check int) "01" 1 (PM.wtc (B.of_string "01"));
  (* "011": toggle at 1 over len 3 -> weight 2 *)
  Alcotest.(check int) "011" 2 (PM.wtc (B.of_string "011"));
  (* "010": toggles at 1 (weight 2) and 2 (weight 1) *)
  Alcotest.(check int) "010" 3 (PM.wtc (B.of_string "010"));
  Alcotest.(check int) "constant" 0 (PM.wtc (B.of_string "1111"));
  Alcotest.(check int) "empty" 0 (PM.wtc (B.of_string ""))

let test_wtc_bounds () =
  (* WTC <= transitions * (length - 1) *)
  let s = B.of_string "0110100101110" in
  Alcotest.(check bool) "bounded" true
    (PM.wtc s <= PM.transitions s * (B.length s - 1))

let test_estimate_core () =
  let core = mk ~scan:[ 40; 40 ] ~inputs:10 ~outputs:10 ~patterns:25 1 "c" in
  let sparse = PM.estimate_core ~care_density:0.02 core in
  let dense = PM.estimate_core ~care_density:0.4 core in
  Alcotest.(check int) "core id" 1 sparse.PM.core;
  Alcotest.(check bool) "denser data toggles more" true
    (dense.PM.avg_per_cycle > sparse.PM.avg_per_cycle);
  Alcotest.(check bool) "peak >= avg" true
    (dense.PM.peak_per_cycle >= dense.PM.avg_per_cycle);
  (* a shift cycle can toggle at most every cell *)
  Alcotest.(check bool) "avg bounded by chain cells" true
    (dense.PM.avg_per_cycle <= 90)

let test_estimate_deterministic () =
  let core = mk ~scan:[ 30 ] ~patterns:10 1 "c" in
  let a = PM.estimate_core core and b = PM.estimate_core core in
  Alcotest.(check int) "same estimate" a.PM.avg_per_cycle b.PM.avg_per_cycle

let test_with_measured_powers () =
  let soc = Test_helpers.mini4 () in
  let soc' = PM.with_measured_powers soc in
  Alcotest.(check int) "same core count" (Soc_def.core_count soc)
    (Soc_def.core_count soc');
  Alcotest.(check string) "same name" soc.Soc_def.name soc'.Soc_def.name;
  Alcotest.(check (list (pair int int))) "hierarchy preserved"
    soc.Soc_def.hierarchy soc'.Soc_def.hierarchy;
  Array.iter2
    (fun (a : Core_def.t) (b : Core_def.t) ->
      Alcotest.(check string) "names" a.Core_def.name b.Core_def.name;
      Alcotest.(check (list int)) "chains" a.Core_def.scan_chains
        b.Core_def.scan_chains;
      Alcotest.(check bool) "power positive" true (b.Core_def.power >= 1);
      Alcotest.(check (option int)) "bist preserved" a.Core_def.bist_engine
        b.Core_def.bist_engine)
    soc.Soc_def.cores soc'.Soc_def.cores

let test_measured_powers_usable_for_scheduling () =
  let soc = PM.with_measured_powers (Test_helpers.mini4 ()) in
  let limit = Soctest_engine.Flow.default_power_limit soc in
  let constraints =
    Soctest_constraints.Constraint_def.make ~core_count:4
      ~power_limit:limit ()
  in
  let r =
    Soctest_engine.Flow.solve
      ~constraints soc ~tam_width:8
  in
  Test_helpers.check_valid_schedule soc constraints
    r.Soctest_core.Optimizer.schedule

let prop_wtc_monotone_under_toggle_insertion =
  Test_helpers.qtest "wtc is zero iff stream is constant"
    QCheck.(
      string_gen_of_size (QCheck.Gen.int_range 1 100)
        (QCheck.Gen.oneofl [ '0'; '1' ]))
    (fun s ->
      let stream = B.of_string s in
      let constant =
        String.for_all (fun c -> c = s.[0]) s
      in
      (PM.wtc stream = 0) = constant)

let () =
  Alcotest.run "power_model"
    [
      ( "power model",
        [
          Alcotest.test_case "transitions" `Quick test_transitions;
          Alcotest.test_case "wtc" `Quick test_wtc;
          Alcotest.test_case "wtc bounds" `Quick test_wtc_bounds;
          Alcotest.test_case "estimate core" `Quick test_estimate_core;
          Alcotest.test_case "deterministic" `Quick
            test_estimate_deterministic;
          Alcotest.test_case "with measured powers" `Quick
            test_with_measured_powers;
          Alcotest.test_case "usable for scheduling" `Quick
            test_measured_powers_usable_for_scheduling;
          prop_wtc_monotone_under_toggle_insertion;
        ] );
    ]

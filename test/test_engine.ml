(* Tests for the solver service layer: the deduplicating evaluation
   cache (including under concurrent domains), budget degradation, digest
   stability, and the cached-equals-uncached contract the engine is built
   on. *)

module Engine = Soctest_engine.Engine
module Flow = Soctest_engine.Flow
module O = Soctest_core.Optimizer
module Budget = Soctest_core.Budget
module C = Soctest_constraints.Constraint_def
module Soc_def = Soctest_soc.Soc_def
module IO = Soctest_tam.Schedule_io
module Obs = Soctest_obs.Obs

let runs_counter = Obs.counter "optimizer.runs"
let pareto_counter = Obs.counter "pareto.computes"

let un soc = C.unconstrained ~core_count:(Soc_def.core_count soc)

(* ---------------- digests ---------------- *)

let test_soc_digest_roundtrip_stable () =
  let soc = Test_helpers.d695 () in
  let reparsed =
    Soctest_soc.Soc_parser.parse_string (Soctest_soc.Soc_writer.to_string soc)
  in
  Alcotest.(check string)
    "digest survives writer/parser round-trip" (Engine.soc_digest soc)
    (Engine.soc_digest reparsed);
  Alcotest.(check bool)
    "different SOCs get different digests" false
    (Engine.soc_digest soc = Engine.soc_digest (Test_helpers.mini4 ()))

let test_constraints_digest_structural () =
  let a = C.make ~core_count:4 ~precedence:[ (1, 2) ] ~power_limit:100 () in
  let b = C.make ~core_count:4 ~precedence:[ (1, 2) ] ~power_limit:100 () in
  Alcotest.(check string)
    "structurally equal constraints, equal digest"
    (Engine.constraints_digest a)
    (Engine.constraints_digest b);
  Alcotest.(check bool)
    "power limit changes the digest" false
    (Engine.constraints_digest a
    = Engine.constraints_digest (C.with_power_limit a (Some 99)))

(* ---------------- cache behaviour ---------------- *)

let test_solve_twice_hits_cache () =
  let soc = Test_helpers.mini4 () in
  let engine = Engine.create () in
  let req = Engine.request soc ~tam_width:8 ~constraints:(un soc) () in
  let cold = Engine.solve engine req in
  let warm = Engine.solve engine req in
  Alcotest.(check int) "same testing time"
    cold.Engine.result.O.testing_time warm.Engine.result.O.testing_time;
  Alcotest.(check string) "bit-for-bit same schedule"
    (IO.to_string cold.Engine.result.O.schedule)
    (IO.to_string warm.Engine.result.O.schedule);
  Alcotest.(check int) "cold computed" 1 cold.Engine.stats.Engine.eval_computed;
  Alcotest.(check int) "warm cached" 1 warm.Engine.stats.Engine.eval_cached;
  Alcotest.(check int) "warm computed nothing" 0
    warm.Engine.stats.Engine.eval_computed;
  let hits, misses = Engine.eval_cache_stats engine in
  Alcotest.(check int) "one miss" 1 misses;
  Alcotest.(check int) "one hit" 1 hits

let test_cached_equals_uncached () =
  let soc = Test_helpers.mini4 () in
  let constraints = C.of_soc soc () in
  let engine = Engine.create () in
  let grid = { Engine.default_grid with percents = [ 1; 3; 5 ] } in
  let via_engine =
    Engine.solve engine (Engine.request ~grid soc ~tam_width:8 ~constraints ())
  in
  let direct =
    O.best_over_params (O.prepare soc) ~tam_width:8 ~constraints
      ~percents:[ 1; 3; 5 ] ()
  in
  Alcotest.(check int) "engine = plain best_over_params"
    direct.O.testing_time via_engine.Engine.result.O.testing_time;
  Alcotest.(check string) "same schedule"
    (IO.to_string direct.O.schedule)
    (IO.to_string via_engine.Engine.result.O.schedule)

let test_prepare_shares_pareto () =
  Obs.enable ();
  let soc = Test_helpers.mini4 () in
  let engine = Engine.create () in
  let before = Obs.counter_value pareto_counter in
  let _ = Engine.prepare engine soc in
  let after_first = Obs.counter_value pareto_counter in
  let _ = Engine.prepare engine soc in
  let after_second = Obs.counter_value pareto_counter in
  Alcotest.(check int) "first prepare computes every core" 4
    (after_first - before);
  Alcotest.(check int) "second prepare computes nothing" 0
    (after_second - after_first)

let test_evaluator_dedups () =
  let soc = Test_helpers.mini4 () in
  let engine = Engine.create () in
  let eval = Engine.evaluator engine in
  let prepared = Engine.prepare engine soc in
  let req = O.request ~tam_width:8 ~constraints:(un soc) () in
  let a = eval prepared req in
  let b = eval prepared req in
  Alcotest.(check int) "same result" a.O.testing_time b.O.testing_time;
  let hits, _ = Engine.eval_cache_stats engine in
  Alcotest.(check int) "second evaluation was a hit" 1 hits

(* ---------------- concurrent dedup ---------------- *)

let test_dedup_under_domains () =
  let soc = Test_helpers.mini4 () in
  let engine = Engine.create () in
  let grid =
    { Engine.percents = [ 1; 2 ]; deltas = [ 0; 1 ]; slacks = [ 3 ];
      widens = [ true ] }
  in
  let req = Engine.request ~grid soc ~tam_width:8 ~constraints:(un soc) () in
  let domains =
    List.init 4 (fun _ -> Domain.spawn (fun () -> Engine.solve engine req))
  in
  let outcomes = List.map Domain.join domains in
  let first = List.hd outcomes in
  List.iter
    (fun o ->
      Alcotest.(check int) "every domain sees the same best"
        first.Engine.result.O.testing_time o.Engine.result.O.testing_time;
      Alcotest.(check string) "and the same schedule"
        (IO.to_string first.Engine.result.O.schedule)
        (IO.to_string o.Engine.result.O.schedule);
      Alcotest.(check int) "every domain evaluated the whole grid" 4
        o.Engine.evaluations)
    outcomes;
  let total field = List.fold_left (fun acc o -> acc + field o) 0 outcomes in
  (* a point missing from the cache is either run or shares an earlier
     run of the same scheduler input in its own solve *)
  Alcotest.(check int) "each unique grid point computed exactly once" 4
    (total (fun o ->
         o.Engine.stats.Engine.eval_computed
         + o.Engine.stats.Engine.eval_shared));
  Alcotest.(check int) "everything else served by cache or dedup" 12
    (total (fun o ->
         o.Engine.stats.Engine.eval_cached
         + o.Engine.stats.Engine.eval_deduped))

(* ---------------- budgets ---------------- *)

let test_expired_budget_returns_incumbent () =
  let soc = Test_helpers.mini4 () in
  let engine = Engine.create () in
  let o =
    Engine.solve engine
      (Engine.request ~grid:Engine.default_grid
         ~budget:(Budget.create ~deadline_ms:0. ())
         soc ~tam_width:8 ~constraints:(un soc) ())
  in
  (match o.Engine.status with
  | Engine.Deadline -> ()
  | Engine.Complete -> Alcotest.fail "expected Deadline status");
  Alcotest.(check int) "exactly the guaranteed first evaluation" 1
    o.Engine.evaluations;
  Test_helpers.check_complete soc o.Engine.result.O.schedule

let test_max_evals_budget_stops_early () =
  let soc = Test_helpers.mini4 () in
  let engine = Engine.create () in
  let grid = { Engine.default_grid with percents = [ 1; 2; 3; 4 ];
               deltas = [ 0 ] } in
  let o =
    Engine.solve engine
      (Engine.request ~grid
         ~budget:(Budget.create ~max_evals:2 ())
         soc ~tam_width:8 ~constraints:(un soc) ())
  in
  (match o.Engine.status with
  | Engine.Deadline -> ()
  | Engine.Complete -> Alcotest.fail "expected Deadline status");
  Alcotest.(check int) "stopped after the budgeted evaluations" 2
    o.Engine.evaluations;
  Test_helpers.check_complete soc o.Engine.result.O.schedule

let test_budget_ticks_per_request_not_per_compute () =
  (* budget accounting must not depend on cache state: a warm cache
     serves the evaluations, but the budget still sees every request *)
  let soc = Test_helpers.mini4 () in
  let engine = Engine.create () in
  let grid =
    { Engine.percents = [ 1; 2 ]; deltas = [ 0 ]; slacks = [ 3 ];
      widens = [ true ] }
  in
  let mk budget =
    Engine.request ~grid ~budget soc ~tam_width:8 ~constraints:(un soc) ()
  in
  let b1 = Budget.create () in
  let _ = Engine.solve engine (mk b1) in
  Alcotest.(check int) "cold solve ticks per grid point" 2 (Budget.evals b1);
  let b2 = Budget.create () in
  let _ = Engine.solve engine (mk b2) in
  Alcotest.(check int) "warm solve ticks identically" 2 (Budget.evals b2)

(* ---------------- the acceptance sweep ---------------- *)

let test_solve_many_sweep_cached_vs_uncached () =
  (* The ISSUE acceptance check: a p3-style width sweep over d695 through
     a shared engine, re-solved warm, is identical to the cold pass and
     provably does strictly less work — counted by the obs counters that
     only tick on real Pareto.compute / Optimizer.run executions. *)
  Obs.enable ();
  let soc = Test_helpers.d695 () in
  let constraints = un soc in
  let widths = [ 4; 8; 16; 24; 32 ] in
  let reqs () =
    List.map (fun w -> Engine.request soc ~tam_width:w ~constraints ()) widths
  in
  let engine = Engine.create () in
  let runs0 = Obs.counter_value runs_counter
  and pareto0 = Obs.counter_value pareto_counter in
  let cold = Engine.solve_many engine (reqs ()) in
  let runs_cold = Obs.counter_value runs_counter - runs0
  and pareto_cold = Obs.counter_value pareto_counter - pareto0 in
  let warm = Engine.solve_many engine (reqs ()) in
  let runs_warm = Obs.counter_value runs_counter - runs0 - runs_cold
  and pareto_warm = Obs.counter_value pareto_counter - pareto0 - pareto_cold in
  (* identical answers, bit for bit *)
  List.iter2
    (fun (c : Engine.outcome) (w : Engine.outcome) ->
      Alcotest.(check int) "same testing time" c.Engine.result.O.testing_time
        w.Engine.result.O.testing_time;
      Alcotest.(check string) "same schedule"
        (IO.to_string c.Engine.result.O.schedule)
        (IO.to_string w.Engine.result.O.schedule))
    cold warm;
  (* cold pass: one scheduler run per width, one staircase per core *)
  Alcotest.(check int) "cold: one Optimizer.run per width"
    (List.length widths) runs_cold;
  Alcotest.(check int) "cold: one Pareto.compute per core"
    (Soc_def.core_count soc) pareto_cold;
  (* warm pass: strictly fewer of both — in fact none at all *)
  Alcotest.(check bool) "warm: strictly fewer scheduler runs" true
    (runs_warm < runs_cold);
  Alcotest.(check bool) "warm: strictly fewer Pareto computes" true
    (pareto_warm < pareto_cold);
  Alcotest.(check int) "warm: zero scheduler runs" 0 runs_warm;
  Alcotest.(check int) "warm: zero Pareto computes" 0 pareto_warm;
  (* and the sweep agrees with the uncached direct path *)
  let prep = O.prepare soc in
  List.iter2
    (fun w (c : Engine.outcome) ->
      let direct = O.run_request prep (O.request ~tam_width:w ~constraints ()) in
      Alcotest.(check int)
        (Printf.sprintf "W=%d matches uncached optimizer" w)
        direct.O.testing_time c.Engine.result.O.testing_time)
    widths cold

(* ---------------- flow over a shared engine ---------------- *)

let test_flow_shares_engine () =
  let soc = Test_helpers.mini4 () in
  let engine = Engine.create () in
  let r1 = Flow.solve ~engine soc ~tam_width:8 in
  let r2 = Flow.solve ~engine soc ~tam_width:8 in
  Alcotest.(check int) "same answer" r1.O.testing_time r2.O.testing_time;
  let hits, _ = Engine.eval_cache_stats engine in
  Alcotest.(check bool) "second flow call hit the cache" true (hits >= 1)

(* ---------------- packers through the engine ---------------- *)

module Rectpack = Soctest_pack.Rectpack
module Store = Soctest_store.Store

let pack_request soc order =
  {
    (Engine.request soc ~tam_width:16 ~constraints:(Flow.constraints soc) ())
    with
    strategy = Engine.Pack order;
  }

let test_pack_matches_direct () =
  let soc = Test_helpers.d695 () in
  let constraints = Flow.constraints soc in
  List.iter
    (fun order ->
      let name = Rectpack.order_name order in
      let engine = Engine.create () in
      let direct =
        Rectpack.schedule ~order (O.prepare soc) ~tam_width:16 ~constraints
      in
      let cold = Engine.solve engine (pack_request soc order) in
      Alcotest.(check int) (name ^ ": same testing time")
        direct.Rectpack.testing_time cold.Engine.result.O.testing_time;
      Alcotest.(check string) (name ^ ": same schedule")
        (IO.to_string direct.Rectpack.schedule)
        (IO.to_string cold.Engine.result.O.schedule);
      Alcotest.(check int) (name ^ ": cold computed") 1
        cold.Engine.stats.Engine.eval_computed;
      Alcotest.(check int) (name ^ ": cold staircases are real")
        (Soc_def.core_count soc) cold.Engine.stats.Engine.pareto_computed;
      let warm = Engine.solve engine (pack_request soc order) in
      Alcotest.(check int) (name ^ ": warm cached") 1
        warm.Engine.stats.Engine.eval_cached;
      Alcotest.(check int) (name ^ ": warm computed nothing") 0
        warm.Engine.stats.Engine.eval_computed)
    [ Rectpack.Plain; Rectpack.Diagonal ]

let test_pack_and_point_keys_differ () =
  let soc = Test_helpers.d695 () in
  let engine = Engine.create () in
  let point =
    Engine.solve engine
      (Engine.request soc ~tam_width:16 ~constraints:(Flow.constraints soc) ())
  in
  let packed = Engine.solve engine (pack_request soc Rectpack.Plain) in
  Alcotest.(check int) "point makespan" 44875
    point.Engine.result.O.testing_time;
  Alcotest.(check int) "rectpack makespan" 51987
    packed.Engine.result.O.testing_time;
  Alcotest.(check int) "the packer was not served the point's entry" 1
    packed.Engine.stats.Engine.eval_computed;
  Alcotest.(check (pair int int)) "two entries, no hits" (0, 2)
    (Engine.eval_cache_stats engine)

let test_pack_store_hit () =
  let path = Filename.temp_file "soctest-engine-test" ".store" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let soc = Test_helpers.d695 () in
  let solve () =
    let store = Store.open_ path in
    Fun.protect ~finally:(fun () -> Store.close store) @@ fun () ->
    let engine = Engine.create ~store () in
    let o = Engine.solve engine (pack_request soc Rectpack.Plain) in
    (o, Engine.store_stats engine)
  in
  let first, first_stats = solve () in
  Alcotest.(check int) "first engine: a disk miss" 1
    first_stats.Engine.misses;
  let second, second_stats = solve () in
  Alcotest.(check int) "fresh engine: an audited disk hit" 1
    second_stats.Engine.hits;
  Alcotest.(check int) "no audit rejects" 0 second_stats.Engine.audit_rejects;
  Alcotest.(check int) "reported as from the store" 1
    second.Engine.stats.Engine.eval_from_store;
  Alcotest.(check string) "bit-identical across engines"
    (IO.to_string first.Engine.result.O.schedule)
    (IO.to_string second.Engine.result.O.schedule)

(* ---------------- shared runs ---------------- *)

let p2 soc =
  C.of_soc soc
    ~power_limit:(Flow.default_power_limit soc)
    ~max_preemptions:(Flow.preemption_budget soc ~limit:2)
    ()

(* The scheduler inputs of a grid, counted here from
   [Optimizer.preferred_widths] alone. *)
let distinct_inputs prepared ~tam_width points =
  List.sort_uniq compare
    (List.map
       (fun (p : O.params) ->
         ( Array.to_list (O.preferred_widths prepared ~tam_width ~params:p),
           p.O.insert_slack,
           p.O.widen ))
       points)
  |> List.length

let same_result msg (want : O.result) (got : O.result) =
  Alcotest.(check bool) (msg ^ ": params") true (want.O.params = got.O.params);
  Alcotest.(check int) (msg ^ ": makespan") want.O.testing_time
    got.O.testing_time;
  Alcotest.(check string) (msg ^ ": schedule")
    (IO.to_string want.O.schedule) (IO.to_string got.O.schedule);
  Alcotest.(check bool) (msg ^ ": widths and preemptions") true
    (want.O.widths = got.O.widths && want.O.preemptions = got.O.preemptions)

let test_shared_grid () =
  let tam_width = 32 in
  List.iter
    (fun soc ->
      let name = soc.Soc_def.name in
      let constraints = p2 soc in
      let engine = Engine.create () in
      let o =
        Engine.solve engine
          (Engine.request ~grid:Engine.default_grid soc ~tam_width
             ~constraints ())
      in
      let prepared = Engine.prepare engine soc in
      let points = O.grid_points ~wmax:64 () in
      let distinct = distinct_inputs prepared ~tam_width points in
      let st = o.Engine.stats in
      Alcotest.(check int) (name ^ ": evaluations") 208 o.Engine.evaluations;
      Alcotest.(check bool) (name ^ ": some inputs repeat") true
        (distinct < 208);
      Alcotest.(check int) (name ^ ": one run per input") distinct
        st.Engine.eval_computed;
      Alcotest.(check int) (name ^ ": the rest shared") (208 - distinct)
        st.Engine.eval_shared;
      Alcotest.(check int) (name ^ ": nothing else") 0
        (st.Engine.eval_cached + st.Engine.eval_deduped
        + st.Engine.eval_from_store);
      (* every point's cached entry is what a direct run gives, and the
         winner is the first best in grid order *)
      let eval = Engine.evaluator engine in
      let best =
        List.fold_left
          (fun best params ->
            let req = O.request ~params ~tam_width ~constraints () in
            let direct = O.run_request prepared req in
            same_result (name ^ " point") direct (eval prepared req);
            match best with
            | Some (b : O.result) when b.O.testing_time <= direct.O.testing_time
              ->
              best
            | _ -> Some direct)
          None points
      in
      same_result (name ^ " winner") (Option.get best) o.Engine.result;
      Alcotest.(check (pair int int)) (name ^ ": every point was cached")
        (208, 208)
        (Engine.eval_cache_stats engine))
    [ Test_helpers.d695 (); Soctest_soc.Benchmarks.p93791 () ]

(* Shared points are written through under their own keys with their own
   params, so a fresh engine on the same store audits every one clean. *)
let test_shared_store_reload () =
  let path = Filename.temp_file "soctest-engine-shared" ".store" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let soc = Test_helpers.d695 () in
  let req =
    Engine.request ~grid:Engine.default_grid soc ~tam_width:32
      ~constraints:(p2 soc) ()
  in
  let solve () =
    let store = Store.open_ path in
    Fun.protect ~finally:(fun () -> Store.close store) @@ fun () ->
    Engine.solve (Engine.create ~store ()) req
  in
  let cold = solve () in
  let reload = solve () in
  Alcotest.(check bool) "cold shared some runs" true
    (cold.Engine.stats.Engine.eval_shared > 0);
  Alcotest.(check int) "every point from the store" 208
    reload.Engine.stats.Engine.eval_from_store;
  same_result "reload" cold.Engine.result reload.Engine.result

let () =
  Alcotest.run "engine"
    [
      ( "digests",
        [
          Alcotest.test_case "soc digest round-trip" `Quick
            test_soc_digest_roundtrip_stable;
          Alcotest.test_case "constraints digest" `Quick
            test_constraints_digest_structural;
        ] );
      ( "cache",
        [
          Alcotest.test_case "solve twice" `Quick test_solve_twice_hits_cache;
          Alcotest.test_case "cached = uncached" `Quick
            test_cached_equals_uncached;
          Alcotest.test_case "prepare shares pareto" `Quick
            test_prepare_shares_pareto;
          Alcotest.test_case "evaluator dedups" `Quick test_evaluator_dedups;
          Alcotest.test_case "dedup under 4 domains" `Quick
            test_dedup_under_domains;
        ] );
      ( "budget",
        [
          Alcotest.test_case "expired budget -> incumbent" `Quick
            test_expired_budget_returns_incumbent;
          Alcotest.test_case "max_evals stops early" `Quick
            test_max_evals_budget_stops_early;
          Alcotest.test_case "ticks per request" `Quick
            test_budget_ticks_per_request_not_per_compute;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "solve_many cached vs uncached" `Quick
            test_solve_many_sweep_cached_vs_uncached;
          Alcotest.test_case "flow shares engine" `Quick
            test_flow_shares_engine;
        ] );
      ( "pack",
        [
          Alcotest.test_case "rectpack = direct packer, then cached" `Quick
            test_pack_matches_direct;
          Alcotest.test_case "pack and point keys differ" `Quick
            test_pack_and_point_keys_differ;
          Alcotest.test_case "packed result served from store" `Quick
            test_pack_store_hit;
        ] );
      ( "shared runs",
        [
          Alcotest.test_case "d695 and p93791 grid at W=32" `Quick
            test_shared_grid;
          Alcotest.test_case "shared points reload from the store" `Quick
            test_shared_store_reload;
        ] );
    ]

(* Engine smoke: a d695 width sweep, each width solved with the grid
   heuristic and both rectangle packers, through a cold engine, again
   through the now-warm cache, and once more on a second fresh engine —
   all three must agree bit-for-bit (serialized schedules compared as
   strings). Exercised by `dune build @engine-smoke` (pulled into
   @bench). *)

module Engine = Soctest_engine.Engine
module O = Soctest_core.Optimizer
module IO = Soctest_tam.Schedule_io
module C = Soctest_constraints.Constraint_def
module Soc_def = Soctest_soc.Soc_def

let () =
  let soc = Soctest_soc.Benchmarks.d695 () in
  let constraints = C.unconstrained ~core_count:(Soc_def.core_count soc) in
  let widths = [ 4; 8; 16; 32 ] in
  let strategies =
    [
      Engine.Search Engine.point_grid;
      Engine.Pack Soctest_pack.Rectpack.Plain;
      Engine.Pack Soctest_pack.Rectpack.Diagonal;
    ]
  in
  let reqs () =
    List.concat_map
      (fun w ->
        List.map
          (fun strategy ->
            { (Engine.request soc ~tam_width:w ~constraints ()) with strategy })
          strategies)
      widths
  in
  let solves = List.length widths * List.length strategies in
  let render outcomes =
    String.concat "\n"
      (List.map
         (fun (o : Engine.outcome) ->
           Printf.sprintf "T=%d\n%s" o.Engine.result.O.testing_time
             (IO.to_string o.Engine.result.O.schedule))
         outcomes)
  in
  let engine = Engine.create () in
  let cold = render (Engine.solve_many engine (reqs ())) in
  let warm = render (Engine.solve_many engine (reqs ())) in
  let fresh = render (Engine.solve_many (Engine.create ()) (reqs ())) in
  if cold <> warm then begin
    prerr_endline "engine smoke: warm cache diverged from cold solve";
    exit 1
  end;
  if cold <> fresh then begin
    prerr_endline "engine smoke: second engine diverged from the first";
    exit 1
  end;
  let hits, misses = Engine.eval_cache_stats engine in
  if hits < solves then begin
    Printf.eprintf "engine smoke: expected >=%d cache hits, saw %d\n" solves
      hits;
    exit 1
  end;
  Printf.printf
    "engine smoke ok: %d widths x %d strategies, cold = warm = fresh (%d \
     hits / %d misses)\n"
    (List.length widths) (List.length strategies) hits misses

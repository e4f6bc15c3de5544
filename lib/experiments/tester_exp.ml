module Soc_def = Soctest_soc.Soc_def
module O = Soctest_core.Optimizer
module Engine = Soctest_engine.Engine
module Flow = Soctest_engine.Flow
module Constraint_def = Soctest_constraints.Constraint_def
module Tester_image = Soctest_tester.Tester_image
module Multisite = Soctest_tester.Multisite
module Volume = Soctest_core.Volume

type memory_row = {
  width : int;
  time : int;
  volume : int;
  useful : int;
  utilization : float;
}

let default_soc () = Soctest_soc.Benchmarks.d695 ()

let memory_table ?soc ?(widths = [ 8; 16; 24; 32; 48; 64 ]) () =
  let soc = match soc with Some s -> s | None -> default_soc () in
  let engine = Engine.create () in
  let constraints =
    Constraint_def.unconstrained ~core_count:(Soc_def.core_count soc)
  in
  List.map
    (fun width ->
      let r =
        (Engine.solve engine
           (Engine.request soc ~tam_width:width ~constraints ()))
          .Engine.result
      in
      let image = Tester_image.of_schedule r.O.schedule in
      {
        width;
        time = r.O.testing_time;
        volume = image.Tester_image.volume;
        useful = image.Tester_image.useful;
        utilization = Tester_image.utilization image;
      })
    widths

let memory_to_table ~soc_name rows =
  let open Soctest_report in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Tester vector memory per TAM width (%s): V = W x T, useful = \
            busy wire-cycles"
           soc_name)
      ~columns:
        [
          ("W", Table.Right);
          ("T (cycles)", Table.Right);
          ("V (bits)", Table.Right);
          ("useful (bits)", Table.Right);
          ("utilization", Table.Right);
        ]
      ()
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          string_of_int r.width;
          string_of_int r.time;
          string_of_int r.volume;
          string_of_int r.useful;
          Printf.sprintf "%.1f%%" (100. *. r.utilization);
        ])
    rows;
  Table.render table

let compression_table ?soc ?(densities = [ 0.02; 0.05; 0.10 ]) () =
  let soc = match soc with Some s -> s | None -> default_soc () in
  List.map
    (fun care_density -> Tester_image.compress_soc ~care_density soc)
    densities

let compression_to_table ~soc_name reports =
  let open Soctest_report in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Golomb test-data compression (%s): stimulus volume vs ATPG \
            care-bit density"
           soc_name)
      ~columns:
        [
          ("care density", Table.Right);
          ("raw stimulus (bits)", Table.Right);
          ("compressed (bits)", Table.Right);
          ("ratio", Table.Right);
        ]
      ()
  in
  List.iter
    (fun (r : Tester_image.compression_report) ->
      Table.add_row table
        [
          Printf.sprintf "%.0f%%" (100. *. r.Tester_image.care_density);
          string_of_int r.Tester_image.raw_stimulus_bits;
          string_of_int r.Tester_image.compressed_bits;
          Printf.sprintf "%.2fx" r.Tester_image.ratio;
        ])
    reports;
  Table.render table

let multisite_table ?soc ?(tester = Multisite.default_tester)
    ?(batch_size = 10_000) ?widths () =
  let soc = match soc with Some s -> s | None -> default_soc () in
  let widths =
    match widths with
    | Some ws -> ws
    | None -> List.init 64 (fun k -> k + 1)
  in
  let sweep =
    (Flow.solve_sweep soc ~widths ~alphas:[]).Flow.points
    |> List.map (fun p -> (p.Volume.width, p.Volume.time))
  in
  Multisite.evaluate tester ~batch_size sweep

let multisite_to_table ~soc_name ~batch_size points =
  let open Soctest_report in
  let best = Multisite.best points in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Multisite batch planning (%s, %d dies): narrow TAMs buy \
            parallel sites (best marked *)"
           soc_name batch_size)
      ~columns:
        [
          ("W", Table.Right);
          ("T(W)", Table.Right);
          ("sites", Table.Right);
          ("reloads", Table.Right);
          ("batch time", Table.Right);
          ("", Table.Left);
        ]
      ()
  in
  (* show a readable subset: every 4th width plus the best *)
  List.iteri
    (fun k (p : Multisite.point) ->
      if k mod 4 = 3 || p = best then
        Table.add_row table
          [
            string_of_int p.Multisite.width;
            string_of_int p.Multisite.die_time;
            string_of_int p.Multisite.sites;
            string_of_int p.Multisite.reloads;
            string_of_int p.Multisite.batch_time;
            (if p = best then "*" else "");
          ])
    points;
  Table.render table

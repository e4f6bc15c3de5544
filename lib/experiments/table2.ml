module Soc_def = Soctest_soc.Soc_def
module Constraint_def = Soctest_constraints.Constraint_def
module Flow = Soctest_engine.Flow
module Volume = Soctest_core.Volume
module Cost = Soctest_core.Cost

type soc_result = {
  soc_name : string;
  t_min : int;
  w_at_t_min : int;
  v_min : int;
  w_at_v_min : int;
  evaluations : Cost.evaluation list;
}

let alphas_for = function
  | "d695" -> [ 0.1; 0.3; 0.5 ]
  | "p22810" -> [ 0.01; 0.3; 0.5 ]
  | "p34392" -> [ 0.2; 0.25; 0.3 ]
  | "p93791" -> [ 0.5; 0.95; 0.99 ]
  | _ -> [ 0.25; 0.5; 0.75 ]

let default_widths = List.init 64 (fun k -> k + 1)

let run_soc soc ?(widths = default_widths) ?alphas () =
  let alphas =
    match alphas with Some a -> a | None -> alphas_for soc.Soc_def.name
  in
  (* the p3 flow batches the whole width sweep through one engine, so
     the Pareto analyses are computed once per SOC *)
  let sweep = Flow.solve_sweep soc ~widths ~alphas in
  let points = sweep.Flow.points in
  let tp = Volume.min_time_point points
  and vp = Volume.min_volume_point points in
  {
    soc_name = soc.Soc_def.name;
    t_min = tp.Volume.time;
    w_at_t_min = tp.Volume.width;
    v_min = vp.Volume.volume;
    w_at_v_min = vp.Volume.width;
    evaluations = sweep.Flow.evaluations;
  }

let run () =
  List.map (fun (_, soc) -> run_soc soc ()) (Soctest_soc.Benchmarks.all ())

let to_table results =
  let open Soctest_report in
  let table =
    Table.create
      ~title:
        "Table 2: TAM widths for tester data volume reduction\n\
         (Tmin/Vmin over W in 1..64; W* minimizes C = a*T/Tmin + \
         (1-a)*V/Vmin)"
      ~columns:
        [
          ("SOC", Table.Left);
          ("Tmin", Table.Right);
          ("@W", Table.Right);
          ("Vmin", Table.Right);
          ("@W", Table.Right);
          ("alpha", Table.Right);
          ("Cmin", Table.Right);
          ("W*", Table.Right);
          ("T@W*", Table.Right);
          ("V@W*", Table.Right);
        ]
      ()
  in
  List.iteri
    (fun k r ->
      if k > 0 then Table.add_separator table;
      List.iteri
        (fun j (e : Cost.evaluation) ->
          let first = j = 0 in
          Table.add_row table
            [
              (if first then r.soc_name else "");
              (if first then string_of_int r.t_min else "");
              (if first then string_of_int r.w_at_t_min else "");
              (if first then string_of_int r.v_min else "");
              (if first then string_of_int r.w_at_v_min else "");
              Printf.sprintf "%.2f" e.Cost.alpha;
              Printf.sprintf "%.3f" e.Cost.cost;
              string_of_int e.Cost.effective_width;
              string_of_int e.Cost.time_at;
              string_of_int e.Cost.volume_at;
            ])
        r.evaluations)
    results;
  Table.render table

let to_csv results =
  let rows =
    List.concat_map
      (fun r ->
        List.map
          (fun (e : Cost.evaluation) ->
            [
              r.soc_name;
              string_of_int r.t_min;
              string_of_int r.w_at_t_min;
              string_of_int r.v_min;
              string_of_int r.w_at_v_min;
              Printf.sprintf "%.2f" e.Cost.alpha;
              Printf.sprintf "%.6f" e.Cost.cost;
              string_of_int e.Cost.effective_width;
              string_of_int e.Cost.time_at;
              string_of_int e.Cost.volume_at;
            ])
          r.evaluations)
      results
  in
  Soctest_report.Csv.render
    ~header:
      [
        "soc"; "t_min"; "w_at_t_min"; "v_min"; "w_at_v_min"; "alpha";
        "c_min"; "w_star"; "t_at_w_star"; "v_at_w_star";
      ]
    ~rows

module Soc_def = Soctest_soc.Soc_def
module Constraint_def = Soctest_constraints.Constraint_def
module Flow = Soctest_engine.Flow
module Volume = Soctest_core.Volume
module Cost = Soctest_core.Cost
module Plot = Soctest_report.Plot

type result = {
  soc_name : string;
  points : Volume.point list;
  alphas : float * float;
  cost_curves : (int * float) list * (int * float) list;
}

let run ?soc ?(max_width = 80) ?(alphas = (0.5, 0.75)) () =
  let soc =
    match soc with Some s -> s | None -> Soctest_soc.Benchmarks.p22810 ()
  in
  let widths = List.init max_width (fun k -> k + 1) in
  let points =
    (Flow.solve_sweep soc ~widths ~alphas:[]).Flow.points
  in
  let a1, a2 = alphas in
  {
    soc_name = soc.Soc_def.name;
    points;
    alphas;
    cost_curves = (Cost.curve ~alpha:a1 points, Cost.curve ~alpha:a2 points);
  }

let panel ~title ~y_label series = Plot.render ~title ~y_label series

let to_plots r =
  let a1, a2 = r.alphas in
  let time_series =
    {
      Plot.label = 'T';
      points =
        List.map
          (fun p -> (p.Volume.width, float_of_int p.Volume.time))
          r.points;
    }
  in
  let volume_series =
    {
      Plot.label = 'V';
      points =
        List.map
          (fun p -> (p.Volume.width, float_of_int p.Volume.volume))
          r.points;
    }
  in
  let cost_series label points = { Plot.label; points } in
  let c1, c2 = r.cost_curves in
  String.concat "\n"
    [
      panel
        ~title:(Printf.sprintf "Fig. 9(a): testing time vs W, %s" r.soc_name)
        ~y_label:"T (cycles)" [ time_series ];
      panel
        ~title:
          (Printf.sprintf "Fig. 9(b): tester data volume vs W, %s"
             r.soc_name)
        ~y_label:"V = W*T (bits)" [ volume_series ];
      panel
        ~title:
          (Printf.sprintf "Fig. 9(c): cost C vs W, alpha=%.2f, %s" a1
             r.soc_name)
        ~y_label:"C" [ cost_series 'C' c1 ];
      panel
        ~title:
          (Printf.sprintf "Fig. 9(d): cost C vs W, alpha=%.2f, %s" a2
             r.soc_name)
        ~y_label:"C" [ cost_series 'C' c2 ];
    ]

let to_csv r =
  let c1, c2 = r.cost_curves in
  let rows =
    List.map2
      (fun p ((_, v1), (_, v2)) ->
        [
          string_of_int p.Volume.width;
          string_of_int p.Volume.time;
          string_of_int p.Volume.volume;
          Printf.sprintf "%.6f" v1;
          Printf.sprintf "%.6f" v2;
        ])
      r.points
      (List.combine c1 c2)
  in
  Soctest_report.Csv.render
    ~header:[ "width"; "time"; "volume"; "cost_a1"; "cost_a2" ]
    ~rows

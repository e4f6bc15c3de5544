(* Tester data volume vs testing time trade-off (Problem 3).

   Sweeps the SOC TAM width, plots T(W) and V(W) = W*T(W), and identifies
   effective widths W* for several alpha weights — the paper's Sec. 5
   flow, on d695.

   Run with: dune exec examples/data_volume_tradeoff.exe *)

module Flow = Soctest_engine.Flow
module Volume = Soctest_core.Volume
module Cost = Soctest_core.Cost
module Plot = Soctest_report.Plot

let () =
  let soc = Soctest_soc.Benchmarks.d695 () in
  let widths = List.init 64 (fun k -> k + 1) in
  let alphas = [ 0.1; 0.3; 0.5; 0.7; 0.9 ] in
  let { Flow.points; evaluations } =
    Flow.solve_sweep soc ~widths ~alphas
  in

  let tp = Volume.min_time_point points
  and vp = Volume.min_volume_point points in
  Printf.printf "d695: Tmin = %d cycles at W = %d\n" tp.Volume.time
    tp.Volume.width;
  Printf.printf "      Vmin = %d bits   at W = %d\n\n" vp.Volume.volume
    vp.Volume.width;

  print_string
    (Plot.render ~title:"testing time vs TAM width" ~y_label:"T (cycles)"
       [
         {
           Plot.label = 'T';
           points =
             List.map
               (fun p -> (p.Volume.width, float_of_int p.Volume.time))
               points;
         };
       ]);
  print_newline ();
  print_string
    (Plot.render ~title:"tester data volume vs TAM width"
       ~y_label:"V = W*T (bits)"
       [
         {
           Plot.label = 'V';
           points =
             List.map
               (fun p -> (p.Volume.width, float_of_int p.Volume.volume))
               points;
         };
       ]);
  print_newline ();

  Printf.printf "%6s %8s %4s %10s %12s\n" "alpha" "Cmin" "W*" "T@W*" "V@W*";
  List.iter
    (fun (e : Cost.evaluation) ->
      Printf.printf "%6.2f %8.3f %4d %10d %12d\n" e.Cost.alpha e.Cost.cost
        e.Cost.effective_width e.Cost.time_at e.Cost.volume_at)
    evaluations;
  print_newline ();
  Printf.printf
    "Reading: small alpha favours tester memory (narrow TAM, slower \
     test,\nbetter multisite parallelism); large alpha favours raw test \
     time.\n"

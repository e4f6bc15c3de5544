module Soc_def = Soctest_soc.Soc_def
module Core_def = Soctest_soc.Core_def
module Optimizer = Soctest_core.Optimizer
module Flow = Soctest_engine.Flow

type result = {
  soc_name : string;
  tam_width : int;
  schedule : Soctest_tam.Schedule.t;
  gantt : string;
  legend : string;
}

let run ?soc ?(tam_width = 16) ?(columns = 72) () =
  let soc =
    match soc with Some s -> s | None -> Soctest_soc.Benchmarks.d695 ()
  in
  let r = Flow.solve soc ~tam_width in
  let schedule = r.Optimizer.schedule in
  {
    soc_name = soc.Soc_def.name;
    tam_width;
    schedule;
    gantt = Soctest_tam.Gantt.render ~columns schedule;
    legend =
      Soctest_tam.Gantt.legend schedule (fun id ->
          (Soc_def.core soc id).Core_def.name);
  }

let render r =
  Printf.sprintf "Fig. 2: rectangle-packed test schedule for %s\n%s%s"
    r.soc_name r.gantt r.legend

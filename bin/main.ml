(* soctest — CLI for the wrapper/TAM co-optimization framework.

   Subcommands regenerate each experiment of the paper (table1, table2,
   fig1, fig2, fig9, ablate, all), inspect SOC description files
   (soc-info), and run one-off schedules (schedule). *)

open Cmdliner

module Soc_def = Soctest_soc.Soc_def
module Core_def = Soctest_soc.Core_def
module Benchmarks = Soctest_soc.Benchmarks
module Constraint_def = Soctest_constraints.Constraint_def
module Optimizer = Soctest_core.Optimizer
module Budget = Soctest_core.Budget
module Engine = Soctest_engine.Engine
module Flow = Soctest_engine.Flow
module Obs = Soctest_obs.Obs
module Obs_export = Soctest_obs.Export
module Obs_summary = Soctest_obs.Summary
module Log = Soctest_obs.Log
module Server = Soctest_serve.Server
module Serve_client = Soctest_serve.Serve_client
module Json = Soctest_obs.Json
module Store = Soctest_store.Store

(* ------------------------------------------------------------------ *)
(* shared arguments *)

let load_soc spec =
  match Benchmarks.by_name spec with
  | Some soc -> soc
  | None ->
    if Sys.file_exists spec then Soctest_soc.Soc_parser.parse_file spec
    else
      failwith
        (Printf.sprintf
           "unknown SOC %S (not a benchmark name and not a file)" spec)

let soc_arg ~default =
  let doc =
    "SOC to use: a benchmark name (d695, p22810, p34392, p93791, mini4) \
     or a .soc file path."
  in
  Arg.(value & opt string default & info [ "soc" ] ~docv:"SOC" ~doc)

let width_arg ~default =
  let doc = "Total SOC TAM width W." in
  Arg.(value & opt int default & info [ "w"; "width" ] ~docv:"W" ~doc)

let csv_arg =
  let doc = "Also write the raw data as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let store_arg =
  let doc =
    "Layer the persistent result store at $(docv) (created on first \
     use) under the in-memory caches: previously solved requests are \
     answered from disk after an integrity audit, new solves are \
     written through. The $(b,SOCTEST_STORE) environment variable sets \
     the same default."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"FILE" ~doc)

let open_store path = Option.map (fun p -> Store.open_ p) path

(* Constraint knobs, shared by every subcommand that builds a constraint
   set (schedule, portfolio, check, pack-bench). *)

let power_arg =
  Arg.(
    value & flag
    & info [ "power" ]
        ~doc:"Apply the default power limit (1.5x the largest core).")

let preempt_arg =
  Arg.(
    value & opt int 0
    & info [ "preempt" ] ~docv:"N"
        ~doc:
          "Allow $(docv) preemptions on the larger cores (those with \
           above-median test data volume). 0 (the default) forbids \
           preemption; a negative $(docv) is an error.")

(* [power_limit], when given, overrides [--power]'s derived default. *)
let constraints_of ?power_limit ~power ~preempt soc =
  let power_limit =
    match power_limit with
    | Some _ -> power_limit
    | None -> if power then Some (Flow.default_power_limit soc) else None
  in
  Flow.constraints ?power_limit ~preempt soc

(* Write [contents] to [path] without leaking the channel when the write
   itself raises (ENOSPC, closed pipe, ...). *)
let write_string_to_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let write_csv path contents =
  match path with
  | None -> ()
  | Some path ->
    write_string_to_file path contents;
    Printf.printf "(csv written to %s)\n" path

(* Observability sinks, shared by schedule/sweep/portfolio. *)

let trace_arg =
  let doc =
    "Profile the run and write a Chrome trace_event JSON document to \
     $(docv) (open it at chrome://tracing or https://ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Write recorded counters, gauges and histograms (plus every span) \
     as JSON Lines to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let obs_summary_arg =
  let doc =
    "Print a plain-text profile after the run: per-span wall time and \
     allocation, then non-zero counters, gauges and histograms."
  in
  Arg.(value & flag & info [ "obs-summary" ] ~doc)

(* Record around [f] only when some sink was requested; the default path
   leaves recording off, so instrumented code pays one atomic load per
   probe. Sinks are flushed even when [f] raises — a failed run still
   leaves a trace to inspect. *)
let with_obs ~trace ~metrics ~summary f =
  if trace = None && metrics = None && not summary then f ()
  else begin
    Obs.enable ();
    let flush () =
      let events = Obs.events () in
      let m = Obs.metrics () in
      Obs.disable ();
      (match trace with
      | None -> ()
      | Some path ->
        write_string_to_file path (Obs_export.chrome_trace events m);
        Printf.printf "(trace written to %s)\n" path);
      (match metrics with
      | None -> ()
      | Some path ->
        write_string_to_file path (Obs_export.jsonl events m);
        Printf.printf "(metrics written to %s)\n" path);
      if summary then print_string (Obs_summary.render events m)
    in
    match f () with
    | v ->
      flush ();
      v
    | exception e ->
      (* best-effort flush: a sink error must not mask the run's own
         failure (and must not surface as Fun.Finally_raised) *)
      (try flush () with _ -> ());
      raise e
  end

let wrap f =
  try `Ok (f ()) with
  | Failure msg -> `Error (false, msg)
  | Invalid_argument msg -> `Error (false, msg)
  | Sys_error msg -> `Error (false, msg)
  | Soctest_soc.Soc_parser.Parse_error e ->
    `Error (false, Format.asprintf "%a" Soctest_soc.Soc_parser.pp_error e)
  | Soctest_store.Store.Corrupt_store msg -> `Error (false, msg)
  | Soctest_core.Optimizer.Infeasible msg ->
    `Error (false, "infeasible: " ^ msg)
  | Serve_client.Error e ->
    `Error (false, "serve client: " ^ Serve_client.error_message e)
  | Soctest_portfolio.Portfolio.No_solution msg ->
    `Error (false, "portfolio: " ^ msg)
  | Soctest_check.Audit.Failed (source, report) ->
    `Error
      ( false,
        Format.asprintf "audit failed (%s): %a" source
          Soctest_check.Audit.pp_report report )
  | Soctest_tam.Wire_alloc.Capacity_exceeded { time; core; deficit } ->
    `Error
      ( false,
        Printf.sprintf
          "wire allocation failed: core %d short %d wire(s) at t=%d" core
          deficit time )

(* ------------------------------------------------------------------ *)
(* experiment commands *)

let table1_cmd =
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Use a single (percent, delta) pair instead of the full grid.")
  in
  let run quick csv =
    wrap (fun () ->
        let results = Soctest_experiments.Table1.run ~quick () in
        print_string (Soctest_experiments.Table1.to_table results);
        write_csv csv (Soctest_experiments.Table1.to_csv results))
  in
  Cmd.v
    (Cmd.info "table1"
       ~doc:"Reproduce Table 1 (scheduling results for all four SOCs).")
    Term.(ret (const run $ quick $ csv_arg))

let table2_cmd =
  let run csv =
    wrap (fun () ->
        let results = Soctest_experiments.Table2.run () in
        print_string (Soctest_experiments.Table2.to_table results);
        write_csv csv (Soctest_experiments.Table2.to_csv results))
  in
  Cmd.v
    (Cmd.info "table2"
       ~doc:"Reproduce Table 2 (effective TAM widths for data volume).")
    Term.(ret (const run $ csv_arg))

let fig1_cmd =
  let core =
    Arg.(
      value & opt int 6
      & info [ "core" ] ~docv:"ID" ~doc:"Core id to analyze.")
  in
  let run soc core csv =
    wrap (fun () ->
        let soc = load_soc soc in
        let r = Soctest_experiments.Fig1.run ~soc ~core_id:core () in
        print_string (Soctest_experiments.Fig1.to_plot r);
        print_newline ();
        print_string (Soctest_experiments.Fig1.to_table r);
        write_csv csv (Soctest_experiments.Fig1.to_csv r))
  in
  Cmd.v
    (Cmd.info "fig1"
       ~doc:"Reproduce Fig. 1 (testing time vs TAM width staircase).")
    Term.(ret (const run $ soc_arg ~default:"p93791" $ core $ csv_arg))

let fig2_cmd =
  let run soc width =
    wrap (fun () ->
        let soc = load_soc soc in
        let r = Soctest_experiments.Fig2.run ~soc ~tam_width:width () in
        print_string (Soctest_experiments.Fig2.render r))
  in
  Cmd.v
    (Cmd.info "fig2" ~doc:"Reproduce Fig. 2 (example schedule as a Gantt).")
    Term.(ret (const run $ soc_arg ~default:"d695" $ width_arg ~default:16))

let fig9_cmd =
  let max_width =
    Arg.(
      value & opt int 80
      & info [ "max-width" ] ~docv:"W" ~doc:"Largest TAM width to sweep.")
  in
  let run soc max_width csv =
    wrap (fun () ->
        let soc = load_soc soc in
        let r = Soctest_experiments.Fig9.run ~soc ~max_width () in
        print_string (Soctest_experiments.Fig9.to_plots r);
        write_csv csv (Soctest_experiments.Fig9.to_csv r))
  in
  Cmd.v
    (Cmd.info "fig9"
       ~doc:"Reproduce Fig. 9 (time, volume and cost curves vs TAM width).")
    Term.(ret (const run $ soc_arg ~default:"p22810" $ max_width $ csv_arg))

let ablate_cmd =
  let run () =
    wrap (fun () ->
        let open Soctest_experiments.Ablation in
        print_string (delta_table (delta_effect ()));
        print_newline ();
        print_string (slack_table (insert_slack_effect ()));
        print_newline ();
        print_string
          (packer_table ~soc_name:"d695" ~tam_width:32
             (packer_comparison ()));
        print_newline ();
        print_string
          (packer_table ~soc_name:"p22810" ~tam_width:32
             (packer_comparison ~soc:(Benchmarks.p22810 ()) ()));
        print_newline ();
        print_string (wrapper_table (wrapper_quality ())))
  in
  Cmd.v
    (Cmd.info "ablate" ~doc:"Run the design-choice ablation experiments.")
    Term.(ret (const run $ const ()))

let all_cmd =
  let run quick =
    wrap (fun () ->
        let results = Soctest_experiments.Table1.run ~quick () in
        print_string (Soctest_experiments.Table1.to_table results);
        print_newline ();
        print_string
          (Soctest_experiments.Table2.to_table
             (Soctest_experiments.Table2.run ()));
        print_newline ();
        print_string
          (Soctest_experiments.Fig1.to_table
             (Soctest_experiments.Fig1.run ()));
        print_newline ();
        print_string
          (Soctest_experiments.Fig2.render (Soctest_experiments.Fig2.run ()));
        print_newline ();
        print_string
          (Soctest_experiments.Fig9.to_plots
             (Soctest_experiments.Fig9.run ())))
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Quick parameter grid for Table 1.")
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every table and figure of the paper in order.")
    Term.(ret (const run $ quick))

let extras_cmd =
  let run soc_name =
    wrap (fun () ->
        let soc = load_soc soc_name in
        let name = soc.Soc_def.name in
        print_string (Soctest_experiments.Exact_gap.to_table
                        (Soctest_experiments.Exact_gap.run ~soc ()));
        print_newline ();
        print_string
          (Soctest_experiments.Tester_exp.memory_to_table ~soc_name:name
             (Soctest_experiments.Tester_exp.memory_table ~soc ()));
        print_newline ();
        print_string
          (Soctest_experiments.Tester_exp.compression_to_table
             ~soc_name:name
             (Soctest_experiments.Tester_exp.compression_table ~soc ()));
        print_newline ();
        print_string
          (Soctest_experiments.Tester_exp.multisite_to_table ~soc_name:name
             ~batch_size:10_000
             (Soctest_experiments.Tester_exp.multisite_table ~soc ()));
        print_newline ();
        print_string
          (Soctest_experiments.Hardware_exp.to_table
             (Soctest_experiments.Hardware_exp.run ~soc ()));
        print_newline ();
        print_string
          (Soctest_experiments.Polish_exp.to_table
             (Soctest_experiments.Polish_exp.run
                ~socs:[ (name, soc) ] ()));
        print_newline ();
        print_string
          (Soctest_experiments.Defect_exp.to_table
             (Soctest_experiments.Defect_exp.run ~soc ()));
        print_newline ();
        print_string
          (Soctest_experiments.Flexible_exp.to_table
             [ Soctest_experiments.Flexible_exp.run ~soc () ]))
  in
  Cmd.v
    (Cmd.info "extras"
       ~doc:
         "Extension experiments: exact-vs-heuristic gap, tester memory \
          utilization, test-data compression, multisite planning, \
          hardware overhead.")
    Term.(ret (const run $ soc_arg ~default:"d695"))

let verilog_cmd =
  let run soc_name width out =
    wrap (fun () ->
        let soc = load_soc soc_name in
        let prepared = Optimizer.prepare soc in
        let constraints =
          Constraint_def.unconstrained
            ~core_count:(Soc_def.core_count soc)
        in
        let r =
          Optimizer.run prepared ~tam_width:width ~constraints
            ~params:Optimizer.default_params
        in
        let text =
          Soctest_hardware.Verilog.soc_testbench prepared
            ~widths:r.Optimizer.widths
        in
        match out with
        | None -> print_string text
        | Some path ->
          write_string_to_file path text;
          Printf.printf "wrote %s (%d lines)\n" path
            (List.length (String.split_on_char '\n' text)))
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to a file.")
  in
  Cmd.v
    (Cmd.info "verilog"
       ~doc:"Emit the structural Verilog wrapper/TAM netlist for an SOC.")
    Term.(ret (const run $ soc_arg ~default:"mini4" $ width_arg ~default:16 $ out))

let stil_cmd =
  let max_cycles =
    Arg.(
      value
      & opt (some int) (Some 64)
      & info [ "max-cycles" ] ~docv:"N"
          ~doc:"Truncate the vector list (pass 0 for the full program).")
  in
  let run soc_name width max_cycles =
    wrap (fun () ->
        let soc = load_soc soc_name in
        let prepared = Optimizer.prepare soc in
        let r =
          Optimizer.run prepared ~tam_width:width
            ~constraints:
              (Constraint_def.unconstrained
                 ~core_count:(Soc_def.core_count soc))
            ~params:Optimizer.default_params
        in
        let program =
          Soctest_tester.Test_program.build prepared r.Optimizer.schedule
        in
        let max_cycles =
          match max_cycles with Some 0 -> None | m -> m
        in
        print_string
          (Soctest_tester.Test_program.to_stil ?max_cycles program))
  in
  Cmd.v
    (Cmd.info "stil"
       ~doc:"Emit the transport-level tester program (STIL-like vectors).")
    Term.(
      ret
        (const run $ soc_arg ~default:"mini4" $ width_arg ~default:8
       $ max_cycles))

let sweep_cmd =
  let max_width =
    Arg.(
      value & opt int 64
      & info [ "max-width" ] ~docv:"W" ~doc:"Largest TAM width to sweep.")
  in
  let run soc_name max_width csv trace metrics obs_summary =
    wrap (fun () ->
        with_obs ~trace ~metrics ~summary:obs_summary @@ fun () ->
        if max_width < 1 then failwith "--max-width must be >= 1";
        let soc = load_soc soc_name in
        let points =
          (Flow.solve_sweep soc
             ~widths:(List.init max_width (fun k -> k + 1))
             ~alphas:[])
            .Flow.points
        in
        let front = Soctest_core.Volume.pareto_front points in
        let table =
          Soctest_report.Table.create
            ~title:
              (Printf.sprintf
                 "Time/volume Pareto front for %s (non-dominated widths)"
                 soc.Soc_def.name)
            ~columns:
              Soctest_report.Table.
                [
                  ("W", Right); ("T (cycles)", Right); ("V (bits)", Right);
                ]
            ()
        in
        List.iter
          (fun p ->
            Soctest_report.Table.add_int_row table
              (string_of_int p.Soctest_core.Volume.width)
              [ p.Soctest_core.Volume.time; p.Soctest_core.Volume.volume ])
          front;
        print_string (Soctest_report.Table.render table);
        write_csv csv
          (Soctest_report.Csv.render ~header:[ "width"; "time"; "volume" ]
             ~rows:
               (List.map
                  (fun p ->
                    [
                      string_of_int p.Soctest_core.Volume.width;
                      string_of_int p.Soctest_core.Volume.time;
                      string_of_int p.Soctest_core.Volume.volume;
                    ])
                  points)))
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Sweep TAM widths and print the non-dominated (time, volume)           front.")
    Term.(
      ret
        (const run $ soc_arg ~default:"d695" $ max_width $ csv_arg
       $ trace_arg $ metrics_arg $ obs_summary_arg))

let portfolio_cmd =
  let jobs =
    Arg.(
      value & opt int 0
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains to race strategies on (0 = one less than the \
             recommended domain count, at least 1).")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Skip strategies that have not started after $(docv) \
             milliseconds (running ones are never interrupted).")
  in
  let strategies =
    Arg.(
      value & opt string "all"
      & info [ "strategies" ] ~docv:"KINDS"
          ~doc:
            "Comma-separated strategy kinds to race: any of grid, anneal, \
             polish, baseline, rectpack, rectpack-diagonal, exact-bnb, or \
             $(b,all) (see $(b,--list-strategies)).")
  in
  let list_strategies =
    Arg.(
      value & flag
      & info [ "list-strategies" ]
          ~doc:
            "Print the registered strategy kind names (the tokens \
             $(b,--strategies) accepts), one per line, and exit.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the full race telemetry (with timings) as JSON.")
  in
  let parse_kinds spec =
    if spec = "all" then None
    else
      Some
        (List.map
           (fun name ->
             match Soctest_portfolio.Strategy.kind_of_string name with
             | Some kind -> kind
             | None ->
               failwith
                 (Printf.sprintf
                    "unknown strategy kind %S (expected one of %s, or all)"
                    name
                    (String.concat ", "
                       (List.map Soctest_portfolio.Strategy.kind_name
                          Soctest_portfolio.Strategy.all_kinds))))
           (String.split_on_char ',' (String.trim spec)))
  in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:
            "Save the winning schedule in the textual schedule format \
             (byte-identical across $(b,--jobs) values).")
  in
  let run soc width jobs deadline strategies list_strategies preempt power
      csv json save trace metrics obs_summary =
    wrap (fun () ->
        if list_strategies then
          List.iter
            (fun k ->
              print_endline (Soctest_portfolio.Strategy.kind_name k))
            Soctest_portfolio.Strategy.all_kinds
        else
        with_obs ~trace ~metrics ~summary:obs_summary @@ fun () ->
        let soc = load_soc soc in
        (* one engine cache for the whole race: strategies share Pareto
           analyses and dedup overlapping evaluations *)
        let engine = Engine.create () in
        let prepared = Engine.prepare engine soc in
        let constraints = constraints_of ~power ~preempt soc in
        let strats =
          Soctest_portfolio.Strategy.default ?kinds:(parse_kinds strategies)
            ~eval:(Engine.evaluator engine)
            ~pareto:
              (Engine.pareto engine ~wmax:(Optimizer.wmax_of prepared))
            prepared ~tam_width:width ~constraints
        in
        if strats = [] then
          failwith
            "no strategies to race (note: exact-bnb is gated to SOCs with \
             at most 12 cores)";
        let jobs = if jobs <= 0 then None else Some jobs in
        let r =
          Soctest_portfolio.Portfolio.run ?jobs ?deadline_ms:deadline strats
        in
        Printf.printf "SOC %s at W=%d: raced %d strategies on %d domain(s)\n"
          soc.Soc_def.name width (List.length strats)
          r.Soctest_portfolio.Portfolio.jobs;
        Printf.printf "winner: %s -> testing time %d cycles\n"
          r.Soctest_portfolio.Portfolio.winner_name
          r.Soctest_portfolio.Portfolio.winner
            .Soctest_portfolio.Strategy.testing_time;
        List.iter
          (fun (id, w) ->
            Printf.printf "  core %2d (%s): width %d\n" id
              (Soc_def.core soc id).Core_def.name w)
          r.Soctest_portfolio.Portfolio.winner.Soctest_portfolio.Strategy
            .widths;
        print_string
          (Soctest_portfolio.Telemetry.summary_table r);
        write_csv csv (Soctest_portfolio.Telemetry.csv r);
        (match json with
        | None -> ()
        | Some path ->
          write_string_to_file path
            (Soctest_portfolio.Telemetry.json r);
          Printf.printf "(json written to %s)\n" path);
        match save with
        | None -> ()
        | Some path ->
          Soctest_tam.Schedule_io.to_file path
            r.Soctest_portfolio.Portfolio.winner
              .Soctest_portfolio.Strategy.schedule;
          Printf.printf "schedule saved to %s\n" path)
  in
  Cmd.v
    (Cmd.info "portfolio"
       ~doc:
         "Race the optimizer parameter grid, annealing restarts, polish, \
          the baselines, the rectangle-bin-packing family and the exact \
          branch-and-bound concurrently across OCaml domains; the winner \
          is selected deterministically (best makespan, ties by registration \
          order — never by completion order).")
    Term.(
      ret
        (const run $ soc_arg ~default:"d695" $ width_arg ~default:32 $ jobs
       $ deadline $ strategies $ list_strategies $ preempt_arg $ power_arg
       $ csv_arg $ json $ save $ trace_arg $ metrics_arg
       $ obs_summary_arg))

(* ------------------------------------------------------------------ *)
(* utility commands *)

let soc_info_cmd =
  let spec =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SOC" ~doc:"Benchmark name or .soc file.")
  in
  let run spec =
    wrap (fun () ->
        let soc = load_soc spec in
        Format.printf "%a@." Soc_def.pp_summary soc;
        Format.printf "total test data: %d bits@."
          (Soc_def.total_test_data_bits soc);
        List.iter
          (fun (p, c) -> Format.printf "hierarchy: core %d contains %d@." p c)
          soc.Soc_def.hierarchy;
        List.iter
          (fun (e, ids) ->
            Format.printf "BIST engine %d shared by cores %s@." e
              (String.concat ", " (List.map string_of_int ids)))
          (Soc_def.bist_groups soc))
  in
  Cmd.v
    (Cmd.info "soc-info" ~doc:"Summarize an SOC description.")
    Term.(ret (const run $ spec))

let export_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Output path (default: <soc>.soc in the current directory).")
  in
  let run soc_name out =
    wrap (fun () ->
        let soc = load_soc soc_name in
        let path =
          match out with
          | Some p -> p
          | None -> soc.Soc_def.name ^ ".soc"
        in
        Soctest_soc.Soc_writer.to_file path soc;
        Printf.printf "wrote %s (%d cores)\n" path (Soc_def.core_count soc))
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Write a benchmark SOC out in the .soc text format.")
    Term.(ret (const run $ soc_arg ~default:"d695" $ out))

let schedule_cmd =
  let gantt =
    Arg.(value & flag & info [ "gantt" ] ~doc:"Render an ASCII Gantt chart.")
  in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:"Save the schedule in the textual schedule format.")
  in
  let budget_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget-ms" ] ~docv:"MS"
          ~doc:
            "Search the full parameter grid, but stop after $(docv) \
             milliseconds of wall clock and keep the best schedule found \
             so far (at least one grid point is always evaluated).")
  in
  let run soc width preempt power gantt save budget_ms store trace metrics
      obs_summary =
    wrap (fun () ->
        with_obs ~trace ~metrics ~summary:obs_summary @@ fun () ->
        let soc = load_soc soc in
        let constraints = constraints_of ~power ~preempt soc in
        let engine = Engine.create ?store:(open_store store) () in
        let r, budget_note =
          match budget_ms with
          | None -> (Flow.solve ~engine ~constraints soc ~tam_width:width, None)
          | Some ms ->
            let o =
              Engine.solve engine
                (Engine.request ~grid:Engine.default_grid
                   ~budget:(Budget.create ~deadline_ms:ms ()) soc
                   ~tam_width:width ~constraints ())
            in
            let note =
              match o.Engine.status with
              | Engine.Deadline ->
                Printf.sprintf
                  "budget expired: kept best of %d grid evaluation(s)"
                  o.Engine.evaluations
              | Engine.Complete ->
                Printf.sprintf "grid complete: %d evaluation(s)"
                  o.Engine.evaluations
            in
            (o.Engine.result, Some note)
        in
        Printf.printf "SOC %s at W=%d: testing time %d cycles\n"
          soc.Soc_def.name width r.Optimizer.testing_time;
        let lb =
          Soctest_core.Lower_bound.compute_constrained
            (Engine.prepare engine soc) ~tam_width:width ~constraints
        in
        Printf.printf "lower bound %d cycles, gap %.1f%%\n" lb
          (Soctest_core.Lower_bound.gap_pct ~lower_bound:lb
             r.Optimizer.testing_time);
        Option.iter (Printf.printf "(%s)\n") budget_note;
        (match Engine.store engine with
        | None -> ()
        | Some s ->
          let ss = Engine.store_stats engine in
          Printf.printf
            "(store %s: %d disk hit(s), %d solve(s) written, %d entries)\n"
            (Store.path s) ss.Engine.hits ss.Engine.misses (Store.length s));
        List.iter
          (fun (id, w) ->
            Printf.printf "  core %2d (%s): width %d%s\n" id
              (Soc_def.core soc id).Core_def.name w
              (match List.assoc_opt id r.Optimizer.preemptions with
              | Some p -> Printf.sprintf ", %d preemption(s)" p
              | None -> ""))
          r.Optimizer.widths;
        if gantt then begin
          print_string (Soctest_tam.Gantt.render r.Optimizer.schedule);
          print_string
            (Soctest_tam.Gantt.legend r.Optimizer.schedule (fun id ->
                 (Soc_def.core soc id).Core_def.name))
        end;
        match save with
        | None -> ()
        | Some path ->
          Soctest_tam.Schedule_io.to_file path r.Optimizer.schedule;
          Printf.printf "schedule saved to %s\n" path)
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Co-optimize and schedule one SOC.")
    Term.(
      ret
        (const run $ soc_arg ~default:"d695" $ width_arg ~default:32
       $ preempt_arg $ power_arg $ gantt $ save $ budget_ms $ store_arg
       $ trace_arg $ metrics_arg $ obs_summary_arg))

let check_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SCHEDULE" ~doc:"Schedule file to audit.")
  in
  let power_limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "power-limit" ] ~docv:"N"
          ~doc:
            "Audit against an explicit power limit of $(docv) (overrides \
             $(b,--power)'s derived default).")
  in
  let wmax =
    Arg.(
      value & opt int 64
      & info [ "wmax" ] ~docv:"W"
          ~doc:
            "Per-core TAM width cap the Pareto staircases are re-derived \
             at; must match the wmax the schedule was solved with.")
  in
  let partial =
    Arg.(
      value & flag
      & info [ "partial" ]
          ~doc:
            "Allow schedules that do not cover every SOC core (skip the \
             completeness check).")
  in
  let run soc_name file power power_limit preempt wmax partial =
    wrap (fun () ->
        let soc = load_soc soc_name in
        let sched =
          try Soctest_tam.Schedule_io.of_file file
          with Soctest_tam.Schedule_io.Parse_error e ->
            failwith
              (Format.asprintf "%a" Soctest_tam.Schedule_io.pp_error e)
        in
        let constraints = constraints_of ?power_limit ~power ~preempt soc in
        let spec =
          Soctest_check.Audit.spec ~wmax ~require_complete:(not partial)
            constraints
        in
        let report = Soctest_check.Audit.run soc spec sched in
        if Soctest_check.Audit.ok report then
          Printf.printf
            "%s: audit clean for %s (W=%d, makespan %d, utilization %.1f%%, \
             %d checks over %d slices)\n"
            file soc.Soc_def.name sched.Soctest_tam.Schedule.tam_width
            report.Soctest_check.Audit.makespan
            (100. *. Soctest_tam.Schedule.utilization sched)
            report.Soctest_check.Audit.checks_run
            report.Soctest_check.Audit.slices_audited
        else begin
          List.iter
            (fun v ->
              Format.eprintf "%s: %a@." file Soctest_check.Audit.pp_violation
                v)
            report.Soctest_check.Audit.violations;
          failwith
            (Printf.sprintf "%d violation(s)"
               (List.length report.Soctest_check.Audit.violations))
        end)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Audit a saved schedule from first principles: wire occupancy, \
          width discipline, Pareto consistency, time accounting, \
          constraints and tester-image totals.")
    Term.(
      ret
        (const run $ soc_arg ~default:"d695" $ file $ power_arg $ power_limit
       $ preempt_arg $ wmax $ partial))

(* ------------------------------------------------------------------ *)
(* serve: the concurrent scheduling service *)

let default_workers () = max 1 (Domain.recommended_domain_count () - 1)

(* Structured-logging flags shared by serve and bench-serve. *)

let log_level_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Emit structured JSON log lines at $(docv) (debug, info, warn, \
           error) and above; without this flag logging stays a no-op.")

let log_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-file" ] ~docv:"FILE"
        ~doc:
          "Append log lines to $(docv) instead of stderr (implies \
           $(b,--log-level) info when that flag is absent).")

let slow_ms_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:
          "Dump the flight record of any request slower than $(docv) \
           milliseconds end-to-end through the structured log.")

let setup_logging ~level ~file =
  match (level, file) with
  | None, None -> ()
  | _ ->
    let level =
      match level with
      | None -> Log.Info
      | Some s -> (
        match Log.level_of_string s with
        | Some l -> l
        | None ->
          failwith
            (Printf.sprintf
               "--log-level %s: expected debug, info, warn or error" s))
    in
    Log.enable ~level ?file ()

let serve_cmd =
  let port =
    Arg.(
      value & opt int 8080
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Port to listen on (loopback only). 0 picks an ephemeral one.")
  in
  let workers =
    Arg.(
      value & opt int 0
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Worker domains solving admitted requests (0 = one less than \
             the recommended domain count, at least 1).")
  in
  let queue_depth =
    Arg.(
      value & opt int 64
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Maximum admitted-but-unfinished requests; beyond it the \
             server answers 429 with Retry-After instead of queueing.")
  in
  let max_body =
    Arg.(
      value
      & opt int (1024 * 1024)
      & info [ "max-body" ] ~docv:"BYTES"
          ~doc:"Request body cap; larger payloads are answered 413.")
  in
  let idle_timeout_ms =
    Arg.(
      value & opt float 5_000.
      & info [ "idle-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Close a kept-alive connection after $(docv) without a new \
             request.")
  in
  let max_connections =
    Arg.(
      value & opt int 64
      & info [ "max-connections" ] ~docv:"N"
          ~doc:"Open-connection cap; beyond it accepts are answered 503.")
  in
  let max_conn_requests =
    Arg.(
      value & opt int 1000
      & info [ "max-conn-requests" ] ~docv:"N"
          ~doc:
            "Requests served per connection before it is closed \
             (Connection: close on the last response).")
  in
  let admission_arg =
    let mode_conv =
      Arg.conv
        ( (fun s ->
            match Soctest_serve.Dispatch.mode_of_string s with
            | Some m -> Ok m
            | None -> Error (`Msg (Printf.sprintf "unknown admission %S" s))),
          fun fmt m ->
            Format.pp_print_string fmt
              (Soctest_serve.Dispatch.mode_name m) )
    in
    Arg.(
      value
      & opt mode_conv Soctest_serve.Dispatch.Edf
      & info [ "admission" ] ~docv:"MODE"
          ~doc:
            "Admission-queue order: $(b,edf) (earliest deadline first — \
             budgeted requests overtake unbudgeted ones) or $(b,fifo) \
             (strict arrival order).")
  in
  let max_jobs =
    Arg.(
      value & opt int 256
      & info [ "max-jobs" ] ~docv:"N"
          ~doc:"Async jobs retained at once; beyond it submissions get 503.")
  in
  let job_ttl_ms =
    Arg.(
      value & opt float 300_000.
      & info [ "job-ttl-ms" ] ~docv:"MS"
          ~doc:"Retention of a finished async job's result before eviction.")
  in
  let run port workers queue_depth max_body idle_timeout_ms max_connections
      max_conn_requests admission max_jobs job_ttl_ms store log_level
      log_file slow_ms =
    wrap (fun () ->
        let workers = if workers <= 0 then default_workers () else workers in
        setup_logging ~level:log_level ~file:log_file;
        (* Server.create enables metrics-only Obs recording itself *)
        let cfg =
          Server.config ~port ~workers ~queue_depth ~max_body
            ~idle_timeout_ms ~max_connections ~max_conn_requests ~admission
            ~job_capacity:max_jobs ~job_ttl_ms ?slow_ms ()
        in
        let engine = Engine.create ?store:(open_store store) () in
        let server = Server.create ~engine cfg in
        let stop _ = Server.stop server in
        Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
        Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
        (* a client hanging up mid-response must not kill the daemon *)
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        Printf.printf
          "soctest serve: listening on 127.0.0.1:%d (%d workers, queue \
           depth %d, %s admission)\n\
           endpoints: POST /v1/solve[?mode=async], GET|DELETE \
           /v1/jobs/<id>, POST /v1/check, GET /v1/metrics, GET /metrics, \
           GET /v1/debug/requests, GET /healthz\n\
           %!"
          (Server.port server) workers queue_depth
          (Soctest_serve.Dispatch.mode_name admission);
        (match Engine.store engine with
        | None -> ()
        | Some s ->
          Printf.printf "store: %s (%d warm entries)\n%!" (Store.path s)
            (Store.length s));
        Server.run server;
        print_endline "soctest serve: queue drained, shut down cleanly")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the scheduling service: an HTTP/1.1 keep-alive JSON daemon \
          with bounded, deadline-aware (EDF) admission, per-request \
          deadline budgets, async jobs ($(b,POST /v1/solve?mode=async) \
          then $(b,GET /v1/jobs/<id>)), shared solver caches and audited \
          responses. $(b,--store) layers a persistent result store under \
          the in-memory caches so restarts stay warm and several daemons \
          can share solves. Every response carries an $(b,x-request-id); \
          $(b,GET /metrics) exposes Prometheus text format and $(b,GET \
          /v1/debug/requests) the flight recorder. SIGINT/SIGTERM drain \
          and exit.")
    Term.(
      ret
        (const run $ port $ workers $ queue_depth $ max_body
       $ idle_timeout_ms $ max_connections $ max_conn_requests
       $ admission_arg $ max_jobs $ job_ttl_ms $ store_arg $ log_level_arg
       $ log_file_arg $ slow_ms_arg))

(* ------------------------------------------------------------------ *)
(* bench-serve: per-tier cache accounting and the multi-process farm  *)
(* ------------------------------------------------------------------ *)

(* Per-tier cache counters scraped from one daemon's /v1/metrics. *)
type tier_counts = {
  mem_hits : int;
  mem_misses : int;
  disk_hits : int;
  disk_misses : int;
  disk_rejects : int;
}

let zero_tiers =
  { mem_hits = 0; mem_misses = 0; disk_hits = 0; disk_misses = 0;
    disk_rejects = 0 }

let add_tiers a b =
  {
    mem_hits = a.mem_hits + b.mem_hits;
    mem_misses = a.mem_misses + b.mem_misses;
    disk_hits = a.disk_hits + b.disk_hits;
    disk_misses = a.disk_misses + b.disk_misses;
    disk_rejects = a.disk_rejects + b.disk_rejects;
  }

let sub_tiers a b =
  {
    mem_hits = a.mem_hits - b.mem_hits;
    mem_misses = a.mem_misses - b.mem_misses;
    disk_hits = a.disk_hits - b.disk_hits;
    disk_misses = a.disk_misses - b.disk_misses;
    disk_rejects = a.disk_rejects - b.disk_rejects;
  }

let scrape_tiers ~port =
  let m = Serve_client.json_body (Serve_client.get ~port "/v1/metrics") in
  let get path =
    match Option.bind (Json.member_path path m) Json.to_int with
    | Some i -> i
    | None ->
      failwith
        (Printf.sprintf "bench-serve: /v1/metrics missing %s"
           (String.concat "." path))
  in
  {
    mem_hits = get [ "engine"; "eval"; "hits" ];
    mem_misses = get [ "engine"; "eval"; "misses" ];
    disk_hits = get [ "engine"; "store"; "hits" ];
    disk_misses = get [ "engine"; "store"; "misses" ];
    disk_rejects = get [ "engine"; "store"; "audit_rejects" ];
  }

let sum_tiers ports =
  Array.fold_left (fun acc p -> add_tiers acc (scrape_tiers ~port:p))
    zero_tiers ports

let ratio hits misses =
  if hits + misses = 0 then 0.
  else float_of_int hits /. float_of_int (hits + misses)

(* Fraction of evaluations answered by either cache tier. A memory miss
   that the store answers is not a fresh solve; only
   [mem_misses - disk_hits] evaluations hit the optimizer. *)
let combined_ratio t =
  let total = t.mem_hits + t.mem_misses in
  if total = 0 then 0.
  else float_of_int (total - (t.mem_misses - t.disk_hits)) /. float_of_int total

let bench_percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int (n - 1))))

(* ------------------------------------------------------------------ *)
(* Server-side latency out of the Prometheus exposition: the
   per-endpoint request_ms histogram gives percentiles as the server
   measured them (admission to response written), independent of
   client-side queueing in the load generator. *)

let substring_index s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

(* Cumulative (le, count) buckets of the /v1/solve request_ms series,
   sorted by edge, +Inf last. *)
let scrape_prom_buckets ~port =
  let body = (Serve_client.get ~port "/metrics").Serve_client.body in
  String.split_on_char '\n' body
  |> List.filter_map (fun line ->
         if
           substring_index line "soctest_serve_request_ms_bucket{"
           <> Some 0
           || substring_index line "endpoint=\"/v1/solve\"" = None
         then None
         else
           match substring_index line "le=\"" with
           | None -> None
           | Some i -> (
             let rest =
               String.sub line (i + 4) (String.length line - i - 4)
             in
             match (String.index_opt rest '"', String.index_opt rest '}') with
             | Some q, Some b when q < b ->
               let le_s = String.sub rest 0 q in
               let le =
                 if le_s = "+Inf" then infinity
                 else float_of_string le_s
               in
               let count =
                 String.trim
                   (String.sub rest (b + 1) (String.length rest - b - 1))
               in
               Option.map (fun c -> (le, c)) (int_of_string_opt count)
             | _ -> None))
  |> List.sort compare

let sum_prom_buckets ports =
  Array.fold_left
    (fun acc p ->
      List.fold_left
        (fun acc (le, c) ->
          match List.assoc_opt le acc with
          | Some _ ->
            List.map
              (fun (l, v) -> if l = le then (l, v + c) else (l, v))
              acc
          | None -> acc @ [ (le, c) ])
        acc (scrape_prom_buckets ~port:p))
    [] ports
  |> List.sort compare

let sub_prom_buckets after before =
  List.map
    (fun (le, c) ->
      (le, c - Option.value (List.assoc_opt le before) ~default:0))
    after

let prom_total buckets =
  match List.rev buckets with (_, t) :: _ -> t | [] -> 0

(* The percentile estimate a Prometheus histogram supports, with linear
   interpolation inside the target bucket (the same estimate
   [histogram_quantile] makes): find the first bucket whose cumulative
   count reaches the target rank, then place the quantile
   proportionally between that bucket's lower and upper edge. Reporting
   the bare upper edge — what this function did before — quantizes
   every percentile to a bucket boundary, which is how BENCH_8 ended up
   with p50 = p99 = 50.000. Observations past the last finite edge
   clamp to it, as Prometheus does. *)
let prom_percentile buckets q =
  let total = prom_total buckets in
  if total = 0 then 0.
  else begin
    let target = q *. float_of_int total in
    let finite_max =
      List.fold_left
        (fun acc (le, _) -> if le < infinity then le else acc)
        0. buckets
    in
    (* bucket counts are cumulative in the exposition; the in-bucket
       mass is the cumulative step over the previous edge *)
    let rec find lower prev_cum = function
      | [] -> finite_max
      | (le, cum) :: rest ->
        if float_of_int cum >= target then
          if le = infinity then finite_max
          else
            let in_bucket = cum - prev_cum in
            if in_bucket <= 0 then le
            else
              lower
              +. (le -. lower)
                 *. ((target -. float_of_int prev_cum)
                    /. float_of_int in_bucket)
        else find le cum rest
    in
    find 0. 0 buckets
  end

type bench_phase = {
  ph_label : string;
  ph_ok : int;
  ph_wall_ms : float;
  ph_latencies : float array;  (* sorted ascending *)
  ph_tiers : tier_counts;
  ph_prom : (float * int) list;  (* server-side cumulative buckets *)
  ph_budgeted : int;  (* requests issued with a deadline budget *)
  ph_missed : int;  (* budgeted requests that blew their deadline *)
  ph_budgeted_lat : float array;  (* budgeted-class latencies, sorted *)
}

type workload_result = {
  wl_wall_ms : float;
  wl_ok : int;
  wl_latencies : float array;
  wl_budgeted : int;
  wl_missed : int;
  wl_budgeted_lat : float array;
}

(* A budgeted request missed its deadline when the server answered but
   the engine had to stop early: 200 with result.status = "deadline"
   (degraded incumbent), or an outright non-200 (timeout/reject). *)
let reply_missed_deadline (r : Serve_client.response) =
  r.Serve_client.status <> 200
  ||
  match
    Json.member_path [ "result"; "status" ] (Serve_client.json_body r)
  with
  | Some (Json.String "deadline") -> true
  | _ -> false

(* Issue [requests] solves across [ports], request i going to daemon
   (i mod procs) with body ((i / procs) mod distinct) — every distinct
   body visits every daemon, so a shared tier has real cross-process
   hits to offer while private caches must each solve everything.

   [clients] domains pull request indices off a shared counter. Under
   [`Keep_alive] (the default) each client holds one persistent
   connection per daemon and reuses it for every request it issues;
   under [`Close] every request opens a fresh connection — the v1
   behaviour, kept for the throughput comparison. *)
let bench_workload ?(conn_mode = `Keep_alive) ~ports ~requests ~clients
    ~bodies () =
  let n = Array.length ports and d = Array.length bodies in
  let next = Atomic.make 0 in
  let started = Unix.gettimeofday () in
  let worker () =
    let conns = Hashtbl.create 4 in
    let conn_of port =
      match Hashtbl.find_opt conns port with
      | Some c -> c
      | None ->
        let c = Serve_client.connect ~port () in
        Hashtbl.add conns port c;
        c
    in
    let rec go acc =
      let i = Atomic.fetch_and_add next 1 in
      if i >= requests then acc
      else begin
        let port = ports.(i mod n) in
        let body, budgeted = bodies.(i / n mod d) in
        let t0 = Unix.gettimeofday () in
        let outcome =
          match
            match conn_mode with
            | `Keep_alive ->
              Serve_client.call (conn_of port) ~meth:"POST" ~body
                "/v1/solve"
            | `Close -> Serve_client.post ~port ~body "/v1/solve"
          with
          | r ->
            Some (r.Serve_client.status, budgeted && reply_missed_deadline r)
          | exception Serve_client.Error _ -> None
        in
        let lat = (Unix.gettimeofday () -. t0) *. 1000. in
        let status, missed =
          match outcome with
          | Some (s, m) -> (s, m)
          | None -> (0, budgeted)
        in
        go ((status, lat, budgeted, missed) :: acc)
      end
    in
    let results = go [] in
    Hashtbl.iter (fun _ c -> Serve_client.close c) conns;
    results
  in
  let domains =
    List.init (max 1 (min clients requests)) (fun _ -> Domain.spawn worker)
  in
  let results = List.concat_map Domain.join domains in
  let wall_ms = (Unix.gettimeofday () -. started) *. 1000. in
  let ok = List.filter (fun (status, _, _, _) -> status = 200) results in
  let latencies =
    Array.of_list (List.map (fun (_, l, _, _) -> l) ok)
  in
  Array.sort compare latencies;
  let budgeted = List.filter (fun (_, _, b, _) -> b) results in
  let budgeted_lat =
    Array.of_list (List.map (fun (_, l, _, _) -> l) budgeted)
  in
  Array.sort compare budgeted_lat;
  {
    wl_wall_ms = wall_ms;
    wl_ok = List.length ok;
    wl_latencies = latencies;
    wl_budgeted = List.length budgeted;
    wl_missed =
      List.length (List.filter (fun (_, _, _, m) -> m) results);
    wl_budgeted_lat = budgeted_lat;
  }

let print_phase ~requests ph =
  let t = ph.ph_tiers in
  Printf.printf
    "phase %-11s: %d/%d ok, wall %.0f ms, p50 %.1f ms, p99 %.1f ms\n"
    ph.ph_label ph.ph_ok requests ph.ph_wall_ms
    (bench_percentile ph.ph_latencies 0.50)
    (bench_percentile ph.ph_latencies 0.99);
  Printf.printf "  memory tier : %d hits / %d misses (%.0f%% hit)\n"
    t.mem_hits t.mem_misses (100. *. ratio t.mem_hits t.mem_misses);
  Printf.printf
    "  store tier  : %d hits / %d misses, %d audit reject(s) (%.0f%% hit)\n"
    t.disk_hits t.disk_misses t.disk_rejects
    (100. *. ratio t.disk_hits t.disk_misses);
  Printf.printf "  combined    : %.0f%% of evaluations served from cache\n%!"
    (100. *. combined_ratio t);
  if prom_total ph.ph_prom > 0 then
    Printf.printf
      "  server side : p50 ~ %.1f ms, p99 ~ %.1f ms over %d requests \
       (/metrics histogram, interpolated)\n%!"
      (prom_percentile ph.ph_prom 0.50)
      (prom_percentile ph.ph_prom 0.99)
      (prom_total ph.ph_prom);
  if ph.ph_budgeted > 0 then
    Printf.printf
      "  deadlines   : %d/%d budgeted requests missed (%.0f%%), budgeted \
       p99 %.1f ms\n%!"
      ph.ph_missed ph.ph_budgeted
      (100. *. float_of_int ph.ph_missed /. float_of_int ph.ph_budgeted)
      (bench_percentile ph.ph_budgeted_lat 0.99)

let json_of_phase ~requests ~clients ph =
  let t = ph.ph_tiers in
  Json.Obj
    [
      ("label", Json.String ph.ph_label);
      ("requests", Json.Int requests);
      ("ok", Json.Int ph.ph_ok);
      ("clients", Json.Int clients);
      ("wall_ms", Json.Float ph.ph_wall_ms);
      ( "throughput_rps",
        Json.Float (float_of_int requests /. (ph.ph_wall_ms /. 1000.)) );
      ( "latency_ms",
        Json.Obj
          [
            ("p50", Json.Float (bench_percentile ph.ph_latencies 0.50));
            ("p90", Json.Float (bench_percentile ph.ph_latencies 0.90));
            ("p99", Json.Float (bench_percentile ph.ph_latencies 0.99));
            ("max", Json.Float (bench_percentile ph.ph_latencies 1.0));
          ] );
      ( "memory_tier",
        Json.Obj
          [
            ("hits", Json.Int t.mem_hits);
            ("misses", Json.Int t.mem_misses);
            ("hit_ratio", Json.Float (ratio t.mem_hits t.mem_misses));
          ] );
      ( "store_tier",
        Json.Obj
          [
            ("hits", Json.Int t.disk_hits);
            ("misses", Json.Int t.disk_misses);
            ("audit_rejects", Json.Int t.disk_rejects);
            ("hit_ratio", Json.Float (ratio t.disk_hits t.disk_misses));
          ] );
      ("combined_hit_ratio", Json.Float (combined_ratio t));
      ( "deadline",
        Json.Obj
          [
            ("budgeted", Json.Int ph.ph_budgeted);
            ("missed", Json.Int ph.ph_missed);
            ( "miss_rate",
              Json.Float
                (if ph.ph_budgeted = 0 then 0.
                 else
                   float_of_int ph.ph_missed
                   /. float_of_int ph.ph_budgeted) );
            ( "budgeted_p99_ms",
              Json.Float (bench_percentile ph.ph_budgeted_lat 0.99) );
          ] );
      ( "prom_latency_ms",
        Json.Obj
          [
            ("p50", Json.Float (prom_percentile ph.ph_prom 0.50));
            ("p99", Json.Float (prom_percentile ph.ph_prom 0.99));
            ("count", Json.Int (prom_total ph.ph_prom));
          ] );
    ]

(* Spawn `soctest serve --port 0` as a child process and parse the
   bound port out of its banner. The child's stdout stays piped to us
   for its whole life (it prints nothing per-request, so the pipe
   cannot fill). *)
let spawn_daemon ?store ?admission () =
  let r, w = Unix.pipe ~cloexec:true () in
  let argv =
    [ Sys.executable_name; "serve"; "--port"; "0"; "--workers"; "2" ]
    @ (match store with None -> [] | Some p -> [ "--store"; p ])
    @ (match admission with
      | None -> []
      | Some m ->
        [ "--admission"; Soctest_serve.Dispatch.mode_name m ])
  in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let rec await_port () =
    let line =
      try input_line ic
      with End_of_file ->
        failwith "bench-serve: daemon exited before announcing its port"
    in
    match
      Scanf.sscanf_opt line "soctest serve: listening on 127.0.0.1:%d"
        (fun p -> p)
    with
    | Some p -> p
    | None -> await_port ()
  in
  let port = await_port () in
  (pid, port, ic)

let stop_daemon (pid, _port, ic) =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  close_in_noerr ic

(* Pull a few flight records back and report how much of each request's
   end-to-end latency the per-phase decomposition accounts for — the
   observability layer auditing itself. *)
let print_flight_summary ~port =
  let j =
    Serve_client.json_body
      (Serve_client.get ~port "/v1/debug/requests?limit=64")
  in
  match Json.member "requests" j with
  | Some (Json.List records) when records <> [] ->
    let coverage r =
      match (Json.member "total_ms" r, Json.member "phases" r) with
      | Some (Json.Float total), Some (Json.Obj phases) when total > 0. ->
        let sum =
          List.fold_left
            (fun acc (_, v) ->
              match v with Json.Float f -> acc +. f | _ -> acc)
            0. phases
        in
        Some (sum /. total)
      | _ -> None
    in
    let covers = List.filter_map coverage records in
    if covers <> [] then begin
      let n = float_of_int (List.length covers) in
      Printf.printf
        "flight recorder: %d record(s); phase timings cover %.0f%% of \
         end-to-end latency on average (min %.0f%%)\n%!"
        (List.length records)
        (100. *. (List.fold_left ( +. ) 0. covers /. n))
        (100. *. List.fold_left Float.min infinity covers)
    end
  | _ -> ()

let bench_serve_cmd =
  let port =
    Arg.(
      value & opt int 0
      & info [ "port" ] ~docv:"PORT"
          ~doc:
            "Load an already-running server on $(docv); 0 (the default) \
             spawns an in-process server on an ephemeral port. Not \
             meaningful with $(b,--procs).")
  in
  let requests =
    Arg.(
      value & opt int 64
      & info [ "requests" ] ~docv:"N" ~doc:"Total solve requests to issue.")
  in
  let clients =
    Arg.(
      value & opt int 8
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client domains.")
  in
  let budget =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget-ms" ] ~docv:"MS"
          ~doc:"Attach a per-request deadline budget of $(docv).")
  in
  let distinct =
    Arg.(
      value & opt int 4
      & info [ "distinct" ] ~docv:"D"
          ~doc:
            "Number of distinct solve bodies to cycle through (successive \
             TAM widths); controls how much re-use the caches can see.")
  in
  let procs =
    Arg.(
      value & opt int 0
      & info [ "procs" ] ~docv:"N"
          ~doc:
            "Solve-farm mode: spawn $(docv) independent daemon processes \
             and run the workload three times — private in-memory caches, \
             a shared persistent store starting cold, and the same store \
             warm — reporting per-tier hit ratios for each phase.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the latency/throughput/cache report as JSON.")
  in
  let conn_mode_arg =
    Arg.(
      value
      & opt (enum [ ("keep-alive", `Keep_alive); ("close", `Close) ])
          `Keep_alive
      & info [ "conn-mode" ] ~docv:"MODE"
          ~doc:
            "Client connection discipline: $(b,keep-alive) reuses one \
             persistent connection per client per daemon; $(b,close) \
             opens a fresh connection for every request (the v1 \
             behaviour, kept for the throughput comparison).")
  in
  let bench_admission =
    let mode_conv =
      Arg.conv
        ( (fun s ->
            match Soctest_serve.Dispatch.mode_of_string s with
            | Some m -> Ok m
            | None -> Error (`Msg (Printf.sprintf "unknown admission %S" s))),
          fun fmt m ->
            Format.pp_print_string fmt
              (Soctest_serve.Dispatch.mode_name m) )
    in
    Arg.(
      value
      & opt mode_conv Soctest_serve.Dispatch.Edf
      & info [ "admission" ] ~docv:"MODE"
          ~doc:
            "Admission order of the spawned server(s): $(b,edf) or \
             $(b,fifo). Ignored with $(b,--port) (the running server \
             keeps its own setting).")
  in
  let mixed_budgets =
    Arg.(
      value & flag
      & info [ "mixed-budgets" ]
          ~doc:
            "Alternate a deadline-budgeted request class (budget from \
             $(b,--budget-ms), default 20 ms) with an unbudgeted heavy \
             class (a 40 ms server-side stall per request), and report \
             the budgeted class's deadline-miss rate and p99 — the \
             workload that separates $(b,edf) from $(b,fifo) admission.")
  in
  let run soc_name width port requests clients budget distinct procs store
      json conn_mode admission mixed_budgets log_level log_file slow_ms =
    wrap (fun () ->
        if requests < 1 then failwith "--requests must be >= 1";
        if clients < 1 then failwith "--clients must be >= 1";
        if distinct < 1 then failwith "--distinct must be >= 1";
        if procs < 0 then failwith "--procs must be >= 0";
        if procs > 0 && port <> 0 then
          failwith "--procs spawns its own daemons; it conflicts with --port";
        let soc = load_soc soc_name in
        let soc_text = Soctest_soc.Soc_writer.to_string soc in
        let body_for ?budget_ms ?stall_ms ?strategy w =
          let fields =
            [ ("soc_text", Json.String soc_text); ("width", Json.Int w) ]
            @ (match budget_ms with
              | None -> []
              | Some ms -> [ ("budget_ms", Json.Float ms) ])
            @ (match stall_ms with
              | None -> []
              | Some ms -> [ ("stall_ms", Json.Int ms) ])
            @
            match strategy with
            | None -> []
            | Some s -> [ ("strategy", Json.String s) ]
          in
          Json.to_string (Json.Obj fields)
        in
        (* successive widths keep the bodies distinct without changing
           the SOC, so every body exercises the same solver code path *)
        let bodies =
          if mixed_budgets then begin
            (* interleave the two classes so consecutive admissions
               alternate: a short-budget request always has a heavy
               stalled one just ahead of it in a FIFO queue *)
            let short = Option.value budget ~default:20. in
            (* the budgeted class sweeps the parameter grid so an
               expired budget is observable as a degraded (deadline)
               result rather than an uncuttable single evaluation *)
            Array.init (2 * distinct) (fun k ->
                let w = width + 4 * (k / 2) in
                if k mod 2 = 0 then
                  (body_for ~budget_ms:short ~strategy:"grid" w, true)
                else (body_for ~stall_ms:40 w, false))
          end
          else
            Array.init distinct (fun k ->
                ( body_for ?budget_ms:budget (width + 4 * k),
                  budget <> None ))
        in
        let emit_json phases =
          match json with
          | None -> ()
          | Some path ->
            write_string_to_file path
              (Json.to_string
                 (Json.Obj
                    [
                      ("soc", Json.String soc.Soc_def.name);
                      ("width", Json.Int width);
                      ("requests", Json.Int requests);
                      ("clients", Json.Int clients);
                      ("distinct", Json.Int distinct);
                      ("procs", Json.Int procs);
                      ( "conn_mode",
                        Json.String
                          (match conn_mode with
                          | `Keep_alive -> "keep-alive"
                          | `Close -> "close") );
                      ( "admission",
                        Json.String
                          (Soctest_serve.Dispatch.mode_name admission) );
                      ("mixed_budgets", Json.Bool mixed_budgets);
                      ( "phases",
                        Json.List
                          (List.map (json_of_phase ~requests ~clients) phases)
                      );
                    ]));
            Printf.printf "(json written to %s)\n" path
        in
        if procs = 0 then begin
          (* single-server mode: one daemon (in-process unless --port),
             per-tier accounting from /v1/metrics deltas *)
          let spawned =
            if port <> 0 then None
            else begin
              setup_logging ~level:log_level ~file:log_file;
              (* Server.create enables metrics-only Obs itself *)
              let engine = Engine.create ?store:(open_store store) () in
              let server =
                Server.create ~engine
                  (Server.config ~port:0 ~workers:(default_workers ())
                     ~queue_depth:(max 64 (2 * requests)) ~admission
                     ?slow_ms ())
              in
              Some (server, Domain.spawn (fun () -> Server.run server))
            end
          in
          let port =
            match spawned with Some (s, _) -> Server.port s | None -> port
          in
          Printf.printf
            "bench-serve: %d requests (%d distinct) over %d clients against \
             %s W=%d on port %d\n%!"
            requests distinct clients soc.Soc_def.name width port;
          let before = scrape_tiers ~port in
          let prom_before = scrape_prom_buckets ~port in
          let wl =
            bench_workload ~conn_mode ~ports:[| port |] ~requests ~clients
              ~bodies ()
          in
          let after = scrape_tiers ~port in
          let prom_after = scrape_prom_buckets ~port in
          let ph =
            {
              ph_label = "single";
              ph_ok = wl.wl_ok;
              ph_wall_ms = wl.wl_wall_ms;
              ph_latencies = wl.wl_latencies;
              ph_tiers = sub_tiers after before;
              ph_prom = sub_prom_buckets prom_after prom_before;
              ph_budgeted = wl.wl_budgeted;
              ph_missed = wl.wl_missed;
              ph_budgeted_lat = wl.wl_budgeted_lat;
            }
          in
          print_phase ~requests ph;
          Printf.printf "throughput: %.1f req/s (wall %.0f ms)\n"
            (float_of_int requests /. (wl.wl_wall_ms /. 1000.))
            wl.wl_wall_ms;
          print_flight_summary ~port;
          emit_json [ ph ];
          match spawned with
          | None -> ()
          | Some (server, d) ->
            Server.stop server;
            Domain.join d
        end
        else begin
          (* solve-farm mode: N daemon processes, three phases *)
          let tmp_store = store = None in
          let store_path =
            match store with
            | Some p -> p
            | None -> Filename.temp_file "soctest-bench" ".store"
          in
          (* stamp the magic once, before the daemons race to create it *)
          Store.close (Store.open_ store_path);
          let run_phase label store_opt =
            let daemons =
              List.init procs (fun _ ->
                  spawn_daemon ?store:store_opt ~admission ())
            in
            Fun.protect
              ~finally:(fun () -> List.iter stop_daemon daemons)
              (fun () ->
                let ports =
                  Array.of_list (List.map (fun (_, p, _) -> p) daemons)
                in
                let before = sum_tiers ports in
                let prom_before = sum_prom_buckets ports in
                let wl =
                  bench_workload ~conn_mode ~ports ~requests ~clients
                    ~bodies ()
                in
                let after = sum_tiers ports in
                let prom_after = sum_prom_buckets ports in
                {
                  ph_label = label;
                  ph_ok = wl.wl_ok;
                  ph_wall_ms = wl.wl_wall_ms;
                  ph_latencies = wl.wl_latencies;
                  ph_tiers = sub_tiers after before;
                  ph_prom = sub_prom_buckets prom_after prom_before;
                  ph_budgeted = wl.wl_budgeted;
                  ph_missed = wl.wl_missed;
                  ph_budgeted_lat = wl.wl_budgeted_lat;
                })
          in
          Printf.printf
            "bench-serve farm: %d daemons, %d requests (%d distinct) over \
             %d clients against %s W=%d, store %s\n%!"
            procs requests distinct clients soc.Soc_def.name width store_path;
          let p_private = run_phase "private" None in
          print_phase ~requests p_private;
          let p_cold = run_phase "shared-cold" (Some store_path) in
          print_phase ~requests p_cold;
          let p_warm = run_phase "shared-warm" (Some store_path) in
          print_phase ~requests p_warm;
          Printf.printf
            "shared store vs private caches: combined hit ratio %.0f%% \
             (cold) / %.0f%% (warm) vs %.0f%% (private)\n"
            (100. *. combined_ratio p_cold.ph_tiers)
            (100. *. combined_ratio p_warm.ph_tiers)
            (100. *. combined_ratio p_private.ph_tiers);
          emit_json [ p_private; p_cold; p_warm ];
          if tmp_store then Sys.remove store_path
        end)
  in
  Cmd.v
    (Cmd.info "bench-serve"
       ~doc:
         "Load-generate against the scheduling service and report latency \
          percentiles, throughput and per-tier cache hit ratios (memory \
          vs persistent store) from $(b,/v1/metrics) deltas. \
          $(b,--procs N) runs a multi-process solve farm comparing \
          private caches against a shared store, cold and warm.")
    Term.(
      ret
        (const run $ soc_arg ~default:"d695" $ width_arg ~default:32 $ port
       $ requests $ clients $ budget $ distinct $ procs $ store_arg $ json
       $ conn_mode_arg $ bench_admission $ mixed_budgets $ log_level_arg
       $ log_file_arg $ slow_ms_arg))

(* ------------------------------------------------------------------ *)
(* jobs: the async solve lifecycle from the command line              *)
(* ------------------------------------------------------------------ *)

let jobs_cmd =
  let port_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Port of a running $(b,soctest serve).")
  in
  let id_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"JOB" ~doc:"Job id (printed by $(b,jobs submit)).")
  in
  let with_client port f =
    let c = Serve_client.connect ~port () in
    Fun.protect ~finally:(fun () -> Serve_client.close c) (fun () -> f c)
  in
  (* print the JSON document; a 4xx/5xx still fails the command so
     scripts can branch on the exit code *)
  let finish (r : Serve_client.response) =
    print_endline r.Serve_client.body;
    if r.Serve_client.status >= 400 then
      failwith (Printf.sprintf "http %d" r.Serve_client.status)
  in
  let submit =
    let budget =
      Arg.(
        value
        & opt (some float) None
        & info [ "budget-ms" ] ~docv:"MS"
            ~doc:"Attach a deadline budget of $(docv) to the solve.")
    in
    let await_flag =
      Arg.(
        value & flag
        & info [ "await" ]
            ~doc:
              "Wait for the job to finish and print its result instead \
               of returning right after the 202.")
    in
    let run soc_name width port budget await_flag =
      wrap (fun () ->
          let soc = load_soc soc_name in
          let fields =
            [
              ( "soc_text",
                Json.String (Soctest_soc.Soc_writer.to_string soc) );
              ("width", Json.Int width);
            ]
            @
            match budget with
            | None -> []
            | Some ms -> [ ("budget_ms", Json.Float ms) ]
          in
          let body = Json.to_string (Json.Obj fields) in
          with_client port (fun c ->
              let id = Serve_client.solve_async c ~body in
              if not await_flag then
                Printf.printf "job %s accepted (GET /v1/jobs/%s)\n" id id
              else begin
                Printf.printf "job %s accepted, awaiting result...\n%!" id;
                finish (Serve_client.await_job c id)
              end))
    in
    Cmd.v
      (Cmd.info "submit"
         ~doc:
           "POST the solve as an async job (202) and print its id — or \
            its final result with $(b,--await).")
      Term.(
        ret
          (const run $ soc_arg ~default:"d695" $ width_arg ~default:32
         $ port_arg $ budget $ await_flag))
  in
  let simple name doc f =
    let run port id = wrap (fun () -> with_client port (fun c -> f c id)) in
    Cmd.v (Cmd.info name ~doc) Term.(ret (const run $ port_arg $ id_arg))
  in
  let status =
    simple "status"
      "GET /v1/jobs/<id>: a status document while queued/running, the \
       replayed solve response once done."
      (fun c id -> finish (Serve_client.job_status c id))
  in
  let cancel =
    simple "cancel"
      "DELETE /v1/jobs/<id>: cancel a queued job immediately, or ask a \
       running one to stop at its next budget poll."
      (fun c id -> finish (Serve_client.cancel_job c id))
  in
  let await =
    simple "await"
      "Poll until the job leaves queued/running and print the final \
       document."
      (fun c id -> finish (Serve_client.await_job c id))
  in
  Cmd.group
    (Cmd.info "jobs"
       ~doc:
         "Drive the serve daemon's async job API: submit a solve, poll \
          its status, cancel it, or await its result.")
    [ submit; status; cancel; await ]

let store_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"The store file.")
  in
  let stats =
    let run file =
      wrap (fun () ->
          let r = Store.verify file in
          Printf.printf "store %s:\n" file;
          Printf.printf "  entries      : %d\n" r.Store.v_entries;
          Printf.printf "  records      : %d (%d superseded)\n"
            r.Store.v_records
            (r.Store.v_records - r.Store.v_entries);
          Printf.printf "  corrupt      : %d record(s) skipped\n"
            r.Store.v_corrupt;
          Printf.printf "  torn tail    : %d byte(s)\n" r.Store.v_torn_bytes;
          Printf.printf "  file size    : %d byte(s)\n" r.Store.v_file_bytes)
    in
    Cmd.v
      (Cmd.info "stats"
         ~doc:"Scan a store file and print record/entry/corruption counts.")
      Term.(ret (const run $ file_arg))
  in
  let verify =
    let run file =
      wrap (fun () ->
          let r = Store.verify file in
          let bad = ref 0 in
          let s = Store.open_ ~readonly:true file in
          Fun.protect
            ~finally:(fun () -> Store.close s)
            (fun () ->
              Store.iter s (fun ~key ~payload ->
                  match Engine.result_of_payload payload with
                  | Ok _ -> ()
                  | Error e ->
                    incr bad;
                    Printf.printf "undecodable entry %s: %s\n" key e));
          Printf.printf
            "verified %s: %d live entries, %d corrupt record(s), %d torn \
             byte(s), %d undecodable payload(s)\n"
            file r.Store.v_entries r.Store.v_corrupt r.Store.v_torn_bytes !bad;
          if r.Store.v_corrupt > 0 || r.Store.v_torn_bytes > 0 || !bad > 0
          then failwith "store has damage (recoverable; see above)")
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Deep-check a store file: CRC every record and decode every \
            live payload; non-zero exit when anything is damaged.")
      Term.(ret (const run $ file_arg))
  in
  let compact =
    let run file =
      wrap (fun () ->
          let s = Store.open_ file in
          Fun.protect
            ~finally:(fun () -> Store.close s)
            (fun () ->
              let reclaimed = Store.compact s in
              Printf.printf "compacted %s: %d byte(s) reclaimed, %d entries\n"
                file reclaimed (Store.length s)))
    in
    Cmd.v
      (Cmd.info "compact"
         ~doc:
           "Rewrite a store file keeping only the latest intact record \
            per key, dropping superseded, corrupt and torn bytes.")
      Term.(ret (const run $ file_arg))
  in
  Cmd.group
    (Cmd.info "store"
       ~doc:
         "Inspect and maintain persistent result stores (see $(b,--store) \
          on $(b,schedule), $(b,serve) and $(b,bench-serve)).")
    [ stats; verify; compact ]

let debug_cmd =
  let port_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Port of a running $(b,soctest serve) daemon.")
  in
  let limit_arg =
    Arg.(
      value & opt int 32
      & info [ "limit" ] ~docv:"N"
          ~doc:"Newest flight records to fetch (default 32).")
  in
  let requests =
    let run port limit =
      wrap (fun () ->
          let j =
            Serve_client.json_body
              (Serve_client.get ~port
                 (Printf.sprintf "/v1/debug/requests?limit=%d" limit))
          in
          let records =
            match Json.member "requests" j with
            | Some (Json.List rs) -> rs
            | _ -> failwith "debug requests: malformed response"
          in
          if records = [] then print_endline "flight recorder is empty"
          else
            List.iter
              (fun r ->
                let str k =
                  match Json.member k r with
                  | Some (Json.String s) -> s
                  | _ -> "?"
                in
                let num k =
                  match Json.member k r with
                  | Some (Json.Float f) -> f
                  | Some (Json.Int i) -> float_of_int i
                  | _ -> Float.nan
                in
                let flag k =
                  match Json.member k r with
                  | Some (Json.Bool b) -> b
                  | _ -> false
                in
                Printf.printf "%s %s %.0f %8.2f ms  tier=%s%s%s%s\n"
                  (str "id") (str "endpoint") (num "status") (num "total_ms")
                  (str "tier")
                  (if flag "slow" then " slow" else "")
                  (if flag "store_rejected" then " store-reject" else "")
                  (if flag "healed" then " healed" else "");
                match Json.member "phases" r with
                | Some (Json.Obj phases) ->
                  List.iter
                    (fun (name, v) ->
                      match v with
                      | Json.Float f ->
                        Printf.printf "    %-12s %8.3f ms\n" name f
                      | _ -> ())
                    phases
                | _ -> ())
              records)
    in
    Cmd.v
      (Cmd.info "requests"
         ~doc:
           "Fetch $(b,GET /v1/debug/requests) from a running daemon and \
            print the flight recorder: the last completed requests with \
            their per-phase timing decomposition, cache tier and \
            store-audit flags, newest first.")
      Term.(ret (const run $ port_arg $ limit_arg))
  in
  Cmd.group
    (Cmd.info "debug"
       ~doc:"Interrogate a running $(b,soctest serve) daemon.")
    [ requests ]

let synth_cmd =
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:"PRNG seed (generation is fully deterministic given it).")
  in
  let cores =
    Arg.(value & opt int 6 & info [ "cores" ] ~docv:"N" ~doc:"Core count.")
  in
  let data_bits =
    Arg.(
      value & opt int 2_000_000
      & info [ "data-bits" ] ~docv:"BITS"
          ~doc:"Aggregate test data volume target.")
  in
  let big =
    Arg.(
      value & opt float 0.25
      & info [ "big-fraction" ] ~docv:"F"
          ~doc:"Fraction of cores drawn from the large regime.")
  in
  let comb =
    Arg.(
      value & opt float 0.25
      & info [ "comb-fraction" ] ~docv:"F"
          ~doc:"Fraction of cores with no internal scan.")
  in
  let hierarchy =
    Arg.(
      value & opt int 0
      & info [ "hierarchy" ] ~docv:"N" ~doc:"Parent/child pairs to create.")
  in
  let bist =
    Arg.(
      value & opt int 0
      & info [ "bist" ] ~docv:"N" ~doc:"Shared BIST engines to scatter.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Output path (default: <name>.soc in the current directory).")
  in
  let run seed cores data_bits big comb hierarchy bist out =
    wrap (fun () ->
        let name = Printf.sprintf "synth-s%d-c%d" seed cores in
        let soc =
          Soctest_soc.Synth.generate
            {
              Soctest_soc.Synth.name;
              seed = Int64.of_int seed;
              core_count = cores;
              target_data_bits = data_bits;
              big_core_fraction = big;
              combinational_fraction = comb;
              hierarchy_pairs = hierarchy;
              bist_engines = bist;
            }
        in
        let path = match out with Some p -> p | None -> name ^ ".soc" in
        Soctest_soc.Soc_writer.to_file path soc;
        Printf.printf "wrote %s (%d cores, %d bits)\n" path
          (Soc_def.core_count soc)
          (Soc_def.total_test_data_bits soc))
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:
         "Generate a deterministic synthetic SOC (.soc file) — the \
          small-SOC instances of the pack benchmark.")
    Term.(
      ret
        (const run $ seed $ cores $ data_bits $ big $ comb $ hierarchy
       $ bist $ out))

let pack_bench_cmd =
  let node_limit =
    Arg.(
      value & opt int 2_000_000
      & info [ "node-limit" ] ~docv:"N" ~doc:"Branch-and-bound node cap.")
  in
  let bnb_max_cores =
    Arg.(
      value & opt int 12
      & info [ "bnb-max-cores" ] ~docv:"N"
          ~doc:"Skip the exact solver above this core count.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the JSON record to $(docv) instead of stdout.")
  in
  let run soc width power preempt node_limit bnb_max_cores out =
    wrap (fun () ->
        let soc = load_soc soc in
        let constraints = constraints_of ~power ~preempt soc in
        let engine = Engine.create () in
        let prepared = Engine.prepare engine soc in
        let lb =
          Soctest_core.Lower_bound.compute_constrained prepared
            ~tam_width:width ~constraints
        in
        (* every schedule in the record has passed the full audit *)
        let audit_spec =
          Engine.audit_spec engine ~wmax:(Optimizer.wmax_of prepared)
            ~expect_tam_width:width constraints
        in
        let audit name sched =
          let rep = Soctest_check.Audit.run soc audit_spec sched in
          if not (Soctest_check.Audit.ok rep) then
            failwith
              (Format.asprintf "%s: audit failed: %a" name
                 Soctest_check.Audit.pp_report rep)
        in
        (* (name, time, extra JSON fields) per strategy, in record order *)
        let solved =
          List.map
            (fun (name, strategy) ->
              let r =
                (Engine.solve engine
                   {
                     (Engine.request soc ~tam_width:width ~constraints ())
                     with
                     strategy;
                   })
                  .Engine.result
              in
              audit name r.Optimizer.schedule;
              (name, r.Optimizer.testing_time, []))
            [
              ("heuristic", Engine.Search Engine.point_grid);
              ("rectpack", Engine.Pack Soctest_pack.Rectpack.Plain);
              ("rectpack-diagonal", Engine.Pack Soctest_pack.Rectpack.Diagonal);
            ]
        in
        let bnb =
          if Soc_def.core_count soc <= bnb_max_cores then begin
            let o =
              Soctest_pack.Bnb.solve ~node_limit prepared ~tam_width:width
                ~constraints
            in
            audit "exact-bnb" o.Soctest_pack.Bnb.schedule;
            Some o
          end
          else None
        in
        let exact_time =
          match bnb with
          | Some o when o.Soctest_pack.Bnb.optimal ->
            Some o.Soctest_pack.Bnb.testing_time
          | _ -> None
        in
        let pct lower_bound t =
          Json.Float (Soctest_core.Lower_bound.gap_pct ~lower_bound t)
        in
        let entry ?(extra = []) t =
          Json.Obj
            ([ ("time", Json.Int t); ("gap_vs_lb_pct", pct lb t) ]
            @ (match exact_time with
              | Some e -> [ ("gap_to_exact_pct", pct e t) ]
              | None -> [])
            @ extra)
        in
        let entries =
          solved
          @
          match bnb with
          | Some o ->
            [
              ( "exact-bnb",
                o.Soctest_pack.Bnb.testing_time,
                [
                  ("optimal", Json.Bool o.Soctest_pack.Bnb.optimal);
                  ("nodes", Json.Int o.Soctest_pack.Bnb.nodes);
                ] );
            ]
          | None -> []
        in
        let winner, _, _ =
          List.fold_left
            (fun ((_, bt, _) as best) ((_, t, _) as e) ->
              if t < bt then e else best)
            ("heuristic", max_int, []) entries
        in
        let record =
          Json.Obj
            [
              ("soc", Json.String soc.Soc_def.name);
              ("cores", Json.Int (Soc_def.core_count soc));
              ("tam_width", Json.Int width);
              ("lower_bound", Json.Int lb);
              ( "strategies",
                Json.Obj
                  (List.map (fun (n, t, extra) -> (n, entry ~extra t)) entries)
              );
              ("winner", Json.String winner);
              ("audited", Json.Bool true);
            ]
        in
        let rendered = Json.to_string record in
        match out with
        | None -> print_endline rendered
        | Some path ->
          write_string_to_file path (rendered ^ "\n");
          Printf.printf "(json written to %s)\n" path)
  in
  Cmd.v
    (Cmd.info "pack-bench"
       ~doc:
         "Run the DAC'02 heuristic, both rectangle packers and (on small \
          SOCs) the exact branch-and-bound on one instance; audit every \
          schedule and emit a JSON record with per-strategy times, \
          lower-bound and gap-to-exact figures.")
    Term.(
      ret
        (const run $ soc_arg ~default:"mini4" $ width_arg ~default:16
       $ power_arg $ preempt_arg $ node_limit $ bnb_max_cores $ out))

let main_cmd =
  let doc =
    "wrapper/TAM co-optimization, constraint-driven test scheduling and \
     tester data volume reduction for SOCs (DAC 2002 reproduction)"
  in
  Cmd.group
    (Cmd.info "soctest" ~version:"1.0.0" ~doc)
    [
      table1_cmd; table2_cmd; fig1_cmd; fig2_cmd; fig9_cmd; ablate_cmd;
      all_cmd; soc_info_cmd; schedule_cmd; export_cmd; extras_cmd; verilog_cmd;
      check_cmd; stil_cmd; sweep_cmd; portfolio_cmd;
      synth_cmd; pack_bench_cmd;
      serve_cmd; bench_serve_cmd; jobs_cmd; debug_cmd; store_cmd;
    ]

let () = exit (Cmd.eval main_cmd)

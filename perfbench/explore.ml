(* explore: the paper's Table-1/Table-2 search, closed loop, one
   caller. A session takes one ITC'02 SOC and one fresh engine and runs the
   208-point default grid (Problem 2) at W = 8, 16, ..., 64; one op is
   one width's grid solve. Pareto staircases are computed once per
   session and reused by every width, so the scheduler and the
   constraint checks carry the load. After each op the same width is
   asked again and answered from the engine's memory tier (the
   reload). *)

open Util
module Engine = Soctest_engine.Engine
module Optimizer = Soctest_core.Optimizer
module Lower_bound = Soctest_core.Lower_bound
module Audit = Soctest_check.Audit
module Store = Soctest_store.Store
module Soc_def = Soctest_soc.Soc_def

let wmax = 64

type op = {
  req : Engine.request;
  lower_bound : int;
  label : string;
  body : string;
}

let sessions ~seed =
  let e = Engine.create () in
  List.map
    (fun soc ->
      let constraints = Inputs.p2_constraints soc in
      let prepared = Engine.prepare e ~wmax soc in
      List.map
        (fun width ->
          {
            req =
              Engine.request soc ~tam_width:width ~constraints
                ~grid:Engine.default_grid ();
            lower_bound =
              Lower_bound.compute_constrained prepared ~tam_width:width
                ~constraints;
            label = Printf.sprintf "%s W=%d" soc.Soc_def.name width;
            body = Inputs.solve_body ~p2:true ~grid:true soc width;
          })
        Inputs.explore_widths)
    (Inputs.explore_cycle ~seed)

let grid_size = List.length (Optimizer.grid_points ~wmax ())

let check golden engine op (o : Engine.outcome) =
  let req = op.req in
  let r = o.Engine.result in
  let report =
    Audit.run req.Engine.soc
      (Engine.audit_spec engine ~wmax ~expect_tam_width:req.Engine.tam_width
         req.Engine.constraints)
      r.Optimizer.schedule
  in
  expect (Audit.ok report) "audit failed"
  @ expect
      (report.Audit.makespan = r.Optimizer.testing_time)
      "reported makespan differs from the audited one"
  @ expect (o.Engine.status = Engine.Complete) "grid incomplete"
  @ expect (o.Engine.evaluations = grid_size) "grid size"
  @ Golden.check golden
      (Golden.key ~kind:"p2-grid" req.Engine.soc req.Engine.tam_width)
      r.Optimizer.testing_time

let session ~tally ~golden ~probe_store ~first ~mode s ops =
  let traced = mode = `Traced in
  let engine = Engine.create () in
  let op_ms = ref 0. in
  List.iteri
    (fun i op ->
      let solved = ref None in
      ignore
        (attempt tally ("grid " ^ op.label) (fun () ->
             Trace.new_op ();
             let o, ms =
               time_ms (fun () ->
                   Trace.span "op.solve" (fun () ->
                       if traced && i = 0 then
                         ignore
                           (Trace.span "wrapper.prepare" (fun () ->
                                Engine.prepare engine ~wmax op.req.Engine.soc));
                       match
                         Trace.span "engine.solve" (fun () ->
                             Engine.solve_many engine [ op.req ])
                       with
                       | [ o ] -> o
                       | _ -> failwith "solve_many: one outcome per request"))
             in
             solved := Some o;
             op_ms := !op_ms +. ms;
             if traced then Layers.note_solve_overhead o.Engine.stats
             else begin
               add_op s ms;
               s.evals <- s.evals + o.Engine.stats.Engine.eval_computed
             end;
             if mode = `Baseline then Layers.note_solve_work o.Engine.stats;
             if first then
               s.gaps <-
                 gap_pct ~lower_bound:op.lower_bound
                   o.Engine.result.Optimizer.testing_time
                 :: s.gaps;
             check golden engine op o));
      match !solved with
      | None -> ()
      | Some solved ->
        ignore
          (attempt tally ("reload " ^ op.label) (fun () ->
               let o, ms =
                 time_ms (fun () ->
                     Trace.span "op.reload" (fun () ->
                         Engine.solve engine op.req))
               in
               if not traced then s.reload_ms <- ms :: s.reload_ms;
               expect
                 (o.Engine.stats.Engine.eval_cached = grid_size)
                 "reload missed the memory tier"
               @ expect
                   (Cold.same_result solved.Engine.result o.Engine.result)
                   "reload differs from its solve"));
        if traced then begin
          Trace.note "bench.unattributed_ms"
            ((Trace.last "op.solve").Trace.self_us /. 1e3);
          Trace.later (fun () ->
              Probes.layers ~store:probe_store ~body:op.body engine op.req;
              Probes.evals engine op.req (Optimizer.grid_points ~wmax ()))
        end)
    ops;
  let n = float_of_int (List.length ops) in
  if traced then begin
    (* the session's wrapper share: its one preparation over its ops *)
    let w = Trace.last "wrapper.prepare" in
    Trace.note "wrapper.self_share_pct" (w.Trace.self_us /. 10. /. !op_ms);
    Trace.note "wrapper.minor_kw_per_op" (w.Trace.minor_words /. 1e3 /. n);
    (* the session's only wrapper work is its one preparation *)
    let soc = (List.hd ops).req.Engine.soc in
    Trace.later (fun () ->
        Trace.note "wrapper.bfd_packs_per_op"
          (float_of_int (Probes.prepare_packs soc) /. n))
  end;
  if mode = `Baseline then Layers.note_engine_ratios engine

let run ~seed ~seconds ~dir ~golden ~trace =
  let sessions, setup_s = setup_repeated 7 (fun () -> sessions ~seed) in
  let tally = tally () in
  let s = samples () in
  let probe_store = Cold.fresh_store (Filename.concat dir "probe.store") in
  let cycles =
    rounds ~seconds ~trace (fun ~first mode ->
        List.iter (session ~tally ~golden ~probe_store ~first ~mode s) sessions;
        end_round s)
  in
  Store.close probe_store;
  log "explore: %d cycles of %d sessions" cycles (List.length sessions);
  if trace then begin
    Layers.note_overhead ~untraced_ms:s.op_ms ~traced_span:"op.solve";
    (tally, Layers.metrics ())
  end
  else (tally, closed_loop_metrics s ~setup_s)

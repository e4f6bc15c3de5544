(* cold: the first-request / CLI path, closed loop, one caller. A solve
   op builds a fresh engine over the pass's store and solves one
   seeded SOC (Problem 2, point strategy); a reload op follows on a
   second fresh engine over the same store, so the result comes back
   from disk (find, decode, audit-on-load). Each pass starts from an
   empty store, so every solve is cold. *)

open Util
module Engine = Soctest_engine.Engine
module Optimizer = Soctest_core.Optimizer
module Lower_bound = Soctest_core.Lower_bound
module Audit = Soctest_check.Audit
module Store = Soctest_store.Store
module Schedule_io = Soctest_tam.Schedule_io
module Soc_def = Soctest_soc.Soc_def

type item = {
  req : Engine.request;
  lower_bound : int option;  (** ITC'02 SOCs only: they set the gap *)
  label : string;
  body : string;  (** the same solve as a /v1/solve body *)
}

let wmax = 64

let items ~seed =
  let e = Engine.create () in
  List.map
    (fun (soc, width) ->
      let constraints = Inputs.p2_constraints soc in
      {
        req = Engine.request soc ~tam_width:width ~constraints ();
        lower_bound =
          (if Inputs.is_itc02 soc then
             Some
               (Lower_bound.compute_constrained
                  (Engine.prepare e ~wmax soc)
                  ~tam_width:width ~constraints)
           else None);
        label = Printf.sprintf "%s W=%d" soc.Soc_def.name width;
        body = Inputs.solve_body ~p2:true ~grid:false soc width;
      })
    (Inputs.cold_pass ~seed)

let fresh_store path =
  if Sys.file_exists path then Sys.remove path;
  Store.open_ path

let golden_key (req : Engine.request) =
  Golden.key ~kind:"p2-point" req.Engine.soc req.Engine.tam_width

let check_solve golden item engine (o : Engine.outcome) =
  let req = item.req in
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
  @ expect (o.Engine.stats.Engine.eval_computed = 1) "solve was not cold"
  @ Golden.check golden (golden_key req) r.Optimizer.testing_time

let same_result (a : Optimizer.result) (b : Optimizer.result) =
  a.Optimizer.testing_time = b.Optimizer.testing_time
  && a.Optimizer.widths = b.Optimizer.widths
  && a.Optimizer.preemptions = b.Optimizer.preemptions
  && Schedule_io.to_string a.Optimizer.schedule
     = Schedule_io.to_string b.Optimizer.schedule

let check_reload (solved : Engine.outcome) (o : Engine.outcome) =
  expect (o.Engine.stats.Engine.eval_from_store = 1) "reload missed the store"
  @ expect
      (same_result solved.Engine.result o.Engine.result)
      "reload differs from its solve"

(* One pass over [items] on a fresh store. [`Timed] ops feed the
   end-to-end metrics; [`Baseline] ops (untraced) note what the engine
   did; [`Traced] ops are wrapped in spans and followed by the layer
   probes. *)
let pass ~tally ~golden ~store_path ~probe_store s items ~first mode =
  let traced = mode = `Traced in
  let store = fresh_store store_path in
  List.iter
    (fun item ->
      let solved = ref None in
      let soc = item.req.Engine.soc in
      ignore
        (attempt tally ("solve " ^ item.label) (fun () ->
             Trace.new_op ();
             let (engine, o), ms =
               time_ms (fun () ->
                   Trace.span "op.solve" (fun () ->
                       let engine = Engine.create ~store () in
                       if traced then
                         ignore
                           (Trace.span "wrapper.prepare" (fun () ->
                                Engine.prepare engine ~wmax soc));
                       (engine, Trace.span "engine.solve" (fun () ->
                            Engine.solve engine item.req))))
             in
             solved := Some (engine, o);
             if traced then Layers.note_solve_overhead o.Engine.stats
             else begin
               add_op s ms;
               s.evals <- s.evals + o.Engine.stats.Engine.eval_computed
             end;
             (match item.lower_bound with
              | Some lower_bound when first ->
                s.gaps <-
                  gap_pct ~lower_bound o.Engine.result.Optimizer.testing_time
                  :: s.gaps
              | _ -> ());
             check_solve golden item engine o));
      match !solved with
      | None -> ()
      | Some (engine, solved) ->
        ignore
          (attempt tally ("reload " ^ item.label) (fun () ->
               let o, ms =
                 time_ms (fun () ->
                     Trace.span "op.reload" (fun () ->
                         Engine.solve (Engine.create ~store ()) item.req))
               in
               if not traced then s.reload_ms <- ms :: s.reload_ms;
               check_reload solved o));
        if traced then begin
          let op = Trace.last "op.solve" and w = Trace.last "wrapper.prepare" in
          Trace.note "wrapper.self_share_pct" (100. *. w.Trace.self_us /. op.Trace.dur_us);
          Trace.note "wrapper.minor_kw_per_op" (w.Trace.minor_words /. 1e3);
          Trace.note "bench.unattributed_ms" (op.Trace.self_us /. 1e3);
          Trace.later (fun () ->
              Trace.note "wrapper.bfd_packs_per_op"
                (float_of_int (Probes.prepare_packs soc));
              Probes.layers ~store:probe_store ~body:item.body engine item.req;
              Probes.evals engine item.req [ Optimizer.default_params ])
        end
        else if mode = `Baseline then begin
          Layers.note_solve_work solved.Engine.stats;
          Layers.note_engine_ratios engine
        end)
    items;
  end_round s;
  Store.close store

let run ~seed ~seconds ~dir ~golden ~trace =
  let store_path = Filename.concat dir "cold.store" in
  let items, setup_s =
    setup_repeated 7 (fun () ->
        let items = items ~seed in
        Store.close (fresh_store store_path);
        items)
  in
  let tally = tally () in
  let s = samples () in
  let probe_store = fresh_store (Filename.concat dir "probe.store") in
  let passes =
    rounds ~seconds ~trace
      (pass ~tally ~golden ~store_path ~probe_store s items)
  in
  Store.close probe_store;
  log "cold: %d passes of %d inputs" passes (List.length items);
  if trace then begin
    Layers.note_overhead ~untraced_ms:s.op_ms ~traced_span:"op.solve";
    (tally, Layers.metrics ())
  end
  else (tally, closed_loop_metrics s ~setup_s)

(* Layer probes for the traced run: one call into each layer's public
   functions on a workload's own input, each under a span named after
   the layer. Only the traced run calls these. *)

module Engine = Soctest_engine.Engine
module Optimizer = Soctest_core.Optimizer
module Lower_bound = Soctest_core.Lower_bound
module Pareto = Soctest_wrapper.Pareto
module Conflict = Soctest_constraints.Conflict
module Wire_alloc = Soctest_tam.Wire_alloc
module Schedule_io = Soctest_tam.Schedule_io
module Audit = Soctest_check.Audit
module Store = Soctest_store.Store
module Protocol = Soctest_serve.Protocol
module Http = Soctest_serve.Http
module Json = Soctest_obs.Json
module Soc_def = Soctest_soc.Soc_def

let span = Trace.span
let wmax = 64

(* Scheduler evaluations at [params], outside the engine: the time and
   allocation of [Optimizer.run_request] alone, and the admissibility
   checks it makes. *)
let evals engine (req : Engine.request) params =
  let prepared = Engine.prepare engine ~wmax req.Engine.soc in
  let n = List.length params in
  let eval p =
    Optimizer.run_request prepared
      (Optimizer.request ~params:p ~tam_width:req.Engine.tam_width
         ~constraints:req.Engine.constraints ())
  in
  List.iter (fun p -> ignore (span "core.eval" (fun () -> eval p))) params;
  let (), checks =
    Trace.counted "constraints.admissible_checks" (fun () ->
        List.iter (fun p -> ignore (eval p)) params)
  in
  Trace.note "constraints.admissible_checks_per_eval"
    (float_of_int checks /. float_of_int n)

(* The response a daemon would write for [outcome]: render, then frame. *)
let render ~soc ~width ~constraints engine (outcome : Engine.outcome) audit =
  let lower_bound =
    span "core.lower_bound" (fun () ->
        Lower_bound.compute_constrained
          (Engine.prepare engine ~wmax soc)
          ~tam_width:width ~constraints)
  in
  let body =
    span "serve.render" (fun () ->
        Json.to_string
          (Json.Obj
             [
               ("result", Protocol.json_of_outcome ~lower_bound ~soc outcome);
               ("audit", Protocol.json_of_report audit);
             ]))
  in
  span "serve.http" (fun () ->
      Http.response_string
        ~headers:[ ("Content-Type", "application/json") ]
        ~close:false ~status:200 body)

(* The BFD packs one fresh-engine preparation of [soc] makes. *)
let prepare_packs soc =
  snd
    (Trace.counted "wrapper.bfd_packs" (fun () ->
         ignore (Engine.prepare (Engine.create ()) ~wmax soc)))

(* Every layer once on [req], whose warm outcome [engine] already
   holds; [body] is the /v1/solve body that asks for it. *)
let layers ~store ~body engine (req : Engine.request) =
  let soc = req.Engine.soc and width = req.Engine.tam_width in
  let constraints = req.Engine.constraints in
  ignore
    (span "wrapper.prepare" (fun () ->
         Engine.prepare (Engine.create ()) ~wmax soc));
  Array.iter
    (fun core ->
      ignore (span "wrapper.pareto" (fun () -> Pareto.compute core ~wmax)))
    soc.Soc_def.cores;
  ignore
    (span "serve.decode" (fun () -> Protocol.solve_request_of_body body));
  let outcome = span "engine.hit" (fun () -> Engine.solve engine req) in
  let result = outcome.Engine.result in
  let sched = result.Optimizer.schedule in
  let audit =
    span "check.audit" (fun () ->
        Audit.run soc
          (Engine.audit_spec engine ~wmax ~expect_tam_width:width constraints)
          sched)
  in
  ignore (render ~soc ~width ~constraints engine outcome audit);
  ignore
    (span "constraints.validate" (fun () ->
         Conflict.validate soc constraints sched));
  ignore (span "tam.wire_alloc" (fun () -> Wire_alloc.allocate sched));
  ignore
    (span "tam.schedule_io" (fun () ->
         Schedule_io.of_string (Schedule_io.to_string sched)));
  let payload = Engine.result_to_payload result in
  let key = Digest.to_hex (Digest.string body) in
  span "store.add" (fun () -> Store.add store ~key payload);
  ignore (span "store.find" (fun () -> Store.find store key));
  ignore (span "engine.decode" (fun () -> Engine.result_of_payload payload))

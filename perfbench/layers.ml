(* The per-layer metrics of a traced run, read off the recorded spans
   and per-op notes. Span times are medians; per-op notes are means,
   except the one named as a percentile. Every workload reports every
   metric; a layer the workload does not reach reports the probe of
   that layer on the workload's own inputs. *)

open Util

let us name = Stats.median (Trace.durs name)
let kw_words name = Stats.mean (Trace.words name) /. 1e3
let avg name = Stats.mean (Trace.notes name)

let metrics () =
  [
    m "wrapper.prepare_ms" "ms" (us "wrapper.prepare" /. 1e3);
    m "wrapper.pareto_us_per_core" "us" (us "wrapper.pareto");
    m "wrapper.bfd_packs_per_op" "count" (avg "wrapper.bfd_packs_per_op");
    m "wrapper.minor_kw_per_op" "kword" (avg "wrapper.minor_kw_per_op");
    m "wrapper.self_share_pct" "%" (avg "wrapper.self_share_pct");
    m "core.eval_us" "us" (us "core.eval");
    m "core.minor_kw_per_eval" "kword" (kw_words "core.eval");
    m "core.lower_bound_us" "us" (us "core.lower_bound");
    m "constraints.validate_us" "us" (us "constraints.validate");
    m "constraints.admissible_checks_per_eval" "count"
      (avg "constraints.admissible_checks_per_eval");
    m "tam.wire_alloc_us" "us" (us "tam.wire_alloc");
    m "tam.schedule_io_us" "us" (us "tam.schedule_io");
    m "engine.solve_overhead_us" "us" (avg "engine.solve_overhead_us");
    m "engine.hit_us" "us" (us "engine.hit");
    m "engine.eval_hit_ratio" "ratio" (avg "engine.eval_hit_ratio");
    m "engine.pareto_hit_ratio" "ratio" (avg "engine.pareto_hit_ratio");
    m "engine.pareto_computes_per_op" "count"
      (avg "engine.pareto_computes_per_op");
    m "engine.optimizer_runs_per_op" "count"
      (avg "engine.optimizer_runs_per_op");
    m "engine.decode_us" "us" (us "engine.decode");
    m "check.audit_ms" "ms" (us "check.audit" /. 1e3);
    m "check.audit_minor_kw" "kword" (kw_words "check.audit");
    m "store.add_us" "us" (us "store.add");
    m "store.find_us" "us" (us "store.find");
    m "serve.decode_us" "us" (us "serve.decode");
    m "serve.render_us" "us" (us "serve.render");
    m "serve.http_us" "us" (us "serve.http");
    m "bench.unattributed_ms_p50" "ms"
      (Stats.median (Trace.notes "bench.unattributed_ms"));
    m "bench.trace_overhead_pct" "%" (avg "bench.trace_overhead_pct");
  ]

(* Engine cache hit ratios over a traced op's engine. *)
let note_engine_ratios engine =
  let ratio (h, m) =
    if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)
  in
  Trace.note "engine.eval_hit_ratio"
    (ratio (Soctest_engine.Engine.eval_cache_stats engine));
  Trace.note "engine.pareto_hit_ratio"
    (ratio (Soctest_engine.Engine.pareto_cache_stats engine))

(* The work an untraced op's [Engine.solve] did. *)
let note_solve_work (s : Soctest_engine.Engine.stats) =
  let open Soctest_engine.Engine in
  Trace.note "engine.pareto_computes_per_op" (float_of_int s.pareto_computed);
  Trace.note "engine.optimizer_runs_per_op" (float_of_int s.eval_computed)

(* What an [Engine.solve] spent outside its evaluations and disk tier.
   Traced ops prepare the SOC under their own span first, so this
   leaves the wrapper's share out. *)
let note_solve_overhead (s : Soctest_engine.Engine.stats) =
  let open Soctest_engine.Engine in
  Trace.note "engine.solve_overhead_us"
    (1e3 *. Float.max 0. (s.elapsed_ms -. s.eval_solve_ms -. s.store_probe_ms))

(* Untraced op times in ms against the traced ops' spans. *)
let note_overhead ~untraced_ms ~traced_span =
  let traced = List.map (fun us -> us /. 1e3) (Trace.durs traced_span) in
  Trace.note "bench.trace_overhead_pct"
    (100. *. ((Stats.median traced /. Stats.median untraced_ms) -. 1.))


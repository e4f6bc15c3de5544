(* serve: the warm path. A `soctest serve` child (1 worker) answers an
   open loop of 100 req/s over 2 kept-alive connections, then a closed
   loop over the same 2 connections gives its saturated rate. Set-up
   solves the hot set (4 ITC'02 SOCs x {p1 point, p2 grid} x W in
   {16, 32}) and asks each key once more, so every timed solve is a
   memory-tier hit; 1 request in 10 is a /v1/check of a schedule saved
   at set-up. Every answer must be a 200 whose body equals the one
   captured at set-up for its key, apart from its three timing
   fields. *)

open Util
module Engine = Soctest_engine.Engine
module Optimizer = Soctest_core.Optimizer
module Lower_bound = Soctest_core.Lower_bound
module Constraint_def = Soctest_constraints.Constraint_def
module Audit = Soctest_check.Audit
module Protocol = Soctest_serve.Protocol
module Http = Soctest_serve.Http
module Serve_client = Soctest_serve.Serve_client
module Json = Soctest_obs.Json
module Soc_def = Soctest_soc.Soc_def
module Store = Soctest_store.Store

let wmax = 64
let rate = 100.
let conns = 2
let open_share = 5. /. 6.
let max_gen_lag_ms = 10.

type key = { kind : string; req : Engine.request; body : string }

let hot_set () =
  List.concat_map
    (fun soc ->
      List.concat_map
        (fun width ->
          [
            {
              kind = "p1-point";
              req =
                Engine.request soc ~tam_width:width
                  ~constraints:
                    (Constraint_def.empty ~core_count:(Soc_def.core_count soc))
                  ();
              body = Inputs.solve_body ~p2:false ~grid:false soc width;
            };
            {
              kind = "p2-grid";
              req =
                Engine.request soc ~tam_width:width
                  ~constraints:(Inputs.p2_constraints soc)
                  ~grid:Engine.default_grid ();
              body = Inputs.solve_body ~p2:true ~grid:true soc width;
            };
          ])
        [ 16; 32 ])
    (Inputs.itc02 ())

(* A timed request: a hot key's solve, or a check of a saved schedule. *)
type target = Solve of key | Check of key * string  (** body *)

let request_of = function
  | Solve k -> { Loadgen.path = "/v1/solve"; body = k.body }
  | Check (_, body) -> { Loadgen.path = "/v1/check"; body }

let key_of = function Solve k | Check (k, _) -> k

(* The seeded request sequence: every tenth request a check, the rest
   the hot keys in shuffled rounds, so each key is asked equally often
   whatever the seed. *)
let sequence ~seed keys checks =
  let r = Inputs.rng ~seed ~stream:3 in
  let n = 2000 in
  let solves = ref [] and checked = ref [] in
  let next pool refill =
    (match !pool with [] -> pool := Inputs.shuffle r refill | _ -> ());
    match !pool with
    | x :: rest ->
      pool := rest;
      x
    | [] -> assert false
  in
  Array.init n (fun i ->
      if i mod 10 = 9 then
        let k, b = next checked checks in
        Check (k, b)
      else Solve (next solves keys))

(* Drop the three per-solve timing fields of a /v1/solve answer; what
   remains is the same on every memory-tier hit of a key. *)
let strip_timings body =
  List.fold_left
    (fun body field ->
      let pat = Printf.sprintf "\"%s\":" field in
      let n = String.length body in
      match find_sub body pat with
      | None -> body
      | Some i ->
        let j = ref (i + String.length pat) in
        while
          !j < n && (match body.[!j] with '0' .. '9' | '.' | '-' | 'e' -> true | _ -> false)
        do
          incr j
        done;
        String.sub body 0 i ^ String.sub body !j (n - !j))
    body
    [ "solve_ms"; "store_probe_ms"; "eval_solve_ms" ]

let json body =
  match Json.parse body with
  | Ok j -> j
  | Error e -> failwith ("unparsable answer: " ^ e)

let clean_audit j =
  Json.member_path [ "audit"; "clean" ] j = Some (Json.Bool true)

type warm = {
  daemon : Daemon.t;
  expected : (string, string) Hashtbl.t;  (** request body -> stripped answer *)
  gap_pct : (string, float) Hashtbl.t;  (** solve body -> gap to the bound *)
  checks : (key * string) list;
}

(* Solve the hot set, capture each key's warm answer and each saved
   schedule's check answer. *)
let capture ~golden daemon keys =
  let ok = ref true in
  let fail msg =
    log "serve set-up: %s" msg;
    ok := false
  in
  let client = Serve_client.connect ~port:daemon.Daemon.port () in
  let post path body = Serve_client.call client ~body path in
  let expected = Hashtbl.create 64 and gap_pct = Hashtbl.create 32 in
  let checks =
    List.filter_map
      (fun k ->
        ignore (post "/v1/solve" k.body);
        let r = post "/v1/solve" k.body in
        let j = json r.Serve_client.body in
        if r.Serve_client.status <> 200 || not (clean_audit j) then
          fail ("hot key not solved cleanly: " ^ k.kind);
        let num path =
          match Json.member_path path j with
          | Some (Json.Int i) -> float_of_int i
          | Some (Json.Float f) -> f
          | _ -> nan
        in
        let computed = num [ "result"; "cache"; "eval_computed" ] in
        if computed <> 0. then fail "second solve of a hot key was not a hit";
        (match
           Golden.check golden
             (Golden.key ~kind:k.kind k.req.Engine.soc k.req.Engine.tam_width)
             (int_of_float (num [ "result"; "testing_time" ]))
         with
        | [] -> ()
        | bad -> List.iter fail bad);
        Hashtbl.replace expected k.body (strip_timings r.Serve_client.body);
        Hashtbl.replace gap_pct k.body (num [ "result"; "gap_pct" ]);
        if k.kind = "p2-grid" then
          match Json.member_path [ "result"; "schedule_text" ] j with
          | Some (Json.String text) ->
            let body = Inputs.check_body k.req.Engine.soc text in
            let r = post "/v1/check" body in
            if r.Serve_client.status <> 200
               || not (clean_audit (json r.Serve_client.body))
            then fail "saved schedule failed its check";
            Hashtbl.replace expected body r.Serve_client.body;
            Some (k, body)
          | _ ->
            fail "answer without schedule_text";
            None
        else None)
      keys
  in
  Serve_client.close client;
  if not !ok then failwith "serve set-up failed";
  { daemon; expected; gap_pct; checks }

(* A fresh daemon, warmed and captured; stopped again if that fails. *)
let warm_up ~exe ~golden keys =
  let daemon = Daemon.spawn exe in
  match capture ~golden daemon keys with
  | w -> w
  | exception e ->
    Daemon.stop daemon;
    raise e

(* Daemon-side counters over a phase: Pareto computes and optimizer
   runs must stay at zero while only hot keys are asked. *)
let work_counts port =
  let j = Serve_client.json_body (Serve_client.get ~port "/v1/metrics") in
  let int path =
    match Option.bind (Json.member_path path j) Json.to_int with
    | Some v -> v
    | None -> failwith ("/v1/metrics lacks " ^ String.concat "." path)
  in
  ( int [ "engine"; "pareto"; "misses" ] + int [ "counters"; "pareto.computes" ],
    int [ "engine"; "eval"; "misses" ] )

(* From the daemon's flight recorder (the last 256 requests): the
   median queue phase, and how much of each request's latency its
   phases account for (mean, min). *)
let flight port =
  let j =
    Serve_client.json_body
      (Serve_client.get ~port "/v1/debug/requests?limit=256")
  in
  let records =
    match Json.member "requests" j with Some (Json.List r) -> r | _ -> []
  in
  let num = function Some (Json.Float f) -> f | Some (Json.Int i) -> float_of_int i | _ -> nan in
  let phases r =
    match Json.member "phases" r with Some (Json.Obj ps) -> ps | _ -> []
  in
  let coverage =
    List.map
      (fun r ->
        Stats.sum (List.map (fun (_, v) -> num (Some v)) (phases r))
        /. num (Json.member "total_ms" r))
      records
  in
  ( Stats.median (List.map (fun r -> num (List.assoc_opt "queue" (phases r))) records),
    Stats.mean coverage,
    List.fold_left Float.min infinity coverage )

(* Check every answer against the set-up capture. *)
let verify tally (warm : warm) seq ~offset samples =
  List.iter
    (fun (s : Loadgen.sample) ->
      let target = seq.((offset + s.Loadgen.index) mod Array.length seq) in
      let body = (request_of target).Loadgen.body in
      ignore
        (attempt tally
           (Printf.sprintf "request %d (%s)" s.Loadgen.index (key_of target).kind)
           (fun () ->
             expect (s.Loadgen.status = 200)
               (Printf.sprintf "status %d" s.Loadgen.status)
             @ expect
                 (Some (strip_timings s.Loadgen.response)
                 = Hashtbl.find_opt warm.expected body)
                 "answer differs from the set-up capture")))
    samples

let is_check = function Check _ -> true | Solve _ -> false

(* The open loop's p99, as the median of the p99s of its three equal
   consecutive segments (at 30 s, 1000 requests and 10 beyond p99
   each). A host stall that hits one segment does not move it; a
   daemon that stalls throughout does. *)
let p99_of_segments (opened : Loadgen.sample list) =
  let n = List.length opened in
  let segment k =
    List.filter
      (fun s -> s.Loadgen.index * 3 / max 1 n = k)
      opened
  in
  Stats.median
    (List.init 3 (fun k ->
         Stats.percentile
           (List.map (Loadgen.latency_ms ~open_loop:true) (segment k))
           99.))

(* First send to last answer of a phase, in ms. *)
let bounds (samples : Loadgen.sample list) =
  List.fold_left
    (fun (t0, t1) x -> (Float.min t0 x.Loadgen.sent_ms, Float.max t1 x.Loadgen.done_ms))
    (infinity, neg_infinity) samples

let span_s samples =
  let t0, t1 = bounds samples in
  (t1 -. t0) /. 1e3

(* [weight] summed over the answers that completed in each whole second
   of a phase. The closed-loop rates are the median second, so a short
   stall of the host does not move them. *)
let per_second weight = function
  | [] -> []
  | samples ->
    let t0, t1 = bounds samples in
    let n = max 1 (int_of_float ((t1 -. t0) /. 1e3)) in
    let bins = Array.make n 0. in
    List.iter
      (fun s ->
        let i = int_of_float ((s.Loadgen.done_ms -. t0) /. 1e3) in
        if i < n then bins.(i) <- bins.(i) +. weight s)
      samples;
    Array.to_list bins

(* In-process replay of the timed requests through the layers the
   daemon runs them through, on an engine warmed with the hot set. *)
let replay ~traced engine seq samples =
  List.map
    (fun (s : Loadgen.sample) ->
      let target = seq.(s.Loadgen.index mod Array.length seq) in
      let k = key_of target in
      let soc = k.req.Engine.soc and width = k.req.Engine.tam_width in
      Trace.new_op ();
      let (), ms =
        time_ms (fun () ->
            Trace.span "op.request" (fun () ->
                match target with
                | Solve k ->
                  ignore
                    (Trace.span "serve.decode" (fun () ->
                         Protocol.solve_request_of_body k.body));
                  let o =
                    Trace.span "engine.hit" (fun () -> Engine.solve engine k.req)
                  in
                  if traced then Layers.note_solve_overhead o.Engine.stats;
                  let audit =
                    Trace.span "check.audit" (fun () ->
                        Audit.run soc
                          (Engine.audit_spec engine ~wmax ~expect_tam_width:width
                             k.req.Engine.constraints)
                          o.Engine.result.Optimizer.schedule)
                  in
                  ignore
                    (Probes.render ~soc ~width ~constraints:k.req.Engine.constraints
                       engine o audit)
                | Check (_, body) ->
                  let req =
                    match
                      Trace.span "serve.decode" (fun () ->
                          Protocol.check_request_of_body body)
                    with
                    | Ok r -> r
                    | Error e -> failwith e
                  in
                  let report =
                    Trace.span "check.audit" (fun () ->
                        Audit.run soc
                          (Engine.audit_spec engine ~wmax k.req.Engine.constraints)
                          req.Protocol.schedule)
                  in
                  let text =
                    Trace.span "serve.render" (fun () ->
                        Json.to_string
                          (Json.Obj
                             [
                               ("soc", Json.String "inline");
                               ("audit", Protocol.json_of_report report);
                             ]))
                  in
                  ignore
                    (Trace.span "serve.http" (fun () ->
                         Http.response_string ~close:false ~status:200 text))))
      in
      if traced then begin
        Trace.note "bench.unattributed_ms"
          (Loadgen.latency_ms ~open_loop:true s -. ms);
        Trace.note "wrapper.self_share_pct" 0.;
        Trace.note "wrapper.minor_kw_per_op" 0.
      end;
      ms)
    samples

let run ~daemon:exe ~seed ~seconds ~dir ~golden ~trace =
  let keys = hot_set () in
  let warm, setup_s =
    setup_repeated 3
      ~discard:(fun w -> Daemon.stop w.daemon)
      (fun () -> warm_up ~exe ~golden keys)
  in
  let port = warm.daemon.Daemon.port in
  Fun.protect ~finally:(fun () -> Daemon.stop warm.daemon) @@ fun () ->
  let seq = sequence ~seed keys warm.checks in
  let requests = Array.map request_of seq in
  let conns = Array.init conns (fun _ -> Loadgen.connect port) in
  Fun.protect ~finally:(fun () -> Loadgen.close conns) @@ fun () ->
  (* one untimed second brings the daemon's heap to its working size *)
  ignore
    (Loadgen.run ~conns ~mode:Loadgen.Closed ~seconds:1. ~offset:0 requests);
  let tally = tally () in
  let work0 = work_counts port in
  let open_s = seconds *. open_share in
  let opened =
    Loadgen.run ~conns ~mode:(Loadgen.Open rate) ~seconds:open_s ~offset:0
      requests
  in
  let queue_p50, coverage_mean, coverage_min = flight port in
  let n_open = List.length opened in
  let closed =
    if trace then []
    else
      Loadgen.run ~conns ~mode:Loadgen.Closed ~seconds:(seconds -. open_s)
        ~offset:n_open requests
  in
  let work1 = work_counts port in
  let rss = Daemon.peak_rss_mb warm.daemon in
  verify tally warm seq ~offset:0 opened;
  verify tally warm seq ~offset:n_open closed;
  let pareto = fst work1 - fst work0 and runs = snd work1 - snd work0 in
  if pareto <> 0 || runs <> 0 then
    fail tally
      (Printf.sprintf "timed phase ran %d Pareto computes and %d optimizer runs"
         pareto runs);
  let lag =
    Stats.percentile
      (List.map (fun s -> s.Loadgen.sent_ms -. s.Loadgen.due_ms) opened)
      99.
  in
  if lag > max_gen_lag_ms then
    fail tally (Printf.sprintf "generator ran %.1f ms late at p99: run void" lag);
  let of_seq (s : Loadgen.sample) = seq.(s.Loadgen.index mod Array.length seq) in
  let solves = List.filter (fun s -> not (is_check (of_seq s))) opened in
  let memory_hits =
    List.filter
      (fun (s : Loadgen.sample) ->
        let has pat = find_sub s.Loadgen.response pat <> None in
        has "\"eval_computed\":0," && has "\"eval_from_store\":0")
      solves
  in
  let share xs = float_of_int (List.length xs) /. float_of_int n_open in
  log "serve: daemon phases cover %.0f%% of request latency on average \
       (min %.0f%%)" (100. *. coverage_mean) (100. *. coverage_min);
  log "serve: %d open-loop and %d closed-loop requests; memory-hit share %.3f, \
       check share %.3f, generator lag p99 %.3f ms"
    n_open (List.length closed)
    (share memory_hits /. share solves)
    (1. -. share solves) lag;
  if trace then begin
    let engine = Engine.create () in
    List.iter (fun k -> ignore (Engine.solve engine k.req)) keys;
    let probe_store = Cold.fresh_store (Filename.concat dir "probe.store") in
    let untraced_ms = replay ~traced:false engine seq opened in
    Trace.set true;
    ignore (replay ~traced:true engine seq opened);
    let _, packs =
      Trace.counted "wrapper.bfd_packs" (fun () ->
          replay ~traced:false engine seq opened)
    in
    Trace.note "wrapper.bfd_packs_per_op"
      (float_of_int packs /. float_of_int n_open);
    List.iter
      (fun k ->
        Trace.new_op ();
        Probes.layers ~store:probe_store ~body:k.body engine k.req;
        Probes.evals engine k.req [ Optimizer.default_params ])
      keys;
    Trace.set false;
    Store.close probe_store;
    Layers.note_engine_ratios engine;
    Layers.note_overhead ~untraced_ms ~traced_span:"op.request";

    let per_request x = float_of_int x /. float_of_int n_open in
    (* what the daemon did per timed request, from its /v1/metrics *)
    Trace.set_note "engine.pareto_computes_per_op" (per_request pareto);
    Trace.set_note "engine.optimizer_runs_per_op" (per_request runs);
    ( tally,
      Layers.metrics ()
      @ [
          m "serve.queue_ms_p50" "ms" queue_p50;
          m "bench.gen_lag_ms_p99" "ms" lag;
        ] )
  end
  else
    let lat = List.map (Loadgen.latency_ms ~open_loop:true) opened in
    let checks =
      List.map (Loadgen.latency_ms ~open_loop:true)
        (List.filter (fun s -> is_check (of_seq s)) opened)
    in
    let evals (s : Loadgen.sample) =
      match seq.((n_open + s.Loadgen.index) mod Array.length seq) with
      | Solve k when k.kind = "p2-grid" -> float_of_int Explore.grid_size
      | Solve _ -> 1.
      | Check _ -> 0.
    in
    let gaps =
      List.filter_map
        (fun s -> Hashtbl.find_opt warm.gap_pct (request_of (of_seq s)).Loadgen.body)
        solves
    in
    ( tally,
      [
        m "latency_ms_p50" "ms" (Stats.percentile lat 50.);
        m "latency_ms_p90" "ms" (Stats.percentile lat 90.);
        m "latency_ms_p99" "ms" (p99_of_segments opened);
        m "reload_ms_p50" "ms" (Stats.percentile checks 50.);
        m "ops_per_s" "1/s" (float_of_int n_open /. span_s opened);
        m "evals_per_s" "1/s" (Stats.median (per_second evals closed));
        m "saturated_rps" "req/s" (Stats.median (per_second (fun _ -> 1.) closed));
        m "gap_to_lb_pct" "%" (Stats.mean gaps);
        m "peak_rss_mb" "MB" rss;
        m "setup_s" "s" setup_s;
      ] )

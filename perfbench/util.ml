(* Shared plumbing: op accounting, timing, process memory, the result
   line. *)

module Clock = Soctest_obs.Clock
module Json = Soctest_obs.Json

let now_ms () = Clock.now_ms ()

let time_ms f =
  let t0 = now_ms () in
  let r = f () in
  (r, now_ms () -. t0)

(* Ops attempted and failed. An op fails when it raises or when any
   check of its output does not hold; the first few reasons are kept
   for the log. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable reasons : string list;
}

let tally () = { attempted = 0; failed = 0; reasons = [] }

let fail t reason =
  t.failed <- t.failed + 1;
  if List.length t.reasons < 10 then t.reasons <- reason :: t.reasons

(* Run one op; [f] returns the list of failed checks. An exception
   fails the op too. *)
let attempt t label f =
  t.attempted <- t.attempted + 1;
  match f () with
  | [] -> true
  | bad ->
    fail t (label ^ ": " ^ String.concat "; " bad);
    false
  | exception e ->
    fail t (label ^ ": " ^ Printexc.to_string e);
    false

let expect cond msg = if cond then [] else [ msg ]

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec scan () =
    match input_line ic with
    | line -> (
      match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
      | Some kb -> float_of_int kb /. 1024.
      | None -> scan ())
    | exception End_of_file -> failwith "VmHWM missing from /proc status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Set up [n] times, [discard] all but the last set-up and keep that
   one; the reported set-up time is the median, so one slow repeat does
   not move it. *)
let setup_repeated ?(discard = ignore) n f =
  let rec go k acc =
    let v, ms = time_ms f in
    let acc = (ms /. 1e3) :: acc in
    if k = 1 then (v, Stats.median acc)
    else begin
      discard v;
      go (k - 1) acc
    end
  in
  go n []

(* The index of the first [pat] in [s] at or after [from]. *)
let find_sub ?(from = 0) s pat =
  let n = String.length s and k = String.length pat in
  let rec go i =
    if i + k > n then None
    else if String.sub s i k = pat then Some i
    else go (i + 1)
  in
  go from

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* What the untimed closed loops ([cold], [explore]) collect: op and
   reload times, computed evaluations, and the gaps of the first
   round. *)
type samples = {
  mutable op_ms : float list;
  mutable round_ms : float list;  (** this round's op times *)
  mutable round_p99 : float list;  (** one per finished round *)
  mutable reload_ms : float list;
  mutable evals : int;
  mutable gaps : float list;
}

let samples () =
  { op_ms = []; round_ms = []; round_p99 = []; reload_ms = []; evals = 0; gaps = [] }

let add_op s ms =
  s.op_ms <- ms :: s.op_ms;
  s.round_ms <- ms :: s.round_ms

let end_round s =
  if s.round_ms <> [] then begin
    s.round_p99 <- Stats.percentile s.round_ms 99. :: s.round_p99;
    s.round_ms <- []
  end

let gap_pct ~lower_bound makespan =
  100. *. float_of_int (makespan - lower_bound) /. float_of_int lower_bound

(* Whole rounds (passes, cycles) until [seconds] have passed, so every
   run weighs its inputs alike. A traced run makes each round twice on
   the same inputs: [`Baseline] untraced, then [`Traced]. Returns the
   number of rounds. *)
let rounds ~seconds ~trace round =
  let deadline = now_ms () +. (1e3 *. seconds) in
  let run ~first mode =
    Trace.set (mode = `Traced);
    round ~first mode;
    Trace.run_queued ();
    Trace.set false
  in
  let n = ref 0 in
  while !n = 0 || now_ms () < deadline do
    let first = !n = 0 in
    if trace then begin
      run ~first `Baseline;
      run ~first:false `Traced
    end
    else run ~first `Timed;
    incr n
  done;
  !n

(* The end-to-end metrics of a closed loop, per NOTES.md. *)
let closed_loop_metrics s ~setup_s =
  let secs xs = Stats.sum xs /. 1e3 in
  let n xs = float_of_int (List.length xs) in
  [
    m "latency_ms_p50" "ms" (Stats.percentile s.op_ms 50.);
    m "latency_ms_p90" "ms" (Stats.percentile s.op_ms 90.);
    (* a round has 21-32 ops, so its p99 is near its slowest op; the
       median over rounds is not moved by a host stall in one round *)
    m "latency_ms_p99" "ms" (Stats.median s.round_p99);
    m "reload_ms_p50" "ms" (Stats.percentile s.reload_ms 50.);
    m "ops_per_s" "1/s" (n s.op_ms /. secs s.op_ms);
    m "evals_per_s" "1/s" (float_of_int s.evals /. secs s.op_ms);
    m "saturated_rps" "req/s"
      ((n s.op_ms +. n s.reload_ms) /. secs (s.op_ms @ s.reload_ms));
    m "gap_to_lb_pct" "%" (Stats.mean s.gaps);
    m "peak_rss_mb" "MB" (peak_rss_mb "self");
    m "setup_s" "s" setup_s;
  ]

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* The result line. Values are printed with every digit they have:
   Json.Float would round them to three decimals. *)
let emit_result ~(tally : tally) (metrics : metric list) =
  List.iter (fun r -> log "FAILED %s" r) (List.rev tally.reasons);
  List.iter (fun x -> log "  %-38s %14.4f %s" x.name x.value x.unit_) metrics;
  let finite = List.for_all (fun x -> Float.is_finite x.value) metrics in
  if not finite then log "a metric is not finite: run is void";
  let metric x =
    Printf.sprintf "%s: {\"value\": %.15g, \"unit\": %s}"
      (Json.to_string (Json.String x.name))
      (if Float.is_finite x.value then x.value else 0.)
      (Json.to_string (Json.String x.unit_))
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (tally.failed = 0 && finite)
    tally.attempted tally.failed
    (String.concat ", " (List.map metric metrics))

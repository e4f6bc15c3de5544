(* Bench-side spans around calls into the libraries' public functions:
   name, duration, self time, parent and op id, plus the minor words the
   calling domain allocated inside. Spans are kept in memory and turned
   into per-layer metrics when the run ends. Off by default: a disabled
   [span] is one branch, so timed runs pay nothing. *)

module Clock = Soctest_obs.Clock

type span = {
  id : int;
  name : string;
  op : int;  (** spans of one op (request) share this id *)
  parent : int;  (** -1 for a root span *)
  dur_us : float;
  self_us : float;  (** [dur_us] minus the direct children's *)
  minor_words : float;
}

let on = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let op = ref 0

(* open spans, innermost first: (id, accumulated child time) *)
let stack : (int * float ref) list ref = ref []

(* Spans record while [on]; the traced run switches it around the ops
   it traces. *)
let set b = on := b

(* Every span started until the next [new_op] belongs to a fresh op. *)
let new_op () = incr op

let span name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with (p, _) :: _ -> p | [] -> -1 in
    let children = ref 0. in
    stack := (id, children) :: !stack;
    let op = !op in
    let w0 = Gc.minor_words () in
    let t0 = Clock.monotonic_ns () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Clock.monotonic_ns () in
        let w1 = Gc.minor_words () in
        let dur_us = Int64.to_float (Int64.sub t1 t0) /. 1e3 in
        stack := List.tl !stack;
        (match !stack with (_, acc) :: _ -> acc := !acc +. dur_us | [] -> ());
        recorded :=
          {
            id;
            name;
            op;
            parent;
            dur_us;
            self_us = dur_us -. !children;
            minor_words = w1 -. w0;
          }
          :: !recorded)
  end

let spans name = List.filter (fun s -> s.name = name) !recorded
let durs name = List.map (fun s -> s.dur_us) (spans name)
let words name = List.map (fun s -> s.minor_words) (spans name)

(* Per-op values measured outside spans (counter deltas, shares),
   listed by name. *)
let noted : (string, float list) Hashtbl.t = Hashtbl.create 16

let note name v =
  Hashtbl.replace noted name
    (v :: Option.value (Hashtbl.find_opt noted name) ~default:[])

let notes name = Option.value (Hashtbl.find_opt noted name) ~default:[]
let set_note name v = Hashtbl.replace noted name [ v ]

(* An [Obs] counter's growth over [f ()]. Counters only move while
   [Obs] records, and recording slows the solver by 15-20%, so it is on
   for these counting calls alone, never around a timed or traced op. *)
let counted name f =
  Soctest_obs.Obs.enable ~events:false ();
  let c = Soctest_obs.Obs.counter name in
  Fun.protect ~finally:Soctest_obs.Obs.disable (fun () ->
      let r = f () in
      (r, Soctest_obs.Obs.counter_value c))

(* Layer probes queued by traced ops and run after the round, so their
   allocation does not land in the next traced op's time. *)
let queued : (unit -> unit) Queue.t = Queue.create ()
let later f = Queue.push f queued
let run_queued () = while not (Queue.is_empty queued) do (Queue.pop queued) () done

(* The most recently finished span called [name]. *)
let last name = List.find (fun s -> s.name = name) !recorded

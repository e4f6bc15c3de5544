(* Structured JSON logging. The off state costs one Atomic.get and a
   branch per call site (same discipline as Obs metrics); the on state
   renders a Json.Obj per line and writes it whole under a mutex so
   multi-domain bursts stay line-atomic. *)

type level = Debug | Info | Warn | Error

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

(* -1 = disabled. A single int atomic keeps the emit-site fast path to
   one load and one compare. *)
let threshold = Atomic.make (-1)

let enabled l =
  let t = Atomic.get threshold in
  t >= 0 && severity l >= t

(* ------------------------------------------------------------------ *)
(* sink *)

let sink_lock = Mutex.create ()
let sink_chan : out_channel option ref = ref None (* None = stderr *)

let with_sink f =
  Mutex.lock sink_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock sink_lock) f

let close_sink_locked () =
  match !sink_chan with
  | Some oc ->
    (try close_out oc with Sys_error _ -> ());
    sink_chan := None
  | None -> ()

(* ------------------------------------------------------------------ *)
(* warn/error dedup *)

let window = 1.0

type dedup_entry = { mutable last_emit : float; mutable suppressed : int }

let dedup : (string, dedup_entry) Hashtbl.t = Hashtbl.create 16

(* Returns [None] when the line should be dropped, [Some n] with the
   number of drops since the last emitted line otherwise. Monotonic
   time: a wall-clock step must not re-open or jam the window. *)
let dedup_admit event =
  let now = Clock.now_s () in
  match Hashtbl.find_opt dedup event with
  | None ->
    Hashtbl.replace dedup event { last_emit = now; suppressed = 0 };
    Some 0
  | Some e when now -. e.last_emit < window ->
    e.suppressed <- e.suppressed + 1;
    None
  | Some e ->
    let n = e.suppressed in
    e.last_emit <- now;
    e.suppressed <- 0;
    Some n

(* ------------------------------------------------------------------ *)
(* emit *)

let emit ?request_id level event fields =
  if enabled level then
    with_sink (fun () ->
        let admit =
          match level with
          | Warn | Error -> dedup_admit event
          | Debug | Info -> Some 0
        in
        match admit with
        | None -> ()
        | Some suppressed ->
          let base =
            [
              ("ts", Json.Float (Unix.gettimeofday ()));
              ("level", Json.String (level_to_string level));
              ("event", Json.String event);
            ]
          in
          let request_id =
            if Option.is_some request_id then request_id
            else Obs.current_request ()
          in
          let rid =
            match request_id with
            | Some id -> [ ("request_id", Json.String id) ]
            | None -> []
          in
          let supp =
            if suppressed > 0 then [ ("suppressed", Json.Int suppressed) ]
            else []
          in
          let line = Json.to_string (Json.Obj (base @ rid @ supp @ fields)) in
          let oc = match !sink_chan with Some oc -> oc | None -> stderr in
          output_string oc line;
          output_char oc '\n';
          flush oc)

let debug ?request_id ?(fields = []) event =
  emit ?request_id Debug event fields

let info ?request_id ?(fields = []) event = emit ?request_id Info event fields
let warn ?request_id ?(fields = []) event = emit ?request_id Warn event fields

let error ?request_id ?(fields = []) event =
  emit ?request_id Error event fields

(* ------------------------------------------------------------------ *)
(* lifecycle *)

let enable ?(level = Info) ?file () =
  with_sink (fun () ->
      close_sink_locked ();
      (match file with
      | Some path ->
        sink_chan :=
          Some
            (open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path)
      | None -> ());
      Hashtbl.reset dedup;
      Atomic.set threshold (severity level))

let disable () =
  Atomic.set threshold (-1);
  with_sink close_sink_locked

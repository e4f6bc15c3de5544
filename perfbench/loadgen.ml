(* A one-thread HTTP/1.1 load generator over kept-alive connections.

   Open loop: request i is due at start + i / rate and is written at
   its due time whether or not earlier requests have been answered
   (the daemon reads pipelined requests in order), and its latency runs
   from the due time to the last byte of its response. A stall in the
   daemon therefore delays every request that fell due during it, as it
   would delay independent users; a closed-loop client would have sent
   nothing during the stall and hidden it (coordinated omission).

   Closed loop: each connection has one request outstanding and sends
   the next as soon as the answer arrives; latency runs from the
   send. *)

module Http = Soctest_serve.Http

type request = { path : string; body : string }

type sample = {
  index : int;  (** position in the request sequence *)
  due_ms : float;
  sent_ms : float;
  done_ms : float;
  status : int;
  response : string;  (** the body *)
}

let latency_ms ~open_loop s =
  s.done_ms -. if open_loop then s.due_ms else s.sent_ms

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  inflight : (int * float * float) Queue.t;  (** index, due, sent *)
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; buf = Buffer.create 65536; inflight = Queue.create () }

let encode r =
  Printf.sprintf
    "POST %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
    r.path (String.length r.body) r.body

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* One complete response at the front of the buffer, if there is one:
   (status, body, bytes consumed). *)
let parse_response data =
  match Http.find_header_end data with
  | None -> None
  | Some hend -> (
    match Http.header_lines (String.sub data 0 hend) with
    | [] -> failwith "empty response head"
    | status_line :: headers ->
      let status = Scanf.sscanf status_line "HTTP/1.%_d %d" Fun.id in
      let length =
        List.fold_left
          (fun acc line ->
            match String.index_opt line ':' with
            | Some i
              when String.lowercase_ascii (String.sub line 0 i)
                   = "content-length" ->
              int_of_string
                (String.trim
                   (String.sub line (i + 1) (String.length line - i - 1)))
            | _ -> acc)
          0 headers
      in
      if String.length data < hend + length then None
      else Some (status, String.sub data hend length, hend + length))

(* Move every complete response out of [c]'s buffer. *)
let drain c ~now ~emit =
  let rec go data =
    match parse_response data with
    | None -> data
    | Some (status, body, used) ->
      let index, due_ms, sent_ms = Queue.pop c.inflight in
      emit { index; due_ms; sent_ms; done_ms = now; status; response = body };
      go (String.sub data used (String.length data - used))
  in
  let rest = go (Buffer.contents c.buf) in
  Buffer.clear c.buf;
  Buffer.add_string c.buf rest

let chunk = Bytes.create 65536
let spin_ms = 1.

type mode = Open of float  (** requests per second *) | Closed

(* Send [requests.(offset), requests.(offset+1), ...] (cycling) over
   the connections [conns] for [seconds], then wait for every answer.
   Returns the samples in completion order. *)
let run ~conns:cs ~mode ~seconds ~offset (requests : request array) =
  let conns = Array.length cs in
  (* a large minor heap keeps the generator's own collections from
     making it late; the daemon is another process and keeps its
     settings *)
  let gc = Gc.get () in
  Gc.set { gc with Gc.minor_heap_size = 8 * 1024 * 1024 };
  Fun.protect ~finally:(fun () -> Gc.set gc) @@ fun () ->
  let wire = Array.map encode requests in
  let n_req = Array.length requests in
  let samples = ref [] in
  let emit s = samples := s :: !samples in
  let start = Util.now_ms () in
  let stop_at = start +. (1e3 *. seconds) in
  let total =
    match mode with
    | Open rate -> int_of_float (Float.round (rate *. seconds))
    | Closed -> max_int
  in
  let due i =
    match mode with
    | Open rate -> start +. (1e3 *. float_of_int i /. rate)
    | Closed -> Util.now_ms ()
  in
  let next = ref 0 in
  let send c =
    let i = !next in
    incr next;
    let due_ms = due i in
    let sent_ms = Util.now_ms () in
    Queue.push (i, due_ms, sent_ms) c.inflight;
    write_all c.fd wire.((offset + i) mod n_req) 0
  in
  let outstanding () =
    Array.fold_left (fun a c -> a + Queue.length c.inflight) 0 cs
  in
  let give_up = stop_at +. 60_000. in
  let finished = ref false in
  while not !finished do
    let now = Util.now_ms () in
    if now > give_up then failwith "load generator: answers overdue";
    (match mode with
    | Open _ ->
      while !next < total && due !next <= Util.now_ms () do
        send cs.(!next mod conns)
      done
    | Closed ->
      if now < stop_at then
        Array.iter (fun c -> if Queue.is_empty c.inflight then send c) cs);
    let sending =
      match mode with
      | Open _ -> !next < total
      | Closed -> Util.now_ms () < stop_at
    in
    if (not sending) && outstanding () = 0 then finished := true
    else begin
      (* wake [spin_ms] before the next due time and poll from there:
         a vCPU woken from halt at the due time would send late *)
      let timeout =
        match mode with
        | Open _ when !next < total ->
          Float.max 0. ((due !next -. spin_ms -. Util.now_ms ()) /. 1e3)
        | _ -> 0.05
      in
      let waiting =
        Array.to_list cs
        |> List.filter (fun c -> not (Queue.is_empty c.inflight))
        |> List.map (fun c -> c.fd)
      in
      let readable, _, _ =
        try Unix.select waiting [] [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      let now = Util.now_ms () in
      List.iter
        (fun fd ->
          let c = List.find (fun c -> c.fd = fd) (Array.to_list cs) in
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> failwith "load generator: daemon closed a connection"
          | k ->
            Buffer.add_subbytes c.buf chunk 0 k;
            drain c ~now ~emit)
        readable
    end
  done;
  List.rev !samples

let close cs = Array.iter (fun c -> Unix.close c.fd) cs

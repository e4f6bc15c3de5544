(* Coordinated-omission self-test for the load generator.

     selftest.exe --daemon PATH/TO/soctest

   One request in 500 holds the daemon's only worker for [stall_ms].
   Timed from due times, the open loop must show the stall at p99: the
   requests that fell due during it waited too. A closed loop sends
   nothing while it waits, so only the stalled requests themselves are
   slow and its p99 must stay below the stall. Exits 1 when either does
   not hold. *)

module Json = Soctest_obs.Json

let stall_ms = 300.

let body ~stall =
  Json.to_string
    (Json.Obj
       [
         ("soc_text", Inputs.soc_text (Soctest_soc.Benchmarks.d695 ()));
         ("width", Json.Int 16);
         ("problem", Json.String "p1");
         ("stall_ms", Json.Int (if stall then int_of_float stall_ms else 0));
       ])

let () =
  let exe = ref "" in
  Arg.parse
    [ ("--daemon", Arg.Set_string exe, " the soctest executable") ]
    (fun a -> raise (Arg.Bad a))
    "selftest.exe --daemon PATH";
  let d = Daemon.spawn !exe in
  let port = d.Daemon.port in
  let ok =
    Fun.protect ~finally:(fun () -> Daemon.stop d) @@ fun () ->
    let requests =
      Array.init 1000 (fun i ->
          { Loadgen.path = "/v1/solve"; body = body ~stall:(i mod 500 = 250) })
    in
    ignore
      (Soctest_serve.Serve_client.post ~port ~body:(body ~stall:false)
         "/v1/solve");
    let p99 ~open_loop mode seconds =
      let conns = Array.init 2 (fun _ -> Loadgen.connect port) in
      let samples =
        Fun.protect ~finally:(fun () -> Loadgen.close conns) @@ fun () ->
        Loadgen.run ~conns ~mode ~seconds ~offset:0 requests
      in
      if List.exists (fun s -> s.Loadgen.status <> 200) samples then
        failwith "a request failed";
      ( List.length samples,
        Stats.percentile (List.map (Loadgen.latency_ms ~open_loop) samples) 99.
      )
    in
    let n_open, open_p99 = p99 ~open_loop:true (Loadgen.Open 100.) 10. in
    let n_closed, closed_p99 = p99 ~open_loop:false Loadgen.Closed 5. in
    Printf.printf
      "stall %.0f ms in 1 request of 500\n\
       open loop   (100 req/s, due-time latency): %4d requests, p99 %7.1f ms\n\
       closed loop (2 clients, send-time latency): %4d requests, p99 %7.1f ms\n\
       %!"
      stall_ms n_open open_p99 n_closed closed_p99;
    open_p99 >= stall_ms /. 2. && closed_p99 < stall_ms /. 2.
  in
  if ok then print_endline "selftest: ok"
  else begin
    print_endline "selftest: FAILED";
    exit 1
  end

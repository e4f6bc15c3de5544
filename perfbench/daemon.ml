(* A `soctest serve` child process: one worker domain, its own process,
   so the load generator's allocation never pauses the daemon. *)

type t = { pid : int; port : int; out : in_channel }

let spawn exe =
  let r, w = Unix.pipe ~cloexec:true () in
  let argv =
    [|
      exe; "serve"; "--port"; "0"; "--workers"; "1";
      (* the closed-loop phase sends thousands of requests per
         connection; the default per-connection cap would close them *)
      "--max-conn-requests"; "100000000";
    |]
  in
  let pid = Unix.create_process exe argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  let rec port () =
    match input_line out with
    | line -> (
      match
        Scanf.sscanf_opt line "soctest serve: listening on 127.0.0.1:%d" Fun.id
      with
      | Some p -> p
      | None -> port ())
    | exception End_of_file ->
      ignore (Unix.waitpid [] pid);
      failwith "soctest serve exited before announcing its port"
  in
  { pid; port = port (); out }

(* SIGTERM drains and exits; wait until it has. *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
  close_in_noerr t.out

let peak_rss_mb t = Util.peak_rss_mb (string_of_int t.pid)

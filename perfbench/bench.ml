(* One workload of the repository benchmark per invocation:

     bench.exe --workload cold|explore|serve --seed N --seconds S
               --trace 0|1 --daemon PATH [--work DIR] [--golden FILE]

   Progress and a readable summary go to stderr; the
   last line of stdout is the result object. [--record-golden] instead
   solves the default seed's inputs and writes the golden table. *)

let () =
  let workload = ref "" and seed = ref Golden.default_seed in
  let seconds = ref 10. and trace = ref 0 and daemon = ref "" in
  let work = ref ".perfbench" and golden = ref "perfbench/golden.tsv" in
  let record = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " cold | explore | serve");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured time per run");
      ("--trace", Arg.Set_int trace, " 1: the traced per-layer run");
      ("--daemon", Arg.Set_string daemon, " the soctest executable");
      ("--work", Arg.Set_string work, " directory for store files");
      ("--golden", Arg.Set_string golden, " golden makespan table");
      ("--record-golden", Arg.Set record, " write the golden table");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME [options]";
  if not (Sys.file_exists !work) then Sys.mkdir !work 0o755;
  if !record then Record.golden ~path:!golden
  else begin
    let golden = Golden.load !golden in
    let trace = !trace = 1 in
    let run =
      match !workload with
      | "cold" -> Cold.run
      | "explore" -> Explore.run
      | "serve" -> Serve.run ~daemon:!daemon
      | w -> raise (Arg.Bad ("unknown workload " ^ w))
    in
    let tally, metrics =
      run ~seed:!seed ~seconds:!seconds ~dir:!work ~golden ~trace
    in
    Util.emit_result ~tally metrics
  end

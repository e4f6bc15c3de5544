(* Writes the golden table: the makespan of every solve the default
   seed's inputs ask for, plus the serve hot set. Run it on a tree whose
   solver output is trusted; the benchmark then holds every later tree
   to the same makespans. *)

module Engine = Soctest_engine.Engine
module Optimizer = Soctest_core.Optimizer
module Soc_def = Soctest_soc.Soc_def

let golden ~path =
  let seed = Golden.default_seed in
  let entries = Hashtbl.create 256 in
  let solve ~kind (req : Engine.request) =
    let soc = req.Engine.soc and w = req.Engine.tam_width in
    let key = Golden.key ~kind soc w in
    if not (Hashtbl.mem entries key) then begin
      let o = Engine.solve (Engine.create ()) req in
      Hashtbl.replace entries key
        ( key,
          o.Engine.result.Optimizer.testing_time,
          Printf.sprintf "%s W=%d" soc.Soc_def.name w )
    end
  in
  List.iter (fun i -> solve ~kind:"p2-point" i.Cold.req) (Cold.items ~seed);
  List.iter
    (List.iter (fun o -> solve ~kind:"p2-grid" o.Explore.req))
    (Explore.sessions ~seed);
  List.iter
    (fun (k : Serve.key) -> solve ~kind:k.Serve.kind k.Serve.req)
    (Serve.hot_set ());
  let rows = Hashtbl.fold (fun _ v acc -> v :: acc) entries [] in
  Golden.write path
    (List.sort (fun (ka, _, a) (kb, _, b) -> compare (a, ka) (b, kb)) rows);
  Util.log "golden: %d entries written to %s" (List.length rows) path

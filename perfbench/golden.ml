(* Golden makespans recorded from the seed tree for the default seed
   (every ITC'02 entry applies to any seed). A solve whose key is in
   the table must reproduce its makespan exactly; keys the table lacks
   (Synth SOCs of other seeds) are checked by the audit alone.

   File format, one entry a line:
   kind <TAB> SOC digest <TAB> TAM width <TAB> makespan <TAB> label *)

module Engine = Soctest_engine.Engine

let default_seed = 1

type key = string * string * int

let key ~kind soc width : key = (kind, Engine.soc_digest soc, width)

let load path : (key, int) Hashtbl.t =
  let tbl = Hashtbl.create 256 in
  let ic = open_in path in
  (try
     while true do
       match String.split_on_char '\t' (input_line ic) with
       | [ kind; digest; w; t; _label ] ->
         Hashtbl.replace tbl (kind, digest, int_of_string w) (int_of_string t)
       | _ -> ()
     done
   with End_of_file -> close_in ic);
  tbl

(* [] when the makespan agrees with the table or the table has no
   entry for the key. *)
let check tbl key makespan =
  match Hashtbl.find_opt tbl key with
  | Some t when t <> makespan ->
    let kind, _, w = key in
    [ Printf.sprintf "%s W=%d makespan %d, golden %d" kind w makespan t ]
  | _ -> []

let write path entries =
  let oc = open_out path in
  List.iter
    (fun (((kind, digest, w) : key), t, label) ->
      Printf.fprintf oc "%s\t%s\t%d\t%d\t%s\n" kind digest w t label)
    entries;
  close_out oc

(* Seeded inputs. Everything a workload hands the libraries or the
   daemon is made here from the run seed: Synth SOC profiles, the four
   ITC'02 SOCs, TAM widths, and the order they arrive in. The seed
   changes which synthetic SOCs are drawn and the order of every
   stream, never the shape of the mix (core-count strata, widths per
   ITC'02 SOC, the /v1/check share), so runs with different seeds load
   the same layers in the same proportions. *)

module Soc_def = Soctest_soc.Soc_def
module Synth = Soctest_soc.Synth
module Benchmarks = Soctest_soc.Benchmarks
module Constraint_def = Soctest_constraints.Constraint_def
module Flow = Soctest_engine.Flow
module Json = Soctest_obs.Json

let itc02 () =
  [
    Benchmarks.d695 ();
    Benchmarks.p22810 ();
    Benchmarks.p34392 ();
    Benchmarks.p93791 ();
  ]

let is_itc02 soc =
  List.mem soc.Soc_def.name [ "d695"; "p22810"; "p34392"; "p93791" ]

let rng ~seed ~stream =
  Synth.rng_of_seed
    (Int64.add (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)
       (Int64.of_int (stream * 7919)))

let pick rng xs = List.nth xs (Synth.next_int rng (List.length xs))

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Synth.next_int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* A synthetic SOC with [cores] cores, BIST engines and hierarchy pairs,
   sized like the Philips SOCs (about 0.5 Mbit of test data a core). *)
let synth rng ~cores =
  let seed = Int64.of_int (Synth.next_int rng 0x3FFFFFFF) in
  Synth.generate
    {
      Synth.name = Printf.sprintf "synth%d_%Lx" cores seed;
      seed;
      core_count = cores;
      target_data_bits = cores * 500_000;
      big_core_fraction = 0.3;
      combinational_fraction = 0.1;
      hierarchy_pairs = 1 + (cores / 16);
      bist_engines = 1 + (cores / 16);
    }

(* Problem 2 as the paper's Table 1 sets it: the default power cap and
   two preemptions for the larger cores, plus the hierarchy and BIST
   exclusions the SOC implies. *)
let p2_constraints soc =
  Constraint_def.of_soc soc
    ~power_limit:(Flow.default_power_limit soc)
    ~max_preemptions:(Flow.preemption_budget soc ~limit:2)
    ()

let cold_widths = [ 16; 32; 64 ]
let cold_strata = [ 8; 12; 16; 20; 24; 28; 32; 36; 40 ]

(* One pass of the cold stream: every ITC'02 SOC at every width, and one
   Synth SOC per core-count stratum at a drawn width, in seeded order. *)
let cold_pass ~seed =
  let r = rng ~seed ~stream:1 in
  let itc =
    List.concat_map
      (fun soc -> List.map (fun w -> (soc, w)) cold_widths)
      (itc02 ())
  in
  let syn =
    List.map
      (fun cores ->
        let soc = synth r ~cores in
        (soc, pick r cold_widths))
      cold_strata
  in
  shuffle r (itc @ syn)

let explore_widths = [ 8; 16; 24; 32; 40; 48; 56; 64 ]

(* One cycle of explore sessions: the paper's four SOCs, the ones its
   Table-1/Table-2 search covers, in seeded order. Seeded Synth SOCs
   are left to [cold]: their sizes set where the explore latency
   percentiles fall, which moved those figures by more than any bound
   from seed to seed. *)
let explore_cycle ~seed = shuffle (rng ~seed ~stream:2) (itc02 ())

(* /v1/solve and /v1/check bodies carry the SOC inline as .soc text. *)
let soc_text soc = Json.String (Soctest_soc.Soc_writer.to_string soc)

let p2_knobs soc =
  [
    ("power_limit", Json.Int (Flow.default_power_limit soc));
    ("preempt", Json.Int 2);
  ]

let solve_body ~p2 ~grid soc width =
  Json.to_string
    (Json.Obj
       ([
          ("soc_text", soc_text soc);
          ("width", Json.Int width);
          ("problem", Json.String (if p2 then "p2" else "p1"));
          ("strategy", Json.String (if grid then "grid" else "point"));
        ]
       @ if p2 then p2_knobs soc else []))

let check_body soc schedule_text =
  Json.to_string
    (Json.Obj
       ([ ("soc_text", soc_text soc); ("schedule_text", Json.String schedule_text) ]
       @ p2_knobs soc))

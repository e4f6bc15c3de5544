(* Order statistics over float samples. Percentiles interpolate
   linearly between closest ranks (the numpy default), so a percentile
   of few samples moves smoothly instead of jumping between them. *)

let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  match Array.length a with
  | 0 -> nan
  | n ->
    let r = p /. 100. *. float_of_int (n - 1) in
    let lo = truncate r in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.

let sum xs = List.fold_left ( +. ) 0. xs

let mean = function
  | [] -> nan
  | xs -> sum xs /. float_of_int (List.length xs)

(* Order statistics for the benchmark's reports.

   Percentiles are nearest-rank: the p-th percentile of n sorted samples
   is the sample at 1-based rank ceil(p * n).  A percentile is
   "supported" by a sample when at least ten samples lie strictly beyond
   it (n - rank >= 10); a report names the highest supported rung of
   {!ladder} next to every timing, with the sample count. *)

(* Percentile rungs as exact fractions (numerator over 1000), so the
   support rule never suffers from float rounding. *)
let ladder = [ (500, "p50"); (900, "p90"); (990, "p99"); (999, "p99.9") ]

let rank ~per_mille n = ((per_mille * n) + 999) / 1000

let beyond ~per_mille n = n - rank ~per_mille n

let supported ~per_mille n = n > 0 && beyond ~per_mille n >= 10

(* The highest rung with at least ten samples beyond it, if any. *)
let highest_supported n =
  List.fold_left
    (fun acc (pm, name) -> if supported ~per_mille:pm n then Some (pm, name) else acc)
    None ladder

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an already sorted array; nan when empty. *)
let of_sorted a ~per_mille =
  let n = Array.length a in
  if n = 0 then Float.nan else a.(max 0 (rank ~per_mille n - 1))

let percentile xs ~per_mille = of_sorted (sorted xs) ~per_mille

let median xs = percentile xs ~per_mille:500

let mean xs =
  let n = Array.length xs in
  if n = 0 then Float.nan else Array.fold_left ( +. ) 0.0 xs /. Float.of_int n

(* "n=1234, highest supported p99" for a sample of [n] — flagged when
   the sample cannot support the percentile being reported. *)
let describe_count ~per_mille n =
  let best = match highest_supported n with Some (_, name) -> name | None -> "none" in
  Printf.sprintf "n=%d, highest supported %s%s" n best
    (if supported ~per_mille n then "" else ", UNSUPPORTED by sample size")

let describe ~per_mille xs = describe_count ~per_mille (Array.length xs)

(* ------------------------------------------------------------ windows *)

(* A run's timed phase is cut into windows of about ten seconds; each
   end-to-end figure is computed per window and reported as the median
   over windows, so a slow spell of a shared host sways one window
   rather than the run's tail. *)
let window_count ~seconds = max 1 (seconds / 10)

(* The samples [xs], stamped [at] (seconds from the start of the timed
   phase), split into [n] consecutive windows of [width] seconds;
   samples stamped outside [0, n * width) are dropped. *)
let split ~n ~width ~at xs =
  let w = Array.make n [] in
  for i = Array.length xs - 1 downto 0 do
    let j = int_of_float (Float.floor (at.(i) /. width)) in
    if j >= 0 && j < n then w.(j) <- xs.(i) :: w.(j)
  done;
  Array.map Array.of_list w

(* The median of per-window figures: the middle one, or the mean of the
   two middle ones for an even count; nan when empty. *)
let mid_median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Metric lines, the JSON result line and the per-run results row,
   shared by the end-to-end and traced runs. *)

module W = Perfbench.Workload
module Pct = Perfbench.Pct

type meta = { profile : string; commit : string; cores : int; ocaml : string }

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name value unit_ = { name; value; unit_; note }

(* A percentile of [xs], scaled into [unit_], with the sample count and
   the highest percentile the sample supports as its note. *)
let timing ?(unit_ = "ms") ?(scale = 1.0) name xs ~per_mille =
  let xs = Array.map (fun x -> x *. scale) xs in
  metric name (Pct.percentile xs ~per_mille) unit_ ~note:(Pct.describe ~per_mille xs)

(* A percentile taken in each window of [wins] and reported as the
   median over windows; the note gives the total sample count and the
   support of the smallest window. *)
let windowed_timing name wins ~per_mille =
  let sizes = Array.map Array.length wins in
  let per = Array.map (fun xs -> Pct.percentile xs ~per_mille) wins in
  metric name (Pct.mid_median per) "ms"
    ~note:
      (Printf.sprintf "median of %d windows, n=%d in all; smallest window %s" (Array.length wins)
         (Array.fold_left ( + ) 0 sizes)
         (Pct.describe_count ~per_mille (Array.fold_left min max_int sizes)))

let print_metrics ms =
  List.iter
    (fun m ->
      Printf.printf "metric %-44s %14.6g %-6s %s\n" m.name m.value m.unit_
        (if m.note = "" then "" else "(" ^ m.note ^ ")"))
    ms

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_float m.value) m.unit_)
       ms)

let result_line ~correct ~attempted ~failed ms =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (json_metrics ms)

(* One row per run in the record_metrics shape: items processed, average
   error and its percentiles (here the per-key SSE ratio), query speed
   and memory, plus the host and build the numbers came from. *)
let append_row ~results ~meta ~(w : W.t) ~seed ~seconds ~mode ~items ~ratios ~query_speed
    ~memory ms =
  let sorted = Pct.sorted ratios in
  let pc pm = json_float (Pct.of_sorted sorted ~per_mille:pm) in
  let row =
    Printf.sprintf
      "{\"workload\": %S, \"seed\": %d, \"seconds\": %d, \"mode\": %S, \"host\": {\"cores\": %d, \
       \"ocaml\": %S, \"profile\": %S, \"commit\": %S}, \"processed_items\": %d, \"avg_error\": \
       %s, \"percentiles\": {\"50th\": %s, \"90th\": %s, \"95th\": %s, \"100th\": %s}, \
       \"query_speed\": %s, \"memory_usage\": %s, \"metrics\": {%s}}"
      w.name seed seconds mode meta.cores meta.ocaml meta.profile meta.commit items
      (json_float (Pct.mean ratios)) (pc 500) (pc 900) (pc 950) (pc 1000) (json_float query_speed)
      (json_float memory) (json_metrics ms)
  in
  Out_channel.with_open_gen [ Open_wronly; Open_creat; Open_append; Open_text ] 0o644 results
    (fun oc -> output_string oc (row ^ "\n"));
  print_endline ("row " ^ row)


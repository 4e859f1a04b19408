(* The benchmark driver: [pbench --workload W --seed N --seconds S
   --trace 0|1 --shist PATH --dir DIR ...].

   With [--trace 0] it generates the workload's inputs and checkpoints
   from the seed, launches the system [setups] times (timing each launch
   until the last server accepts a connection), drives the last launch
   for [--seconds] with the two-connection load generator, runs the
   correctness gate, and prints every end-to-end metric.  With
   [--trace 1] it runs the in-process ladder instead and prints the
   per-layer metrics.  The last line of stdout is the JSON result;
   a failed correctness gate exits 1. *)

module Conn = Sh_net.Conn
module W = Perfbench.Workload
module Pct = Perfbench.Pct
open Report

(* ------------------------------------------------------------- e2e *)

let e2e (w : W.t) ~seed ~seconds ~shist ~dir ~meta ~results =
  let inputs = W.generate w ~seed ~seconds in
  let ckpts = System.write_checkpoints inputs ~dir in
  let setups = Array.make w.setups 0.0 in
  let sys =
    let rec go i =
      let s = System.launch w ~shist ~dir ~ckpts in
      setups.(i) <- s.System.setup_s;
      if i = w.setups - 1 then s
      else begin
        System.stop s;
        go (i + 1)
      end
    in
    go 0
  in
  Printf.printf "setup: %s s\n%!"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") setups)));
  let r = Loadgen.run ~entry:sys.System.entry ~inputs ~seconds in
  let gate = Gate.run ~conn:(fst r.Loadgen.conns) ~inputs ~ckpts ~ingest_sent:r.ingest_sent in
  let rss = System.rss_mb sys in
  Conn.close (fst r.conns);
  Conn.close (snd r.conns);
  System.stop sys;
  let attempted = r.ingest_sent + r.query_sent + gate.Gate.requests in
  let failed = r.ingest_failed + r.query_failed + gate.failed in
  let late_p99 = Pct.percentile r.late_ms ~per_mille:990 in
  let answered = Array.length r.key_ms + Array.length r.global_ms in
  let n = Pct.window_count ~seconds in
  let width = Float.of_int seconds /. Float.of_int n in
  let acks = Pct.split ~n ~width ~at:r.ack_at r.ack_ms in
  let keys = Pct.split ~n ~width ~at:r.key_at r.key_ms in
  let globals = Pct.split ~n ~width ~at:r.global_at r.global_ms in
  (* Every counted ack is a whole batch. *)
  let window_pps = Array.map (fun a -> Float.of_int (Array.length a * w.ingest_batch) /. width) acks in
  let ms =
    [
      metric "ingest_pps" (Pct.mid_median window_pps) "pts/s"
        ~note:
          (Printf.sprintf "median of %d windows of %g s: %s; %d points over %.3f s, batch %d" n
             width
             (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.0f") window_pps)))
             r.acked_points r.elapsed w.ingest_batch);
      windowed_timing "ingest_ack_p99_ms" acks ~per_mille:990;
      windowed_timing "query_p50_ms" keys ~per_mille:500;
      windowed_timing "query_p99_ms" keys ~per_mille:990;
      windowed_timing "global_query_p50_ms" globals ~per_mille:500;
      windowed_timing "global_query_p90_ms" globals ~per_mille:900;
      metric "setup_s" (Pct.median setups) "s" ~note:(Printf.sprintf "median of %d launches" w.setups);
      metric "server_rss_mb" rss "MiB" ~note:"sum of VmHWM over the system's processes";
      metric "sse_ratio_max" (Array.fold_left Float.max Float.neg_infinity gate.sse_ratios) "ratio"
        ~note:(Printf.sprintf "over %d keys, bound 1+eps = %g" (Array.length gate.sse_ratios)
                 (1.0 +. w.epsilon));
      metric "ok_frac" (1.0 -. (Float.of_int failed /. Float.of_int (max 1 attempted))) "frac"
        ~note:(Printf.sprintf "%d failed of %d attempted" failed attempted);
    ]
  in
  (* Printed and recorded, but not a benchmark metric: a median ack is one
     scheduler round trip on an idle server (15-40 us), and on a shared
     VM it moves by a third between back-to-back runs of one seed. *)
  let diagnostic = [ timing "ingest_ack_p50_ms" r.ack_ms ~per_mille:500 ] in
  Printf.printf "loadgen: %d ingest requests, %d query batches (%d Key, %d Global answered)\n"
    r.ingest_sent r.query_sent (Array.length r.key_ms) (Array.length r.global_ms);
  Printf.printf "loadgen: late p99 %.3f ms (%s)%s\n" late_p99 (Pct.describe ~per_mille:990 r.late_ms)
    (if r.behind then "  WARNING: open-loop sender fell behind its schedule" else "");
  Printf.printf "gate: %s — %d/%d probes bit-identical, %d ratio violation(s), sse ratio min %.9f max %.9f\n"
    (if gate.ok then "PASS" else "FAIL")
    (gate.probes - gate.mismatches) gate.probes gate.ratio_violations
    (Array.fold_left Float.min Float.infinity gate.sse_ratios)
    (Array.fold_left Float.max Float.neg_infinity gate.sse_ratios);
  print_metrics (ms @ diagnostic);
  append_row ~results ~meta ~w ~seed ~seconds ~mode:"e2e" ~items:r.acked_points
    ~ratios:gate.sse_ratios
    ~query_speed:(Float.of_int answered /. Float.of_int seconds)
    ~memory:rss (ms @ diagnostic);
  print_endline (result_line ~correct:gate.ok ~attempted ~failed ms);
  if not gate.ok then exit 1

(* ------------------------------------------------------------ main *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let shist = ref "" and dir = ref "" and results = ref "" in
  let commit = ref "unknown" and cores = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S timed-phase length");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced ladder run");
      ("--shist", Arg.Set_string shist, "PATH shist executable under test");
      ("--dir", Arg.Set_string dir, "DIR scratch directory for checkpoints and sockets");
      ("--results", Arg.Set_string results, "FILE JSONL file to append the run's row to");
      ("--commit", Arg.Set_string commit, "ID source revision, recorded with the row");
      ("--host-cores", Arg.Set_int cores, "N cores of the host, recorded with the row");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pbench --workload NAME --seed N --seconds S --trace 0|1 --shist PATH --dir DIR --results FILE";
  let w =
    match W.find !workload with
    | Some w -> w
    | None ->
      prerr_endline ("pbench: unknown workload " ^ !workload);
      exit 2
  in
  let meta =
    {
      (* run.py builds the release profile only. *)
      profile = "release";
      commit = !commit;
      cores = (if !cores > 0 then !cores else Domain.recommended_domain_count ());
      ocaml = Sys.ocaml_version;
    }
  in
  Printf.printf "host: %d cores, OCaml %s, profile %s, commit %s\n" meta.cores meta.ocaml
    meta.profile meta.commit;
  Printf.printf "workload %s (seed %d, %d s): %s\n%!" w.name !seed !seconds w.why;
  if !trace = 0 then
    e2e w ~seed:!seed ~seconds:!seconds ~shist:!shist ~dir:!dir ~meta ~results:!results
  else Trace.run w ~seed:!seed ~seconds:!seconds ~dir:!dir ~meta ~results:!results

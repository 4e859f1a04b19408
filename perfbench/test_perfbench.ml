(* Tests for the benchmark's own logic: the percentile support rule,
   open-loop due-time accounting, ladder self-time subtraction, and
   seeded input generation. *)

module Pct = Perfbench.Pct
module OL = Perfbench.Openloop
module L = Perfbench.Ladder
module W = Perfbench.Workload

let close = Alcotest.float 1e-9

(* ------------------------------------------------------ percentiles *)

let test_support_rule () =
  let name n = Option.map snd (Pct.highest_supported n) in
  let check n want = Alcotest.(check (option string)) (Printf.sprintf "n=%d" n) want (name n) in
  check 0 None;
  check 19 None;
  check 20 (Some "p50");
  check 99 (Some "p50");
  check 100 (Some "p90");
  check 999 (Some "p90");
  check 1000 (Some "p99");
  check 9999 (Some "p99");
  check 10000 (Some "p99.9");
  Alcotest.(check int) "ten beyond p99 of 1000" 10 (Pct.beyond ~per_mille:990 1000)

let test_nearest_rank () =
  let xs = Array.init 100 (fun i -> Float.of_int (100 - i)) in
  Alcotest.check close "p50" 50.0 (Pct.percentile xs ~per_mille:500);
  Alcotest.check close "p90" 90.0 (Pct.percentile xs ~per_mille:900);
  Alcotest.check close "p99" 99.0 (Pct.percentile xs ~per_mille:990);
  Alcotest.check close "median" 50.0 (Pct.median xs);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Pct.median [||]))

let test_describe_counts () =
  let d = Pct.describe ~per_mille:990 (Array.make 500 1.0) in
  Alcotest.(check string) "count, best rung, flag"
    "n=500, highest supported p90, UNSUPPORTED by sample size" d;
  Alcotest.(check string) "supported"
    "n=1000, highest supported p99" (Pct.describe ~per_mille:990 (Array.make 1000 1.0))

let test_windows () =
  let at = [| 0.5; 9.9; 10.0; 25.0; 39.99; 40.0; -0.1 |] in
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0 |] in
  let w = Pct.split ~n:4 ~width:10.0 ~at xs in
  Alcotest.(check (array (array (float 0.0)))) "by stamp, outside dropped"
    [| [| 1.0; 2.0 |]; [| 3.0 |]; [| 4.0 |]; [| 5.0 |] |] w;
  Alcotest.check close "odd count: middle" 2.0 (Pct.mid_median [| 3.0; 1.0; 2.0 |]);
  Alcotest.check close "even count: mean of the middle two" 2.5
    (Pct.mid_median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.(check int) "ten-second windows" 4 (Pct.window_count ~seconds:40);
  Alcotest.(check int) "at least one" 1 (Pct.window_count ~seconds:5)

(* ---------------------------------------------------- open loop *)

(* A server that answers instantly except during a stall from 100 ms to
   300 ms, when nothing completes before the stall ends. *)
let stall_lo = 0.100
let stall_hi = 0.300
let answer_at t = if t >= stall_lo && t < stall_hi then stall_hi else t

let run_schedule ~blocked_sender =
  let ol = OL.create ~start:0.0 ~offsets:(Array.init 50 (fun i -> Float.of_int i *. 0.01)) in
  for i = 0 to OL.length ol - 1 do
    let due = OL.due ol i in
    (* A sender that waits on the server cannot send during the stall. *)
    let sent = if blocked_sender then answer_at due else due in
    OL.mark_sent ol i ~now:sent;
    OL.mark_completed ol i ~now:(answer_at sent)
  done;
  ol

let test_stall_raises_later_latency () =
  List.iter
    (fun blocked_sender ->
      let lat = OL.latencies (run_schedule ~blocked_sender) in
      Alcotest.(check int) "all answered" 50 (Array.length lat);
      (* Requests due during the stall wait for its end, measured from
         when they were due — even when the sender itself was held up. *)
      for i = 0 to 49 do
        let due = Float.of_int i *. 0.01 in
        let want = if due >= stall_lo && due < stall_hi then stall_hi -. due else 0.0 in
        Alcotest.check close (Printf.sprintf "request %d" i) want lat.(i)
      done;
      Alcotest.(check bool) "request due at 110 ms waited 190 ms" true (lat.(11) > 0.18))
    [ false; true ]

let test_lateness_flag () =
  Alcotest.(check bool) "on-time sender" false (OL.behind (run_schedule ~blocked_sender:false));
  let late = run_schedule ~blocked_sender:true in
  Alcotest.(check bool) "sender held up by the stall" true (OL.behind late);
  Alcotest.check close "worst lateness" 0.2 (Array.fold_left Float.max 0.0 (OL.lateness late))

(* -------------------------------------------------------- ladder *)

let synthetic () =
  let r = L.recorder () in
  let add rung req start stop kind =
    L.add r { L.name = "x"; kind; rung; req; start; stop }
  in
  (* req 0: R1 2 ms, R2 3 ms, R3 5 ms; req 1: R1 1, R2 1.5, R3 4. *)
  add 1 0 0.0 0.002 L.Request;
  add 1 0 0.0 0.001 L.Op;
  add 2 0 0.010 0.013 L.Request;
  add 3 0 0.020 0.025 L.Request;
  add 1 1 0.030 0.031 L.Request;
  add 2 1 0.040 0.0415 L.Request;
  add 3 1 0.050 0.054 L.Request;
  (* Only on rung 1: not part of any subtraction or share. *)
  add 1 2 0.060 0.070 L.Request;
  L.spans r

let test_self_time () =
  let spans = synthetic () in
  let self = L.self_times spans ~lower:2 ~upper:3 in
  Alcotest.(check (list int)) "ids on both rungs" [ 0; 1 ] (List.map fst self);
  Alcotest.check close "req 0 R3 self" 0.002 (List.assoc 0 self);
  Alcotest.check close "req 1 R3 self" 0.0025 (List.assoc 1 self);
  Alcotest.check close "req 0 R2 self, op span ignored" 0.001
    (List.assoc 0 (L.self_times spans ~lower:1 ~upper:2))

let test_shares () =
  let shares = L.shares (synthetic ()) ~top:3 in
  let base = 0.009 in
  Alcotest.check close "R1" (0.003 /. base) (List.assoc 1 shares);
  Alcotest.check close "R2" (0.0015 /. base) (List.assoc 2 shares);
  Alcotest.check close "R3" (0.0045 /. base) (List.assoc 3 shares);
  Alcotest.check close "sum to one" 1.0 (List.fold_left (fun a (_, s) -> a +. s) 0.0 shares)

let test_recorder_off () =
  let r = L.recorder () in
  r.on <- false;
  let x = L.span r ~name:"x" ~kind:L.Request ~rung:1 ~req:0 (fun () -> 42) in
  Alcotest.(check int) "result passes through" 42 x;
  Alcotest.(check int) "nothing recorded" 0 r.count

(* -------------------------------------------------------- seeds *)

let test_same_seed_same_requests () =
  List.iter
    (fun (w : W.t) ->
      let a = W.generate w ~seed:7 ~seconds:1 and b = W.generate w ~seed:7 ~seconds:1 in
      let c = W.generate w ~seed:8 ~seconds:1 in
      Alcotest.(check bool) (w.name ^ ": same seed, same inputs") true
        (a.initial = b.initial && a.ingest = b.ingest && a.schedule = b.schedule && a.queries = b.queries
        && a.quiesce = b.quiesce && a.probes = b.probes);
      Alcotest.(check bool) (w.name ^ ": same ladder sequence") true
        (W.ladder_requests a ~count:200 = W.ladder_requests b ~count:200);
      Alcotest.(check bool) (w.name ^ ": another seed differs") false (a.ingest = c.ingest))
    W.all

let test_generated_shapes () =
  List.iter
    (fun (w : W.t) ->
      let inp = W.generate w ~seed:3 ~seconds:1 in
      Alcotest.(check int) (w.name ^ ": batch size") w.ingest_batch (W.points_in inp.ingest.(0));
      Alcotest.(check int) (w.name ^ ": quiesce per key") (W.keys w * max w.window w.every)
        (W.points_in inp.quiesce);
      Alcotest.(check bool) (w.name ^ ": full starting windows, phases spread") true
        (Array.for_all Fun.id
           (Array.mapi (fun k a -> Array.length a = w.window + W.phase w k) inp.initial));
      Alcotest.(check bool) (w.name ^ ": phases within the cadence") true
        (W.phase w (W.keys w - 1) < w.every);
      Alcotest.(check int) (w.name ^ ": probes") ((W.keys w + 1) * 5) (Array.length inp.probes))
    W.all

let () =
  Alcotest.run "perfbench"
    [
      ( "percentiles",
        [
          Alcotest.test_case "support rule" `Quick test_support_rule;
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "describe prints count" `Quick test_describe_counts;
          Alcotest.test_case "windows" `Quick test_windows;
        ] );
      ( "open loop",
        [
          Alcotest.test_case "stall raises later latency" `Quick test_stall_raises_later_latency;
          Alcotest.test_case "lateness flag" `Quick test_lateness_flag;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "self time subtraction" `Quick test_self_time;
          Alcotest.test_case "shares" `Quick test_shares;
          Alcotest.test_case "recorder off" `Quick test_recorder_off;
        ] );
      ( "seeds",
        [
          Alcotest.test_case "same seed same requests" `Quick test_same_seed_same_requests;
          Alcotest.test_case "generated shapes" `Quick test_generated_shapes;
        ] );
    ]

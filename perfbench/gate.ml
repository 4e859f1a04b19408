(* The correctness gate, run after the timed phase.

   One quiesce Ingest carries max(window, every) points per key, so every
   shard crosses its [every:k] boundary, refreshes and republishes, and
   each key's final window is exactly its run of the quiesce batch.  Then
   the probe batch (the five ops on every key, then the five ops Global)
   is answered by the system and checked against a local sequential
   oracle: per-key {!Stream_histogram.Fixed_window}s decoded from the
   same checkpoints and fed the same per-key substreams, Global folded in
   ascending key order from [0.0].  Answers must be bit-identical
   ([Float.equal]).  Each key's [Current_error] must also lie within
   [1, 1 + epsilon] of the exact V-optimal SSE of its final window. *)

module FW = Stream_histogram.Fixed_window
module Q = Stream_histogram.Query_op
module SE = Sh_par.Shard_engine
module Wire = Sh_net.Wire
module W = Perfbench.Workload

type result = {
  ok : bool;
  mismatches : int;
  probes : int;
  sse_ratios : float array;  (* per key: Current_error / exact V-optimal SSE *)
  ratio_violations : int;
  requests : int;  (* gate requests sent *)
  failed : int;  (* gate requests that failed *)
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Per-global-key summaries decoded from the leaves' checkpoints. *)
let decode_keys ckpts =
  Array.concat (Array.to_list (Array.map (fun f -> SE.decode_snapshot (read_file f)) ckpts))

(* Fold [eval] over keys ascending from 0.0 — the Global contract. *)
let fold_global views q =
  Array.fold_left (fun acc v -> acc +. Q.eval_view v q) 0.0 views

let oracle_answers (inputs : W.inputs) ~ckpts ~ingest_sent =
  let fws = decode_keys ckpts in
  Array.iter (fun fw -> FW.set_refresh_policy fw Stream_histogram.Params.Lazy) fws;
  let feed groups = Array.iter (fun (k, vs) -> FW.push_many fws.(k) vs) groups in
  let pool = Array.length inputs.ingest in
  for i = 0 to ingest_sent - 1 do
    feed inputs.ingest.(i mod pool)
  done;
  feed inputs.quiesce;
  let views = Array.map FW.view fws in
  Array.map
    (fun (scope, q) ->
      match scope with Q.Key k -> Q.eval_view views.(k) q | Q.Global -> fold_global views q)
    inputs.probes

let exact_sse (w : W.t) run =
  let n = Array.length run in
  let last = Array.sub run (n - w.window) w.window in
  Sh_histogram.Vopt.optimal_error (Sh_prefix.Prefix_sums.make last) ~buckets:w.buckets

(* Relative slack for float rounding in the ratio bounds: the server's
   prefix sums accumulate over the whole stream, the exact DP's over the
   final window only. *)
let tolerance = 1e-9

let run ~conn ~(inputs : W.inputs) ~ckpts ~ingest_sent =
  let w = inputs.workload in
  let requests = ref 0 and failed = ref 0 in
  let send req =
    incr requests;
    try Some (Loadgen.call conn (Wire.encode_request req))
    with Loadgen.Broken msg ->
      Printf.printf "gate: %s\n%!" msg;
      incr failed;
      None
  in
  let expected_points = W.points_in inputs.quiesce in
  (match send (Wire.Ingest inputs.quiesce) with
   | Some (Wire.Ack n) when n = expected_points -> ()
   | Some _ ->
     incr failed;
     Printf.printf "gate: quiesce ingest not fully acked\n%!"
   | None -> ());
  let served =
    match send (Wire.Query inputs.probes) with
    | Some (Wire.Answers a) when Array.length a = Array.length inputs.probes -> Some a
    | _ ->
      incr failed;
      None
  in
  let expected = oracle_answers inputs ~ckpts ~ingest_sent in
  let mismatches =
    match served with
    | None -> Array.length expected
    | Some a ->
      let bad = ref 0 in
      Array.iteri
        (fun i e ->
          if not (Float.equal a.(i) e) then begin
            if !bad < 5 then
              Printf.printf "gate: probe %d (%s): served %h, oracle %h\n" i
                (Q.to_string (snd inputs.probes.(i)))
                a.(i) e;
            incr bad
          end)
        expected;
      !bad
  in
  let served_err k =
    match served with Some a -> a.(k * 5) | None -> expected.(k * 5)
  in
  let sse_ratios =
    Array.map (fun (k, run) -> served_err k /. exact_sse w run) inputs.quiesce
  in
  let ratio_violations =
    Array.fold_left
      (fun n r ->
        if r >= 1.0 -. tolerance && r <= 1.0 +. w.epsilon +. tolerance then n else n + 1)
      0 sse_ratios
  in
  {
    ok = !failed = 0 && mismatches = 0 && ratio_violations = 0;
    mismatches;
    probes = Array.length inputs.probes;
    sse_ratios;
    ratio_violations;
    requests = !requests;
    failed = !failed;
  }

(* The traced ladder run.

   One request sequence ({!Perfbench.Workload.ladder_requests}) is
   replayed up a ladder of in-process rungs, each calling one more
   layer's public functions and recording one request span per request
   id:

   - R1 fixed_window: per-key summaries decoded from the checkpoints
     (Lazy policy); [push_slice] per group, then [refresh] + [view]
     whenever a key crosses its [every:k] boundary; queries answered
     from the last cut views.
   - R2 shard_engine: engines [restore_from] the checkpoints, then
     [ingest_groups], [query_many] and [query_global].
   - R3 server/wire: [Server.run] on a domain per leaf over a restored
     engine; the client encodes, sends, receives and decodes.
   - R4 aggregator: [Aggregator.ingest] / [Aggregator.query] over
     R3-style leaves.

   The rungs run in lockstep — request [i] goes through every rung before
   request [i+1] goes through any — so a layer's self time (its rung's
   span minus the rung below's on the same id) pairs measurements taken
   moments apart, and a slow spell on a shared host hits both sides.  A
   second, untraced instance of the top rung (R3, or R4 when the workload
   has a root) steps in the same lockstep with only a clock pair around
   each request; the two give the tracing overhead.

   On single-leaf workloads the root is not in the request path: after
   the main ladder, a fresh R3/R4 pair replays the same ids, without the
   Global batches (each would decode a whole snapshot), for the
   aggregator's ingest and Key-query overheads; the Global path is timed
   piecewise on every workload. *)

module FW = Stream_histogram.Fixed_window
module FG = Stream_histogram.Fw_group
module Q = Stream_histogram.Query_op
module Params = Stream_histogram.Params
module SE = Sh_par.Shard_engine
module Pool = Sh_par.Domain_pool
module Addr = Sh_net.Addr
module Conn = Sh_net.Conn
module Wire = Sh_net.Wire
module Server = Sh_net.Server
module Client = Sh_net.Client
module Aggregator = Sh_agg.Aggregator
module W = Perfbench.Workload
module L = Perfbench.Ladder
module Pct = Perfbench.Pct
open Report

let max_requests = 10_000
let clock = L.clock

(* Accumulate [f]'s duration into [acc] when tracing is on. *)
let timed (r : L.recorder) acc f =
  if not r.on then f ()
  else begin
    let t0 = clock () in
    let x = f () in
    acc := !acc +. (clock () -. t0);
    x
  end

let sample (r : L.recorder) samples f =
  if not r.on then f ()
  else begin
    let t0 = clock () in
    let x = f () in
    samples := (clock () -. t0) :: !samples;
    x
  end

let sink x = ignore (Sys.opaque_identity x)
let is_global_batch qs = Array.exists (fun (s, _) -> s = Q.Global) qs

(* One rung instance: [step id request] runs one request through it. *)
type rung = { rung : int; recorder : L.recorder; step : int -> W.request -> unit; wall : float ref }

let rung_of ~rung ~recorder step = { rung; recorder; step; wall = ref 0.0 }

(* Step [n] requests (fewer if [budget] seconds pass) through every rung,
   request by request; odd requests visit the rungs in reverse order, so
   no rung always runs first on warm or cold caches.  Returns how many
   requests ran. *)
let lockstep ?budget rungs reqs ~n =
  Gc.compact ();
  let t0 = clock () in
  let i = ref 0 in
  let over () = match budget with Some b -> !i > 0 && clock () -. t0 >= b | None -> false in
  while !i < n && not (over ()) do
    let id = !i in
    List.iter
      (fun r ->
        let s = clock () in
        L.span r.recorder ~name:(Printf.sprintf "r%d.request" r.rung) ~kind:L.Request ~rung:r.rung
          ~req:id (fun () -> r.step id reqs.(id));
        r.wall := !(r.wall) +. (clock () -. s))
      (if id land 1 = 0 then rungs else List.rev rungs);
    incr i
  done;
  !i

(* Key answers per query request id, recorded by R1 and checked
   bit-for-bit on R2 and R3 (all three read views cut at the same
   refresh points).  On odd request ids the rungs run top first, so an
   answer that arrives before R1's waits in [pending]. *)
type answers = {
  expected : (int, float array) Hashtbl.t;
  pending : (int, float array) Hashtbl.t;
  mutable checked : int;
  mutable mismatched : int;
}

let key_answers qs answer =
  Array.of_list
    (List.filter_map
       (fun (scope, q) -> match scope with Q.Key k -> Some (answer k q) | Q.Global -> None)
       (Array.to_list qs))

let compare_answers ans e got =
  ans.checked <- ans.checked + 1;
  if not (Array.length e = Array.length got && Array.for_all2 Float.equal e got) then
    ans.mismatched <- ans.mismatched + 1

let check ans id got =
  match Hashtbl.find_opt ans.expected id with
  | Some e -> compare_answers ans e got
  | None -> Hashtbl.add ans.pending id got

let expect ans id e =
  Hashtbl.replace ans.expected id e;
  while Hashtbl.mem ans.pending id do
    compare_answers ans e (Hashtbl.find ans.pending id);
    Hashtbl.remove ans.pending id
  done

(* ------------------------------------------------------------ R1 *)

type r1 = {
  refresh_s : float list ref;
  view_s : float list ref;
  push_s : float ref;
  pushed : int ref;
  wc : int array;  (* evals, scan steps, intervals, memo probes, memo hits, refreshes *)
  mutable refresh_total : float;  (* refresh + view time *)
  fws : FW.t array;
}

let wc_vec (c : FW.work_counters) =
  [| c.herror_evaluations; c.scan_steps; c.intervals_built; c.memo_probes; c.memo_hits; c.refreshes |]

let r1_make (w : W.t) rec_ ~ckpts ~ans =
  let fws = Gate.decode_keys ckpts in
  Array.iter (fun fw -> FW.set_refresh_policy fw Params.Lazy) fws;
  let views = Array.map FW.view fws in
  let st =
    {
      refresh_s = ref [];
      view_s = ref [];
      push_s = ref 0.0;
      pushed = ref 0;
      wc = Array.make 6 0;
      refresh_total = 0.0;
      fws;
    }
  in
  let step id = function
    | W.Ingest groups ->
      Array.iter
        (fun (k, vs) ->
          let fw = fws.(k) in
          timed rec_ st.push_s (fun () -> FW.push_slice fw vs ~pos:0 ~len:(Array.length vs));
          st.pushed := !(st.pushed) + Array.length vs;
          if FW.pending_pushes fw >= w.every then begin
            let t0 = clock () in
            let before = wc_vec (FW.work_counters fw) in
            L.span rec_ ~name:"fixed_window.refresh" ~kind:L.Op ~rung:1 ~req:id (fun () ->
                sample rec_ st.refresh_s (fun () -> FW.refresh fw));
            let after = wc_vec (FW.work_counters fw) in
            Array.iteri (fun i a -> st.wc.(i) <- st.wc.(i) + a - before.(i)) after;
            L.span rec_ ~name:"fixed_window.view" ~kind:L.Op ~rung:1 ~req:id (fun () ->
                views.(k) <- sample rec_ st.view_s (fun () -> FW.view fw));
            st.refresh_total <- st.refresh_total +. (clock () -. t0)
          end)
        groups
    | W.Query qs ->
      if is_global_batch qs then Array.iter (fun (_, q) -> sink (Gate.fold_global views q)) qs
      else expect ans id (key_answers qs (fun k q -> Q.eval_view views.(k) q))
  in
  (rung_of ~rung:1 ~recorder:rec_ step, st)

(* A from-scratch rebuild on up to four keys: one more point makes the
   lists stale, then [refresh ~cold:true] rebuilds them. *)
let cold_refreshes fws =
  List.filter_map
    (fun k ->
      if k >= Array.length fws then None
      else begin
        FW.push_slice fws.(k) [| 0.0 |] ~pos:0 ~len:1;
        let t0 = clock () in
        FW.refresh ~cold:true fws.(k);
        Some (clock () -. t0)
      end)
    [ 0; 1; 2; 3 ]

(* ------------------------------------------------------------ R2 *)

type r2 = {
  restore_s : float;
  ingest_s : float list ref;
  query_many_s : float ref;
  key_queries : int ref;
  global_s : float list ref;
  lags : float list ref;
  engines : SE.t array;
  pool : Pool.t;
}

let r2_make (w : W.t) rec_ ~ckpts ~ans =
  let pool = Pool.create ~domains:1 in
  let t0 = clock () in
  let engines = Array.map (fun file -> SE.restore_from ~pool ~file) ckpts in
  let restore_s = clock () -. t0 in
  Array.iter (fun e -> SE.set_refresh_policy e (Params.Every w.every)) engines;
  let st =
    {
      restore_s;
      ingest_s = ref [];
      query_many_s = ref 0.0;
      key_queries = ref 0;
      global_s = ref [];
      lags = ref [];
      engines;
      pool;
    }
  in
  let step id = function
    | W.Ingest groups ->
      Array.iteri
        (fun l g -> if g <> [||] then sample rec_ st.ingest_s (fun () -> SE.ingest_groups engines.(l) g))
        (W.per_leaf w groups)
    | W.Query qs when is_global_batch qs ->
      Array.iter
        (fun (_, q) ->
          sink
            (sample rec_ st.global_s (fun () ->
                 Array.fold_left (fun acc e -> acc +. SE.query_global e q) 0.0 engines)))
        qs
    | W.Query qs ->
      check ans id
        (key_answers qs (fun k q ->
             let e = engines.(W.leaf_of w k) and key = W.local_key w k in
             let a = timed rec_ st.query_many_s (fun () -> SE.query_many e [| (Q.Key key, q) |]) in
             incr st.key_queries;
             if rec_.L.on then st.lags := Float.of_int (SE.publication_lag e ~key) :: !(st.lags);
             a.(0)))
  in
  (rung_of ~rung:2 ~recorder:rec_ step, st)

(* Time [snapshot_bytes] and [decode_snapshot] three times per engine. *)
let snapshot_times engines =
  let snap = ref [] and dec = ref [] in
  for _ = 1 to 3 do
    Array.iter
      (fun e ->
        let t0 = clock () in
        let s = SE.snapshot_bytes e in
        let t1 = clock () in
        sink (SE.decode_snapshot s);
        snap := (t1 -. t0) :: !snap;
        dec := (clock () -. t1) :: !dec)
      engines
  done;
  (!snap, !dec)

(* ----------------------------------------------------- leaf servers *)

type leaf = { addr : Addr.t; listener : Unix.file_descr; dom : Server.report Domain.t }

(* One [Server.run] per leaf, each on its own domain over an engine
   restored from the leaf's checkpoint. *)
let start_leaves (w : W.t) ~dir ~ckpts ~tag =
  Array.mapi
    (fun l file ->
      let addr = Addr.Unix_sock (Filename.concat dir (Printf.sprintf "%s-%d.sock" tag l)) in
      let listener = Server.listen addr in
      let dom =
        Domain.spawn (fun () ->
            Pool.with_pool ~domains:1 @@ fun pool ->
            let engine = SE.restore_from ~pool ~file in
            SE.set_refresh_policy engine (Params.Every w.every);
            Server.run ~engine ~listeners:[ listener ] ())
      in
      { addr; listener; dom })
    ckpts

let stop_leaves leaves =
  Array.map
    (fun l ->
      let c = Client.connect ~timeout:120.0 l.addr in
      Client.shutdown c;
      Client.close c;
      let rep = Domain.join l.dom in
      Unix.close l.listener;
      (match l.addr with
       | Addr.Unix_sock p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
       | Addr.Tcp _ -> ());
      rep)
    leaves

(* ------------------------------------------------------------ R3 *)

type r3 = {
  encode_s : float ref;
  decode_s : float ref;
  frames : int ref;
  ingest_bytes : int ref;
  ingest_points : int ref;
  ingest_requests : int ref;
  leaves : leaf array;
  conns : Conn.t array;
}

(* Blocking request/response on one leaf connection, with the client's
   encode and decode timed. *)
let exchange rec_ (st : r3) l req =
  let frame = timed rec_ st.encode_s (fun () -> Wire.encode_request req) in
  incr st.frames;
  let c = st.conns.(l) in
  Conn.send c frame;
  let rec wait () =
    ignore (Conn.flush c);
    match Conn.next_frame ~max_len:Wire.max_frame_payload c with
    | Some r -> timed rec_ st.decode_s (fun () -> Wire.decode_response r)
    | None ->
      ignore (Unix.select [ Conn.fd c ] (if Conn.pending_out c then [ Conn.fd c ] else []) [] 1.0);
      (match Conn.read_into c with
       | `Eof -> raise (Loadgen.Broken "leaf closed the connection")
       | `Data _ | `Again -> ());
      wait ()
  in
  (frame, wait ())

let r3_make ?ans (w : W.t) rec_ ~dir ~ckpts ~tag =
  let leaves = start_leaves w ~dir ~ckpts ~tag in
  let st =
    {
      encode_s = ref 0.0;
      decode_s = ref 0.0;
      frames = ref 0;
      ingest_bytes = ref 0;
      ingest_points = ref 0;
      ingest_requests = ref 0;
      leaves;
      conns = Array.map (fun l -> Loadgen.connect l.addr) leaves;
    }
  in
  let step id = function
    | W.Ingest groups ->
      incr st.ingest_requests;
      Array.iteri
        (fun l g ->
          if g <> [||] then begin
            let frame, resp = exchange rec_ st l (Wire.Ingest g) in
            st.ingest_bytes := !(st.ingest_bytes) + String.length frame;
            st.ingest_points := !(st.ingest_points) + W.points_in g;
            match resp with Wire.Ack _ -> () | _ -> raise (Loadgen.Broken "ingest not acked")
          end)
        (W.per_leaf w groups)
    | W.Query qs ->
      let per_leaf = Array.make w.leaves [] in
      Array.iter
        (fun (scope, q) ->
          match scope with
          | Q.Key k ->
            let l = W.leaf_of w k in
            per_leaf.(l) <- (Q.Key (W.local_key w k), q) :: per_leaf.(l)
          | Q.Global -> Array.iteri (fun l acc -> per_leaf.(l) <- (Q.Global, q) :: acc) per_leaf)
        qs;
      Array.iteri
        (fun l sub ->
          if sub <> [] then
            match exchange rec_ st l (Wire.Query (Array.of_list (List.rev sub))) with
            | _, Wire.Answers a ->
              if not (is_global_batch qs) then Option.iter (fun ans -> check ans id a) ans
            | _ -> raise (Loadgen.Broken "query not answered"))
        per_leaf
  in
  (rung_of ~rung:3 ~recorder:rec_ step, st)

(* Close the client side, shut the leaves down; returns their summed
   ingest rounds. *)
let r3_finish st =
  Array.iter Conn.close st.conns;
  let reports = stop_leaves st.leaves in
  Array.fold_left (fun n (r : Server.report) -> n + r.ingest_rounds) 0 reports

(* ------------------------------------------------------------ R4 *)

type r4 = { agg : Aggregator.t; agg_leaves : leaf array }

let r4_make ?(skip_global = false) (w : W.t) rec_ ~dir ~ckpts ~tag =
  let agg_leaves = start_leaves w ~dir ~ckpts ~tag in
  let agg =
    Aggregator.create ~timeout:120.0 (Array.to_list (Array.map (fun l -> l.addr) agg_leaves))
  in
  let step _ = function
    | W.Ingest groups -> sink (Aggregator.ingest agg groups)
    | W.Query qs when skip_global && is_global_batch qs -> ()
    | W.Query qs -> sink (Aggregator.query agg qs)
  in
  (rung_of ~rung:4 ~recorder:rec_ step, { agg; agg_leaves })

let r4_finish st =
  Aggregator.close st.agg;
  ignore (stop_leaves st.agg_leaves)

type global_path = {
  snapshot_rtt_s : float list;
  fold_s : float list;
  total_s : float list;
  bytes : int list;
}

(* The Global path piecewise, as the root runs it: pull one snapshot per
   leaf, decode it, splice the per-leaf groups and fold five ops.  At
   least once, then until [budget] seconds pass (at most 20 times). *)
let global_path (w : W.t) st ~budget =
  let clients = Array.map (fun l -> Client.connect ~timeout:120.0 l.addr) st.agg_leaves in
  let ops = W.five_ops w (Sh_util.Rng.create ~seed:0) in
  let rtt = ref [] and fold_s = ref [] and total = ref [] and bytes = ref [] in
  let t_end = clock () +. budget in
  let reps = ref 0 in
  while !reps < 1 || (clock () < t_end && !reps < 20) do
    let t0 = clock () in
    let b = ref 0 and fold = ref 0.0 in
    let group =
      Array.fold_left
        (fun g (off, c) ->
          let s0 = clock () in
          let s = Client.snapshot c in
          rtt := (clock () -. s0) :: !rtt;
          b := !b + String.length s;
          let fws = SE.decode_snapshot s in
          let f0 = clock () in
          let g = FG.merge g (FG.of_summaries ~base:off fws) in
          fold := !fold +. (clock () -. f0);
          g)
        FG.empty
        (Array.mapi (fun l c -> (l * w.keys_per_leaf, c)) clients)
    in
    let f0 = clock () in
    Array.iter (fun q -> sink (FG.eval_global group q)) ops;
    fold := !fold +. (clock () -. f0);
    fold_s := !fold :: !fold_s;
    total := (clock () -. t0) :: !total;
    bytes := !b :: !bytes;
    incr reps
  done;
  Array.iter Client.close clients;
  { snapshot_rtt_s = !rtt; fold_s = !fold_s; total_s = !total; bytes = !bytes }

(* ------------------------------------------------------------ run *)

let ratio a b = if b = 0.0 then Float.nan else a /. b
let is_ingest = function W.Ingest _ -> true | W.Query _ -> false
let is_key_query = function W.Query qs -> not (is_global_batch qs) | W.Ingest _ -> false
let is_global_query = function W.Query qs -> is_global_batch qs | W.Ingest _ -> false

(* Self times of [upper] over [lower] for the requests matching [p]. *)
let self_where spans reqs ~lower ~upper p =
  L.self_times spans ~lower ~upper
  |> List.filter_map (fun (id, d) -> if p reqs.(id) then Some d else None)

(* A percentile of [xs] (seconds) in the unit [scale] converts to. *)
let timing_metric name unit_ scale xs ~per_mille =
  timing ~unit_ ~scale name (Array.of_list xs) ~per_mille

let run (w : W.t) ~seed ~seconds ~dir ~meta ~results =
  let inputs = W.generate w ~seed ~seconds in
  let ckpts = System.write_checkpoints inputs ~dir in
  let budget = Float.of_int seconds in
  let rooted = w.leaves > 1 in
  let top = if rooted then 4 else 3 in
  let reqs = W.ladder_requests inputs ~count:max_requests in
  let rec_ = L.recorder () in
  let off = L.recorder () in
  off.on <- false;
  let ans =
    { expected = Hashtbl.create 1024; pending = Hashtbl.create 16; checked = 0; mismatched = 0 }
  in
  let g1, s1 = r1_make w rec_ ~ckpts ~ans in
  let g2, s2 = r2_make w rec_ ~ckpts ~ans in
  let g3, s3 = r3_make ~ans w rec_ ~dir ~ckpts ~tag:"r3" in
  (* Rung-4 spans: the main ladder's with a root, else the R3/R4 pair's. *)
  let rec4 = if rooted then rec_ else L.recorder () in
  let n, g_on, g_off, s4, rounds =
    if rooted then begin
      let g4, s4 = r4_make w rec_ ~dir ~ckpts ~tag:"r4" in
      let g4off, s4off = r4_make w off ~dir ~ckpts ~tag:"r4off" in
      let n = lockstep ~budget [ g1; g2; g3; g4; g4off ] reqs ~n:max_requests in
      r4_finish s4off;
      (n, g4, g4off, s4, r3_finish s3)
    end
    else begin
      let g3off, s3off = r3_make w off ~dir ~ckpts ~tag:"r3off" in
      let n = lockstep ~budget [ g1; g2; g3; g3off ] reqs ~n:max_requests in
      let rounds = r3_finish s3 in
      ignore (r3_finish s3off);
      (* The root's own overheads, paired against a fresh R3. *)
      let g3b, s3b = r3_make w rec4 ~dir ~ckpts ~tag:"r3b" in
      let g4, s4 = r4_make ~skip_global:true w rec4 ~dir ~ckpts ~tag:"r4" in
      ignore (lockstep ~budget:(budget /. 4.0) [ g3b; g4 ] reqs ~n);
      ignore (r3_finish s3b);
      (n, g3, g3off, s4, rounds)
    end
  in
  let snap_s, dec_s = snapshot_times s2.engines in
  Pool.shutdown s2.pool;
  let cold_s = cold_refreshes s1.fws in
  let gp = global_path w s4 ~budget:(budget /. 10.0) in
  r4_finish s4;
  let spans = L.spans rec_ and spans4 = L.spans rec4 in
  let shares = L.shares spans ~top in
  let agg_share = List.assoc 4 (L.shares spans4 ~top:4) in
  let base_ms = L.total_request_time spans ~rung:top *. 1000.0 in
  let base4_ms = L.total_request_time spans4 ~rung:4 *. 1000.0 in
  let n4 = Hashtbl.length (L.request_times spans4 ~rung:4) in
  let wc = s1.wc in
  let refreshes = Float.of_int (max 1 wc.(5)) in
  let self23 = self_where spans reqs ~lower:2 ~upper:3 in
  let self34 = self_where spans4 reqs ~lower:3 ~upper:4 in
  let r1_total = L.total_request_time spans ~rung:1 in
  let r2_total = L.total_request_time spans ~rung:2 in
  let global_s =
    if rooted then
      Hashtbl.fold
        (fun id t acc -> if is_global_query reqs.(id) then t :: acc else acc)
        (L.request_times spans ~rung:4) []
    else gp.total_s
  in
  let wall_on = !(g_on.wall) and wall_off = !(g_off.wall) in
  let fw = "fixed_window." and se = "shard_engine." and ag = "aggregator." in
  let metrics =
    [
      timing_metric (fw ^ "refresh_ms_p50") "ms" 1000.0 !(s1.refresh_s) ~per_mille:500;
      timing_metric (fw ^ "refresh_ms_p99") "ms" 1000.0 !(s1.refresh_s) ~per_mille:990;
      metric (fw ^ "herror_evals_per_refresh") (Float.of_int wc.(0) /. refreshes) "count"
        ~note:(Printf.sprintf "%d refreshes" wc.(5));
      metric (fw ^ "scan_steps_per_refresh") (Float.of_int wc.(1) /. refreshes) "count";
      metric (fw ^ "memo_hit_ratio") (ratio (Float.of_int wc.(4)) (Float.of_int wc.(3))) "ratio"
        ~note:(Printf.sprintf "%d hits / %d probes" wc.(4) wc.(3));
      metric (fw ^ "intervals_per_refresh") (Float.of_int wc.(2) /. refreshes) "count";
      metric (fw ^ "refresh_share") (ratio (s1.refresh_total *. 1000.0) base_ms) "ratio"
        ~note:
          (Printf.sprintf "refresh+view %.1f ms of R%d request time %.1f ms"
             (s1.refresh_total *. 1000.0) top base_ms);
      timing_metric (fw ^ "cold_refresh_ms") "ms" 1000.0 cold_s ~per_mille:500;
      metric (fw ^ "push_slice_ns_per_point")
        (ratio (!(s1.push_s) *. 1e9) (Float.of_int !(s1.pushed))) "ns"
        ~note:(Printf.sprintf "%d points" !(s1.pushed));
      timing_metric (fw ^ "view_us") "us" 1e6 !(s1.view_s) ~per_mille:500;
      metric (se ^ "restore_ms") (s2.restore_s *. 1000.0) "ms"
        ~note:(Printf.sprintf "%d leaf checkpoint(s)" w.leaves);
      timing_metric (se ^ "ingest_groups_ms_p50") "ms" 1000.0 !(s2.ingest_s) ~per_mille:500;
      timing_metric (se ^ "ingest_groups_ms_p99") "ms" 1000.0 !(s2.ingest_s) ~per_mille:990;
      metric (se ^ "overhead_share") (ratio (r2_total -. r1_total) r2_total) "ratio"
        ~note:(Printf.sprintf "(R2 - R1) / R2, R2 = %.1f ms" (r2_total *. 1000.0));
      metric (se ^ "query_many_us_per_query")
        (ratio (!(s2.query_many_s) *. 1e6) (Float.of_int !(s2.key_queries))) "us"
        ~note:(Printf.sprintf "%d Key queries" !(s2.key_queries));
      timing_metric (se ^ "query_global_us") "us" 1e6 !(s2.global_s) ~per_mille:500;
      timing_metric (se ^ "snapshot_bytes_ms") "ms" 1000.0 snap_s ~per_mille:500;
      timing_metric (se ^ "decode_snapshot_ms") "ms" 1000.0 dec_s ~per_mille:500;
      timing_metric (se ^ "publication_lag_points_p50") "points" 1.0 !(s2.lags) ~per_mille:500;
      metric (se ^ "backpressure_waits")
        (Float.of_int (Array.fold_left (fun n e -> n + SE.backpressure_waits e) 0 s2.engines))
        "count";
      timing_metric "server.ingest_overhead_ms_p50" "ms" 1000.0 (self23 is_ingest) ~per_mille:500;
      timing_metric "server.query_overhead_us_p50" "us" 1e6
        (self23 (fun r -> not (is_ingest r)))
        ~per_mille:500;
      metric "server.ingest_rounds_per_request"
        (ratio (Float.of_int rounds) (Float.of_int !(s3.ingest_requests))) "count";
      metric "wire.encode_us_per_frame" (ratio (!(s3.encode_s) *. 1e6) (Float.of_int !(s3.frames))) "us"
        ~note:(Printf.sprintf "%d frames" !(s3.frames));
      metric "wire.decode_us_per_frame" (ratio (!(s3.decode_s) *. 1e6) (Float.of_int !(s3.frames))) "us";
      metric "wire.bytes_per_point"
        (ratio (Float.of_int !(s3.ingest_bytes)) (Float.of_int !(s3.ingest_points))) "B";
      timing_metric (ag ^ "leaf_snapshot_rtt_ms") "ms" 1000.0 gp.snapshot_rtt_s ~per_mille:500;
      timing_metric (ag ^ "merge_fold_us") "us" 1e6 gp.fold_s ~per_mille:500;
      timing_metric (ag ^ "global_query_ms_p50") "ms" 1000.0 global_s ~per_mille:500;
      metric (ag ^ "snapshot_bytes_per_global_query")
        (Pct.median (Array.of_list (List.map Float.of_int gp.bytes))) "B";
      timing_metric (ag ^ "ingest_overhead_ms") "ms" 1000.0 (self34 is_ingest) ~per_mille:500;
      timing_metric (ag ^ "key_query_overhead_us") "us" 1e6 (self34 is_key_query) ~per_mille:500;
      metric "ladder.fixed_window_share" (List.assoc 1 shares) "ratio";
      metric "ladder.shard_engine_share" (List.assoc 2 shares) "ratio";
      metric "ladder.server_share" (List.assoc 3 shares) "ratio";
      metric "ladder.aggregator_share" agg_share "ratio"
        ~note:(Printf.sprintf "of R4 request time %.1f ms over %d requests" base4_ms n4);
      metric "trace.overhead_frac" (ratio (wall_on -. wall_off) wall_off) "ratio"
        ~note:
          (Printf.sprintf "R%d %.1f ms traced vs %.1f ms untraced, same requests in lockstep" top
             (wall_on *. 1000.0) (wall_off *. 1000.0));
    ]
  in
  let names = [| "fixed_window"; "shard_engine"; "server+wire"; "aggregator" |] in
  Printf.printf "ladder: %d requests in lockstep, top rung R%d = %.1f ms of request time\n" n top
    base_ms;
  List.iter
    (fun (rung, s) ->
      Printf.printf "ladder: R%d %-13s self-time share %.4f of %.1f ms over %d requests\n" rung
        names.(rung - 1) s base_ms n)
    shares;
  if rooted then begin
    (* The root's share of Global batches alone: its self time over R4's
       request time on the Global request ids. *)
    let sum = List.fold_left ( +. ) 0.0 in
    let r4_global = sum global_s in
    Printf.printf
      "ladder: R4 aggregator self-time share of Global batches %.4f of %.1f ms over %d batches\n"
      (ratio (sum (self34 is_global_query)) r4_global)
      (r4_global *. 1000.0) (List.length global_s)
  end
  else
    Printf.printf
      "ladder: R4 aggregator (not in this workload's path) self-time share %.4f of %.1f ms over \
       %d requests, Global batches skipped\n"
      agg_share base4_ms n4;
  Printf.printf "check: %d Key query batches on R2/R3 compared with R1, %d mismatched\n"
    ans.checked ans.mismatched;
  print_metrics metrics;
  let spans_file =
    Filename.concat (Filename.dirname results) (Printf.sprintf "spans-%s-%d.jsonl" w.name seed)
  in
  Out_channel.with_open_text spans_file (fun oc ->
      L.to_jsonl oc spans;
      if not rooted then L.to_jsonl oc spans4);
  Printf.printf "trace: %d spans written to %s\n"
    (rec_.count + if rooted then 0 else rec4.count)
    spans_file;
  append_row ~results ~meta ~w ~seed ~seconds ~mode:"trace" ~items:!(s1.pushed) ~ratios:[||]
    ~query_speed:Float.nan ~memory:Float.nan metrics;
  let correct = ans.mismatched = 0 && ans.checked > 0 in
  print_endline (result_line ~correct ~attempted:n ~failed:ans.mismatched metrics);
  if not correct then exit 1

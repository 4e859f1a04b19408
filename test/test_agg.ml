(* lib/agg and the Mergeable capability: merge laws for the three
   mergeable summaries (GK quantiles, agglomerative histograms,
   fixed-window groups), composed-error accuracy against exact oracles,
   and the two-tier aggregation plane over live sockets — a two-leaf
   root must answer [Global] bit-identically to a single process fed the
   same per-key streams, and a killed leaf must degrade to a typed
   partial result, never a hang. *)

module Gk = Sh_quantile.Gk
module AG = Stream_histogram.Agglomerative
module FW = Stream_histogram.Fixed_window
module FG = Stream_histogram.Fw_group
module SI = Stream_histogram.Summary_intf
module Qop = Stream_histogram.Query_op
module Params = Stream_histogram.Params
module P = Sh_prefix.Prefix_sums
module V = Sh_histogram.Vopt
module SE = Sh_par.Shard_engine
module Pool = Sh_par.Domain_pool
module Addr = Sh_net.Addr
module Wire = Sh_net.Wire
module Server = Sh_net.Server
module Client = Sh_net.Client
module Aggregator = Sh_agg.Aggregator
module Rng = Sh_util.Rng

(* Compile-time witnesses: each summary satisfies the capability. *)
module _ : SI.Mergeable with type t := Gk.t = Gk
module _ : SI.Mergeable with type t := AG.t = AG
module _ : SI.Mergeable with type t := FG.t = FG

let bits = Int64.bits_of_float

let check_bits msg a b =
  if bits a <> bits b then Alcotest.failf "%s: %h <> %h (not bit-identical)" msg a b

let expect_incompatible what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Merge_incompatible" what
  | exception SI.Merge_incompatible _ -> ()

(* ------------------------------------------------------------ GK merge *)

let gk_of eps data =
  let g = Gk.create ~epsilon:eps in
  Array.iter (Gk.insert g) data;
  g

(* True-rank check against the sorted union: the answer's occupied rank
   interval must come within [bound] (+1 for rank discretisation) of the
   target rank phi * n. *)
let rank_ok union phi answer bound =
  let n = Array.length union in
  let target = phi *. float_of_int n in
  let lo = ref 1 and hi = ref 0 in
  Array.iteri
    (fun i v ->
      if v < answer then lo := i + 2;
      if v <= answer then hi := i + 1)
    union;
  let dist =
    if target < float_of_int !lo then float_of_int !lo -. target
    else if target > float_of_int !hi then target -. float_of_int !hi
    else 0.0
  in
  dist <= bound +. 1.0

let gk_phis = [ 0.01; 0.25; 0.5; 0.75; 0.99 ]

let prop_gk_merge_composed_rank_error =
  Helpers.qcheck_case ~count:60 ~name:"GK merge: answers within composed rank error"
    QCheck2.Gen.(pair (Helpers.gen_data ~max_len:200 ()) (Helpers.gen_data ~max_len:200 ()))
    (fun (da, db) ->
      let ea = 0.1 and eb = 0.05 in
      let a = gk_of ea da and b = gk_of eb db in
      (* commutativity claim: both orders summarise the same union *)
      let m = Gk.merge a b and m' = Gk.merge b a in
      let union = Array.append da db in
      Array.sort compare union;
      (* the merged summary's own contract: max-epsilon times the merged
         count (the post-merge compress works against that cap, so the
         tighter ea*na + eb*nb does not survive it — see gk.mli) *)
      let bound = Float.max ea eb *. float_of_int (Array.length union) in
      Gk.count m = Array.length union
      && Gk.count m' = Array.length union
      && Float.equal (Gk.epsilon m) (Float.max ea eb)
      && List.for_all
           (fun phi ->
             rank_ok union phi (Gk.quantile m phi) bound
             && rank_ok union phi (Gk.quantile m' phi) bound)
           gk_phis)

let test_gk_merge_identity () =
  let rng = Helpers.rng ~seed:42 in
  let data = Array.init 500 (fun _ -> float_of_int (Rng.int rng 1000)) in
  let a = gk_of 0.05 data in
  let empty () = Gk.create ~epsilon:0.05 in
  List.iter
    (fun (tag, m) ->
      Alcotest.(check int) (tag ^ ": count") (Gk.count a) (Gk.count m);
      List.iter
        (fun phi ->
          check_bits
            (Printf.sprintf "%s: quantile %.2f" tag phi)
            (Gk.quantile a phi) (Gk.quantile m phi))
        [ 0.0; 0.1; 0.5; 0.9; 1.0 ])
    [ ("a+empty", Gk.merge a (empty ())); ("empty+a", Gk.merge (empty ()) a) ]

let test_gk_merge_associative_bound () =
  (* Merge is not claimed bitwise-associative; both association orders
     must stay within the composed rank-error budget. *)
  let rng = Helpers.rng ~seed:7 in
  let mk n = Array.init n (fun _ -> float_of_int (Rng.int rng 500)) in
  let da = mk 300 and db = mk 200 and dc = mk 250 in
  let eps = 0.08 in
  let a = gk_of eps da and b = gk_of eps db and c = gk_of eps dc in
  let l = Gk.merge (Gk.merge a b) c and r = Gk.merge a (Gk.merge b c) in
  let union = Array.concat [ da; db; dc ] in
  Array.sort compare union;
  let bound = eps *. float_of_int (Array.length union) in
  Alcotest.(check int) "counts agree" (Gk.count l) (Gk.count r);
  List.iter
    (fun phi ->
      List.iter
        (fun (tag, m) ->
          if not (rank_ok union phi (Gk.quantile m phi) bound) then
            Alcotest.failf "%s: quantile %.2f outside composed rank bound" tag phi)
        [ ("(a+b)+c", l); ("a+(b+c)", r) ])
    gk_phis

(* ------------------------------------------------------------ AG merge *)

let feed_ag ag data = Array.iter (AG.push ag) data

let test_ag_merge_identity () =
  let rng = Helpers.rng ~seed:11 in
  let data = Array.init 300 (fun _ -> float_of_int (Rng.int rng 100)) in
  let a = AG.create ~buckets:4 ~epsilon:0.1 in
  feed_ag a data;
  List.iter
    (fun (tag, m) ->
      Alcotest.(check int) (tag ^ ": count") (AG.count a) (AG.count m);
      Alcotest.(check int)
        (tag ^ ": space") (AG.space_in_entries a) (AG.space_in_entries m);
      check_bits (tag ^ ": current_error") (AG.current_error a) (AG.current_error m))
    [
      ("a+empty", AG.merge a (AG.create ~buckets:4 ~epsilon:0.1));
      ("empty+a", AG.merge (AG.create ~buckets:4 ~epsilon:0.1) a);
    ]

let test_ag_merge_incompatible () =
  let a = AG.create ~buckets:4 ~epsilon:0.1 in
  let b = AG.create ~buckets:5 ~epsilon:0.1 in
  feed_ag a [| 1.0; 2.0 |];
  feed_ag b [| 3.0 |];
  expect_incompatible "differing bucket budgets" (fun () -> AG.merge a b)

let prop_ag_merge_within_composed_epsilon =
  Helpers.qcheck_case ~count:30
    ~name:"AG merge: error within composed (1+2eps) factors of optimal"
    QCheck2.Gen.(
      pair
        (Helpers.gen_data ~min_len:32 ~max_len:96 ())
        (Helpers.gen_data ~min_len:32 ~max_len:96 ()))
    (fun (da, db) ->
      let b = 4 in
      let a = AG.create ~buckets:b ~epsilon:0.1 in
      let bg = AG.create ~buckets:b ~epsilon:0.15 in
      feed_ag a da;
      feed_ag bg db;
      let m = AG.merge a bg in
      let concat = Array.append da db in
      let opt = V.optimal_error (P.make concat) ~buckets:b in
      (* Per-operand guarantees are (1 + 2 eps_i) (see test_core); the
         merged summary's factors multiply.  Operands stay >= 32 points:
         on tiny streams (< ~4B points) the (1 + delta) pruning can
         collapse equal-error prefixes so hard that no retained
         candidate lands near the splice, and the spanning bucket
         overshoots the multiplied factors — observed up to ~12x optimal
         at 4-12 points per operand, gone by 16 (see agglomerative.mli).
         The lower bound below is unconditional. *)
      let factor =
        (1.0 +. (2.0 *. AG.epsilon a)) *. (1.0 +. (2.0 *. AG.epsilon bg))
      in
      AG.count m = Array.length concat
      && AG.epsilon m > AG.epsilon a
      && AG.current_error m <= (factor *. opt) +. 1e-6
      && AG.current_error m >= opt -. 1e-6)

(* ------------------------------------------------------- FW group merge *)

let fw_window = 64
let fw_buckets = 4

let fw_of rng n =
  let fw = FW.create ~window:fw_window ~buckets:fw_buckets ~epsilon:0.1 in
  for _ = 1 to n do
    FW.push fw (float_of_int (Rng.int rng 100))
  done;
  fw

let global_queries =
  [
    Qop.Window_length;
    Qop.Current_error;
    Qop.Range_sum { lo = 1; hi = fw_window };
    Qop.Point_estimate { index = 3 };
    Qop.Herror { k = 2; x = 10 };
  ]

let test_fw_group_laws () =
  let rng = Helpers.rng ~seed:23 in
  let mk base n =
    FG.of_summaries ~base (Array.init n (fun _ -> fw_of rng (1 + Rng.int rng 80)))
  in
  let a = mk 0 3 and b = mk 3 2 and c = mk 5 4 in
  (* identity: merging with empty shares entries, answers bit-identical *)
  List.iter
    (fun q ->
      check_bits "identity left" (FG.eval_global a q)
        (FG.eval_global (FG.merge a FG.empty) q);
      check_bits "identity right" (FG.eval_global a q)
        (FG.eval_global (FG.merge FG.empty a) q))
    global_queries;
  (* disjoint-key union is commutative and associative, bitwise *)
  let ab = FG.merge a b in
  List.iter
    (fun q ->
      check_bits "commutative" (FG.eval_global ab q) (FG.eval_global (FG.merge b a) q);
      check_bits "associative"
        (FG.eval_global (FG.merge ab c) q)
        (FG.eval_global (FG.merge a (FG.merge b c)) q))
    global_queries;
  Alcotest.(check (array int))
    "merged keys ascending" (Array.init 9 Fun.id)
    (FG.keys (FG.merge ab c));
  expect_incompatible "overlapping keys" (fun () -> FG.merge a a);
  let alien =
    FG.of_summaries ~base:100 [| FW.create ~window:32 ~buckets:fw_buckets ~epsilon:0.1 |]
  in
  expect_incompatible "mixed geometry" (fun () -> FG.merge a alien)

let test_fw_group_matches_engine_global () =
  (* Snapshot an engine, splice the halves back together as a group: every
     Global answer must be bit-identical to the live engine's. *)
  let shards = 8 in
  Pool.with_pool ~domains:1 @@ fun pool ->
  let eng =
    SE.create ~pool ~shards ~window:fw_window ~buckets:fw_buckets ~epsilon:0.1
  in
  let rng = Helpers.rng ~seed:5 in
  Array.iter
    (fun k ->
      SE.ingest eng
        (Array.init
           (16 + (8 * k))
           (fun _ -> (k, float_of_int (Rng.int rng 100)))))
    (Array.init shards Fun.id);
  SE.refresh_all eng;
  let fws = SE.decode_snapshot (SE.snapshot_bytes eng) in
  Alcotest.(check int) "snapshot shard count" shards (Array.length fws);
  let half = shards / 2 in
  let left = FG.of_summaries ~base:0 (Array.sub fws 0 half) in
  let right = FG.of_summaries ~base:half (Array.sub fws half (shards - half)) in
  let g = FG.merge left right in
  List.iter
    (fun q -> check_bits (Qop.to_string q) (SE.query_global eng q) (FG.eval_global g q))
    global_queries

(* ----------------------------------------- aggregation plane, live wire *)

let geometry = (64, 4, 0.1)

type live_leaf = {
  addr : Addr.t;
  listener : Unix.file_descr;
  stop : bool Atomic.t;
  domain : Server.report Domain.t;
  sock_path : string;
}

(* One leaf server on its own domain, individually killable.  Eager
   refresh by default, so published views are current once an ingest is
   acked; [Every k] leaves answer from views up to one cadence behind. *)
let start_leaf ?(policy = Params.Eager) ?(config = Server.default_config) ?window
    ?path ~shards () =
  let default_window, buckets, epsilon = geometry in
  let window = Option.value window ~default:default_window in
  let path =
    match path with
    | Some p -> p
    | None ->
      let p = Filename.temp_file "shist_agg" ".sock" in
      Unix.unlink p;
      p
  in
  let addr = Addr.Unix_sock path in
  let listener = Server.listen addr in
  let stop = Atomic.make false in
  let domain =
    Domain.spawn (fun () ->
        Pool.with_pool ~domains:1 (fun pool ->
            let eng = SE.create ~pool ~shards ~window ~buckets ~epsilon in
            SE.set_refresh_policy eng policy;
            Server.run ~config
              ~stop:(fun () -> Atomic.get stop)
              ~engine:eng ~listeners:[ listener ] ()))
  in
  { addr; listener; stop; domain; sock_path = path }

let kill_leaf l =
  Atomic.set l.stop true;
  ignore (Domain.join l.domain : Server.report);
  (try Unix.close l.listener with Unix.Unix_error _ -> ());
  try Unix.unlink l.sock_path with Unix.Unix_error _ | Sys_error _ -> ()

let scoped_batch ~shards ~window =
  Array.append
    (Array.concat
       (List.init shards (fun k ->
            [|
              (Qop.Key k, Qop.Window_length);
              (Qop.Key k, Qop.Range_sum { lo = 1; hi = window });
              (Qop.Key k, Qop.Current_error);
            |])))
    [|
      (Qop.Global, Qop.Window_length);
      (Qop.Global, Qop.Range_sum { lo = 1; hi = window });
      (Qop.Global, Qop.Current_error);
      (Qop.Global, Qop.Point_estimate { index = 7 });
    |]

(* Two 4-shard leaves behind an in-process root, and an 8-shard single
   process as the oracle, all refreshing under [policy]; [lb_config] is
   the second leaf's server configuration. *)
let with_tree ?policy ?lb_config f =
  let la = start_leaf ?policy ~shards:4 () in
  let lb = start_leaf ?policy ?config:lb_config ~shards:4 () in
  let oracle = start_leaf ?policy ~shards:8 () in
  Fun.protect ~finally:(fun () -> List.iter kill_leaf [ la; lb; oracle ]) @@ fun () ->
  let agg = Aggregator.create ~timeout:10.0 [ la.addr; lb.addr ] in
  let oc = Client.connect ~timeout:10.0 oracle.addr in
  Fun.protect
    ~finally:(fun () ->
      Aggregator.close agg;
      Client.close oc)
  @@ fun () -> f ~lb agg oc

(* The same batch into the tree and the single process; both ack it all. *)
let ingest_both agg oc groups =
  let total = Array.fold_left (fun acc (_, vs) -> acc + Array.length vs) 0 groups in
  let acked, missing = Aggregator.ingest agg groups in
  Alcotest.(check int) "aggregator acked all points" total acked;
  Alcotest.(check int) "no leaf missing on ingest" 0 missing;
  Alcotest.(check int) "oracle acked all points" total (Client.ingest oc groups)

let scope_tag (scope, q) =
  match scope with
  | Qop.Key k -> Printf.sprintf "key %d %s" k (Qop.to_string q)
  | Qop.Global -> Printf.sprintf "global %s" (Qop.to_string q)

(* Every answer of [qs] through the root is complete and bit-identical
   to the single process's. *)
let check_root_matches_oracle agg oc qs =
  let agg_answers, lm = Aggregator.query agg qs in
  Alcotest.(check int) "no leaf missing on query" 0 lm;
  let oracle_answers = Client.query oc qs in
  Alcotest.(check int) "answer counts" (Array.length oracle_answers)
    (Array.length agg_answers);
  Array.iteri
    (fun i expected -> check_bits (scope_tag qs.(i)) expected agg_answers.(i))
    oracle_answers

let main_groups () =
  let rng = Helpers.rng ~seed:99 in
  Array.init 8 (fun k ->
      (k, Array.init (40 + (8 * k)) (fun _ -> float_of_int (Rng.int rng 100))))

(* Three points per key after [main_groups]: under [Every 16] no shard
   crosses its cadence again, so every live window is ahead of its
   published view. *)
let tail_groups () =
  Array.init 8 (fun k -> (k, Array.init 3 (fun i -> float_of_int ((7 * k) + i))))

let test_aggregator_matches_single_process () =
  let window, _, _ = geometry in
  with_tree @@ fun ~lb:_ agg oc ->
  Alcotest.(check int) "total shards" 8 (Aggregator.total_shards agg);
  Alcotest.(check int) "leaf count" 2 (Aggregator.leaf_count agg);
  Alcotest.(check int) "window" window (Aggregator.window agg);
  (* identical per-key streams into the tree and the single process *)
  let groups = main_groups () in
  ingest_both agg oc groups;
  check_root_matches_oracle agg oc (scoped_batch ~shards:8 ~window);
  let total = Array.fold_left (fun acc (_, vs) -> acc + Array.length vs) 0 groups in
  let st, sm = Aggregator.stats agg in
  Alcotest.(check int) "stats: no leaf missing" 0 sm;
  Alcotest.(check int) "stats: shards" 8 st.Wire.shards;
  Alcotest.(check int) "stats: total points" total st.Wire.total_points

(* Mid-cadence leaves: published views lag the live windows, and the
   root's Global answers must lag exactly as the single process's do. *)
let test_aggregator_matches_single_process_mid_cadence () =
  let window, _, _ = geometry in
  with_tree ~policy:(Params.Every 16) @@ fun ~lb:_ agg oc ->
  ingest_both agg oc (main_groups ());
  ingest_both agg oc (tail_groups ());
  check_root_matches_oracle agg oc (scoped_batch ~shards:8 ~window)

(* Within one batch through the root, each Global answer is the
   ascending fold from 0.0 of the same batch's Key answers. *)
let test_aggregator_global_folds_key_answers () =
  with_tree ~policy:(Params.Every 16) @@ fun ~lb:_ agg oc ->
  ingest_both agg oc (main_groups ());
  ingest_both agg oc (tail_groups ());
  let shards = Aggregator.total_shards agg in
  let ops = Array.of_list global_queries in
  let qs =
    Array.append
      (Array.init (shards * Array.length ops) (fun j ->
           (Qop.Key (j / Array.length ops), ops.(j mod Array.length ops))))
      (Array.map (fun q -> (Qop.Global, q)) ops)
  in
  let answers, lm = Aggregator.query agg qs in
  Alcotest.(check int) "no leaf missing" 0 lm;
  Array.iteri
    (fun o q ->
      let fold = ref 0.0 in
      for k = 0 to shards - 1 do
        fold := !fold +. answers.((k * Array.length ops) + o)
      done;
      check_bits (Qop.to_string q) !fold answers.((shards * Array.length ops) + o))
    ops

(* A leaf whose frame limit is below its snapshot size refuses Snapshot;
   Global through the root answers from Key queries, so it stays complete
   and bit-identical. *)
let test_aggregator_global_without_snapshot () =
  let window, _, _ = geometry in
  let lb_config = { Server.default_config with max_frame_payload = 1024 } in
  with_tree ~lb_config @@ fun ~lb agg oc ->
  let rng = Helpers.rng ~seed:31 in
  (* 10-point slices keep every ingest frame to the small leaf under its
     limit; 100 points per key fill every window *)
  for _ = 1 to 10 do
    ingest_both agg oc
      (Array.init 8 (fun k -> (k, Array.init 10 (fun _ -> float_of_int (Rng.int rng 100)))))
  done;
  let c = Client.connect ~timeout:10.0 lb.addr in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
      match Client.snapshot c with
      | _ -> Alcotest.fail "small-frame leaf: expected its Snapshot to be refused"
      | exception Client.Net_error _ -> ());
  check_root_matches_oracle agg oc (scoped_batch ~shards:8 ~window)

(* Leak guard: each decoded snapshot builds a transient summary per
   shard, and none of them may register metric series — the fw.* series
   are process-wide, so the registry size must not move however many
   summaries come and go, nor over Global queries through a root. *)
let test_transient_summaries_register_no_series () =
  let window, buckets, epsilon = geometry in
  let bytes =
    Pool.with_pool ~domains:1 @@ fun pool ->
    let eng = SE.create ~pool ~shards:8 ~window ~buckets ~epsilon in
    let rng = Helpers.rng ~seed:7 in
    SE.ingest eng (Array.init 400 (fun i -> (i mod 8, float_of_int (Rng.int rng 100))));
    SE.refresh_all eng;
    SE.snapshot_bytes eng
  in
  ignore (SE.decode_snapshot bytes : FW.t array);
  let series = Sh_obs.Registry.series_count in
  let before = series () in
  for _ = 1 to 100 do
    ignore (SE.decode_snapshot bytes : FW.t array)
  done;
  Alcotest.(check int) "100 snapshot decodes register no series" before (series ());
  let la = start_leaf ~shards:4 () in
  let lb = start_leaf ~shards:4 () in
  Fun.protect ~finally:(fun () -> List.iter kill_leaf [ la; lb ]) @@ fun () ->
  let agg = Aggregator.create ~timeout:10.0 [ la.addr; lb.addr ] in
  Fun.protect ~finally:(fun () -> Aggregator.close agg) @@ fun () ->
  let rng = Helpers.rng ~seed:11 in
  let groups =
    Array.init 8 (fun k -> (k, Array.init 48 (fun _ -> float_of_int (Rng.int rng 100))))
  in
  ignore (Aggregator.ingest agg groups : int * int);
  let qs = [| (Qop.Global, Qop.Current_error); (Qop.Global, Qop.Window_length) |] in
  let global () =
    let _, missing = Aggregator.query agg qs in
    Alcotest.(check int) "no leaf missing" 0 missing
  in
  global ();
  let before = series () in
  for _ = 1 to 25 do
    global ()
  done;
  Alcotest.(check int) "25 Global queries register no series" before (series ())

let test_aggregator_leaf_failure_partial () =
  let per_key = 10 in
  let la = start_leaf ~shards:2 () in
  let lb = start_leaf ~shards:2 () in
  let lb_killed = ref false in
  Fun.protect
    ~finally:(fun () ->
      kill_leaf la;
      if not !lb_killed then kill_leaf lb)
  @@ fun () ->
  let agg = Aggregator.create ~timeout:5.0 [ la.addr; lb.addr ] in
  Fun.protect ~finally:(fun () -> Aggregator.close agg) @@ fun () ->
  let groups =
    Array.init 4 (fun k -> (k, Array.init per_key (fun i -> float_of_int (k + i))))
  in
  let acked, missing = Aggregator.ingest agg groups in
  Alcotest.(check int) "all acked while healthy" (4 * per_key) acked;
  Alcotest.(check int) "no leaf missing while healthy" 0 missing;
  kill_leaf lb;
  lb_killed := true;
  let qs =
    [|
      (Qop.Key 0, Qop.Window_length);
      (Qop.Key 3, Qop.Window_length);
      (Qop.Global, Qop.Window_length);
    |]
  in
  (* typed partial result: the dead leaf's keys and its slice of the
     Global answer degrade to 0, the live leaf still answers *)
  let answers, lm = Aggregator.query agg qs in
  Alcotest.(check int) "one leaf missing" 1 lm;
  check_bits "live key answered" (float_of_int per_key) answers.(0);
  check_bits "dead leaf's key is 0" 0.0 answers.(1);
  check_bits "global covers live leaf only" (float_of_int (2 * per_key)) answers.(2);
  (* the leaf stays down across requests: reconnect fails fast, result
     stays typed-partial (and this test finishing at all is the no-hang
     guarantee) *)
  let answers2, lm2 = Aggregator.query agg qs in
  Alcotest.(check int) "still one leaf missing" 1 lm2;
  check_bits "still answers live key" (float_of_int per_key) answers2.(0);
  (* ingest degrades the same way: live sub-batch acked, dead one dropped *)
  let acked2, missing2 = Aggregator.ingest agg [| (0, [| 1.0 |]); (3, [| 1.0 |]) |] in
  Alcotest.(check int) "live leaf acked its point" 1 acked2;
  Alcotest.(check int) "ingest reports dead leaf" 1 missing2;
  (* a batch that never touches the dead leaf is complete, not partial:
     leaves_missing counts leaves asked to contribute that could not *)
  let answers3, lm3 = Aggregator.query agg [| (Qop.Key 0, Qop.Window_length) |] in
  Alcotest.(check int) "dead leaf not involved, not counted" 0 lm3;
  check_bits "live key grew by one" (float_of_int (per_key + 1)) answers3.(0)

let test_aggregator_rejects_bad_key () =
  let la = start_leaf ~shards:2 () in
  Fun.protect ~finally:(fun () -> kill_leaf la) @@ fun () ->
  let agg = Aggregator.create ~timeout:5.0 [ la.addr ] in
  Fun.protect ~finally:(fun () -> Aggregator.close agg) @@ fun () ->
  List.iter
    (fun k ->
      match Aggregator.query agg [| (Qop.Key k, Qop.Window_length) |] with
      | _ -> Alcotest.failf "key %d: expected Invalid_argument" k
      | exception Invalid_argument _ -> ())
    [ -1; 2; 100 ];
  match Aggregator.ingest agg [| (2, [| 1.0 |]) |] with
  | _ -> Alcotest.fail "ingest key 2: expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_aggregator_geometry_mismatch () =
  let window, _, _ = geometry in
  let la = start_leaf ~shards:2 () in
  (* a leaf with a different window must be refused at create time *)
  let lb = start_leaf ~window:(window * 2) ~shards:2 () in
  Fun.protect ~finally:(fun () -> List.iter kill_leaf [ la; lb ]) @@ fun () ->
  expect_incompatible "window mismatch across leaves" (fun () ->
      let agg = Aggregator.create ~timeout:5.0 [ la.addr; lb.addr ] in
      Aggregator.close agg;
      agg)

(* A leaf restarted at the same address with another geometry stays down:
   its keys answer 0.0 and Global folds the other leaf's keys only. *)
let test_aggregator_restarted_leaf_geometry () =
  let window, _, _ = geometry in
  let la = start_leaf ~shards:2 () in
  let lb = ref (start_leaf ~shards:2 ()) in
  Fun.protect ~finally:(fun () -> List.iter kill_leaf [ la; !lb ]) @@ fun () ->
  let agg = Aggregator.create ~timeout:5.0 [ la.addr; !lb.addr ] in
  Fun.protect ~finally:(fun () -> Aggregator.close agg) @@ fun () ->
  let groups = Array.init 4 (fun k -> (k, Array.init 10 (fun i -> float_of_int (k + i)))) in
  ignore (Aggregator.ingest agg groups : int * int);
  let path = !lb.sock_path in
  kill_leaf !lb;
  lb := start_leaf ~window:(window * 2) ~path ~shards:2 ();
  (* the new process holds the same points under its own geometry *)
  let c = Client.connect ~timeout:5.0 !lb.addr in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
      ignore (Client.ingest c [| (0, snd groups.(2)); (1, snd groups.(3)) |] : int));
  (* the first request finds the old connection dead, the second
     reconnects and must refuse the new geometry *)
  for attempt = 1 to 2 do
    let answers, lm =
      Aggregator.query agg
        [| (Qop.Key 3, Qop.Window_length); (Qop.Global, Qop.Window_length) |]
    in
    let tag = Printf.sprintf "request %d: " attempt in
    Alcotest.(check int) (tag ^ "restarted leaf counted missing") 1 lm;
    check_bits (tag ^ "its key answers 0") 0.0 answers.(0);
    check_bits (tag ^ "global folds the other leaf only") 20.0 answers.(1)
  done

let () =
  Alcotest.run "agg"
    [
      ( "merge laws",
        [
          prop_gk_merge_composed_rank_error;
          Alcotest.test_case "GK identity with empty" `Quick test_gk_merge_identity;
          Alcotest.test_case "GK associativity within bound" `Quick
            test_gk_merge_associative_bound;
          Alcotest.test_case "AG identity with empty" `Quick test_ag_merge_identity;
          Alcotest.test_case "AG bucket mismatch refused" `Quick
            test_ag_merge_incompatible;
          prop_ag_merge_within_composed_epsilon;
          Alcotest.test_case "FW group identity/commutative/associative" `Quick
            test_fw_group_laws;
          Alcotest.test_case "FW group == engine global (bitwise)" `Quick
            test_fw_group_matches_engine_global;
        ] );
      ( "aggregation plane",
        [
          Alcotest.test_case "two leaves == single process (bitwise)" `Quick
            test_aggregator_matches_single_process;
          Alcotest.test_case "two leaves == single process, mid-cadence (bitwise)"
            `Quick test_aggregator_matches_single_process_mid_cadence;
          Alcotest.test_case "Global == fold of the batch's Key answers" `Quick
            test_aggregator_global_folds_key_answers;
          Alcotest.test_case "Global needs no leaf Snapshot" `Quick
            test_aggregator_global_without_snapshot;
          Alcotest.test_case "transient summaries register no series" `Quick
            test_transient_summaries_register_no_series;
          Alcotest.test_case "killed leaf degrades to typed partial" `Quick
            test_aggregator_leaf_failure_partial;
          Alcotest.test_case "out-of-range keys rejected" `Quick
            test_aggregator_rejects_bad_key;
          Alcotest.test_case "leaf geometry mismatch refused" `Quick
            test_aggregator_geometry_mismatch;
          Alcotest.test_case "restarted leaf with new geometry stays down" `Quick
            test_aggregator_restarted_leaf_geometry;
        ] );
    ]

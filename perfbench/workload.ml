(* The benchmark's workloads and everything generated from a seed.

   A workload fixes the system's geometry (leaves, keys, window, B,
   epsilon, refresh cadence) and its traffic: the key distribution, the
   ingest batch size of the closed-loop ingest stream, and the rate and
   Global share of the open-loop query stream.  From a seed it generates,
   before any timing, the starting window of every key (the checkpoint
   contents), a pool of ingest batches, the query schedule, the quiesce
   batch of the correctness gate and the gate's probe queries.  The same
   seed gives the same inputs; the system receives nothing else. *)

module Q = Stream_histogram.Query_op
module Rng = Sh_util.Rng

type dist = Uniform | Zipf of float

type t = {
  name : string;
  why : string;
  leaves : int;
  keys_per_leaf : int;
  window : int;
  buckets : int;
  epsilon : float;
  every : int;  (* leaves run --refresh every:<every> *)
  dist : dist;
  ingest_batch : int;  (* points per Ingest request *)
  query_rate : float;  (* query batches per second, open loop *)
  global_every : int;  (* every [global_every]-th query batch is Global *)
  measured_pps : float;
      (* median ingest_pps of the end-to-end run (seeds 501-505, 2-core VM):
         sizes the ingest pool and sets the traced run's query/ingest mix *)
  setups : int;  (* system launches per run; setup_s is their median *)
}

let serve_default =
  {
    name = "serve-default";
    why =
      "serve defaults (S=16, window 1024, B=32, eps 0.1, every:256): CreateList refresh \
       is nearly all server time; queries wait behind in-loop refreshes";
    leaves = 1;
    keys_per_leaf = 16;
    window = 1024;
    buckets = 32;
    epsilon = 0.1;
    every = 256;
    dist = Uniform;
    (* 16, not 32: with 32 points per batch about 0.8% of batches cross two
       keys' every:256 boundaries at once, so ingest_ack_p99_ms flipped
       between one and two refresh times from run to run. *)
    ingest_batch = 16;
    (* A query batch costs the server microseconds next to a 100 ms
       refresh, so the rate only sets the sample: 150/s puts about 1250
       Key and 250 Global batches in each 10 s window, enough for a Key
       p99 and a Global p90 per window. *)
    query_rate = 150.0;
    global_every = 6;
    measured_pps = 2_400.0;
    setups = 5;
  }

let small_window_zipf =
  {
    name = "small-window-zipf";
    why =
      "window 256, B=4, eps 0.5, Zipf(1.1) keys, heavy query load: refresh is a smaller \
       share; frame decode/ack, routing and view queries weigh more";
    leaves = 1;
    keys_per_leaf = 16;
    window = 256;
    buckets = 4;
    epsilon = 0.5;
    every = 256;
    dist = Zipf 1.1;
    ingest_batch = 64;
    query_rate = 2000.0;
    global_every = 10;
    measured_pps = 273_000.0;
    setups = 9;
  }

let root_global =
  {
    name = "root-global";
    why =
      "two leaves x 8 keys behind shist aggregate, small-window geometry: Global \
       batches pull and decode a snapshot per leaf, so the root dominates";
    leaves = 2;
    keys_per_leaf = 8;
    window = 256;
    buckets = 4;
    epsilon = 0.5;
    every = 256;
    dist = Uniform;
    (* 2048, not 256: the root serves one request at a time, so each
       Global batch (about 10 ms of snapshot decodes) delays the ingest
       behind it.  At 256 points that hit about 1% of acks, right at the
       p99, and ingest_ack_p99_ms flipped between 1.2 and 8 ms with the
       host's speed.  At 2048 it is 3-9% of acks at any speed seen, so the
       p99 always shows that head-of-line wait. *)
    ingest_batch = 2048;
    (* 12 Global batches/s (about a tenth of the root's time) and about
       1080 Key batches per 10 s window, enough for a Key p99 per window. *)
    query_rate = 120.0;
    global_every = 10;
    measured_pps = 522_000.0;
    setups = 15;
  }

let all = [ serve_default; small_window_zipf; root_global ]
let find name = List.find_opt (fun w -> w.name = name) all
let keys w = w.leaves * w.keys_per_leaf
let leaf_of w key = key / w.keys_per_leaf
let local_key w key = key mod w.keys_per_leaf

(* ------------------------------------------------------------ values *)

(* Each key's stream is piecewise constant plus unit Gaussian noise, with
   a level shift on average every 64 points — data a B-bucket histogram
   summarises well, and never constant, so the exact V-optimal SSE the
   gate divides by is positive. *)
type values = { rng : Rng.t; levels : float array }

let values_gen rng n = { rng; levels = Array.init n (fun _ -> Rng.uniform rng ~lo:0.0 ~hi:100.0) }

let next_value g key =
  if Rng.int g.rng 64 = 0 then g.levels.(key) <- Rng.uniform g.rng ~lo:0.0 ~hi:100.0;
  g.levels.(key) +. Rng.gaussian g.rng ~mean:0.0 ~stddev:1.0

let draw_key w rng =
  match w.dist with
  | Uniform -> Rng.int rng (keys w)
  | Zipf skew -> Rng.zipf rng ~n:(keys w) ~skew - 1

(* Points key [k] has taken since its last refresh when the run starts.
   The phases are spread evenly over the [every:k] cadence, as in a
   long-running server whose keys started independently; restored all
   in phase, every key would refresh in the same few batches. *)
let phase w k = k * w.every / keys w

(* ------------------------------------------------------------ inputs *)

type inputs = {
  workload : t;
  seed : int;
  initial : float array array;
      (* per global key: a full window, then [phase] points past its last
         refresh (see {!phase}) *)
  ingest : (int * float array) array array;  (* pool of batches, global keys *)
  schedule : float array;  (* due time of each query batch, seconds from start *)
  queries : (Q.scope * Q.t) array array;  (* the batches, in due order *)
  quiesce : (int * float array) array;  (* one run of max(window, every) per key *)
  probes : (Q.scope * Q.t) array;  (* gate probes: 5 ops per key, then 5 Global *)
}

let five_ops w rng =
  let idx () = 1 + Rng.int rng w.window in
  let a = idx () and b = idx () in
  [|
    Q.Current_error;
    Q.Window_length;
    Q.Herror { k = 1 + Rng.int rng w.buckets; x = Rng.int rng (w.window + 1) };
    Q.Range_sum { lo = min a b; hi = max a b };
    Q.Point_estimate { index = idx () };
  |]

(* Group a batch's arrivals by key (ascending), keeping arrival order
   within a key — the [(key, values)] shape of a wire Ingest. *)
let group_batch w arrivals =
  let per = Array.make (keys w) [] in
  List.iter (fun (k, v) -> per.(k) <- v :: per.(k)) (List.rev arrivals);
  let out = ref [] in
  for k = keys w - 1 downto 0 do
    match per.(k) with [] -> () | vs -> out := (k, Array.of_list (List.rev vs)) :: !out
  done;
  Array.of_list !out

(* The ingest pool holds enough batches for [seconds] at twice the
   measured rate, capped near 2^20 points; a longer run cycles through it. *)
let pool_batches w ~seconds =
  let need = int_of_float (w.measured_pps *. 2.0 *. Float.of_int seconds) / w.ingest_batch in
  max 64 (min need ((1 lsl 20) / w.ingest_batch))

(* Poisson arrivals at [query_rate] over [seconds]: independent users
   whose batches may land at any phase of the server's work. *)
let poisson_schedule w rng ~seconds =
  let rec go t acc =
    let t = t +. Rng.exponential rng ~rate:w.query_rate in
    if t >= Float.of_int seconds then Array.of_list (List.rev acc) else go t (t :: acc)
  in
  go 0.0 []

let generate w ~seed ~seconds =
  let root = Rng.create ~seed in
  let r_init = Rng.split_ix root 1
  and r_ingest = Rng.split_ix root 2
  and r_query = Rng.split_ix root 3
  and r_gate = Rng.split_ix root 4 in
  let n = keys w in
  let vg = values_gen r_init n in
  let initial = Array.init n (fun k -> Array.init (w.window + phase w k) (fun _ -> next_value vg k)) in
  let ig = { vg with rng = r_ingest } in
  let ingest =
    Array.init (pool_batches w ~seconds) (fun _ ->
        group_batch w
          (List.init w.ingest_batch (fun _ ->
               let k = draw_key w r_ingest in
               (k, next_value ig k))))
  in
  let schedule = poisson_schedule w r_query ~seconds in
  let queries =
    Array.init (Array.length schedule) (fun j ->
        if (j + 1) mod w.global_every = 0 then
          Array.map (fun q -> (Q.Global, q)) (five_ops w r_query)
        else begin
          let k = draw_key w r_query in
          Array.map (fun q -> (Q.Key k, q)) (five_ops w r_query)
        end)
  in
  let gg = { ig with rng = r_gate } in
  let quiesce =
    Array.init n (fun k -> (k, Array.init (max w.window w.every) (fun _ -> next_value gg k)))
  in
  let probes =
    Array.concat
      (List.init n (fun k -> Array.map (fun q -> (Q.Key k, q)) (five_ops w r_gate))
      @ [ Array.map (fun q -> (Q.Global, q)) (five_ops w r_gate) ])
  in
  { workload = w; seed; initial; ingest; schedule; queries; quiesce; probes }

let points_in groups = Array.fold_left (fun n (_, vs) -> n + Array.length vs) 0 groups

(* Split a batch of global-key groups per leaf, rebased to leaf-local
   keys (the routing shist aggregate applies). *)
let per_leaf w groups =
  let out = Array.make w.leaves [] in
  Array.iter
    (fun (k, vs) ->
      let l = leaf_of w k in
      out.(l) <- (local_key w k, vs) :: out.(l))
    groups;
  Array.map (fun l -> Array.of_list (List.rev l)) out

(* ------------------------------------------------------------ ladder *)

type request = Ingest of (int * float array) array | Query of (Q.scope * Q.t) array

(* The traced run's request sequence: ingest batches from the pool with
   the scheduled query batches interleaved at the ratio the open-loop
   rate bears to the ingest-request rate the end-to-end run measured.
   The end-to-end mix itself moves with the host's speed (ingest is
   closed-loop, queries are on a wall-clock schedule), so this is the mix
   at the measured rate, not at every run's. *)
let ladder_requests inp ~count =
  let w = inp.workload in
  let ingest_rate = w.measured_pps /. Float.of_int w.ingest_batch in
  let ratio = w.query_rate /. ingest_rate in
  let out = ref [] and ni = ref 0 and nq = ref 0 in
  while !ni + !nq < count do
    if Float.of_int !nq < ratio *. Float.of_int !ni then begin
      out := Query inp.queries.(!nq mod Array.length inp.queries) :: !out;
      incr nq
    end
    else begin
      out := Ingest inp.ingest.(!ni mod Array.length inp.ingest) :: !out;
      incr ni
    end
  done;
  Array.of_list (List.rev !out)

module Sliding_prefix = Sh_prefix.Sliding_prefix
module Histogram = Sh_histogram.Histogram
module Soa = Sh_util.Soa
module Intmemo = Sh_util.Intmemo
module Obs = Sh_obs.Obs
module M = Sh_obs.Metric

(* The level-k list covers [1 .. n] with intervals [a_idx .. b_idx] inside
   which the (non-decreasing) function HERROR[., k] varies by at most a
   (1 + delta) factor: herror values are stored at both ends, and
   candidates are evaluated at right endpoints only (Section 4.2.1).

   Lists are stored struct-of-arrays (Soa): column layout below.  Rows
   live in flat int/float arrays, so a refresh that clears and refills
   every list allocates nothing once the columns reach steady capacity —
   the boxed-record representation this replaced allocated one record per
   interval per rebuild. *)
let col_a = 0 (* int col: a_idx    *)
let col_b = 1 (* int col: b_idx    *)
let col_ha = 0 (* float col: a_herror *)
let col_hb = 1 (* float col: b_herror *)

let new_list () = Soa.create ~fcols:2 ~icols:2 ()

type work_counters = {
  herror_evaluations : int;
  cold_evaluations : int;
  warm_evaluations : int;
  intervals_built : int;
  refreshes : int;
  cold_refreshes : int;
  warm_refreshes : int;
  search_steps : int;
  scan_steps : int;
  hint_hits : int;
  hint_misses : int;
  memo_probes : int;
  memo_hits : int;
}

(* Which activity an HERROR evaluation is charged to: list rebuilds with /
   without warm-start hints, or query-time reads. *)
type mode = Cold_rebuild | Warm_rebuild | Query

(* Work tallies: slots of [t.tally], plain ints bumped inside the kernel
   loops.  They are cumulative per instance (work_counters reads them
   directly) and are flushed as deltas into the process-wide fw.* series
   below once per public entry point, so no probe pays a registry store. *)
let w_evals = 0
let w_cold_evals = 1
let w_warm_evals = 2
let w_built = 3
let w_refreshes = 4
let w_cold_refreshes = 5
let w_warm_refreshes = 6
let w_steps = 7
let w_scan_steps = 8
let w_hits = 9
let w_misses = 10
let w_memo_probes = 11
let w_memo_hits = 12

(* The fw.* series, registered once per process and indexed by tally
   slot.  They carry no instance label: summaries are created per shard,
   per restore and per decoded snapshot, and per-instance series would
   pin registry entries for every one of them. *)
let fw_counters =
  Array.map Obs.counter
    [| "fw.herror_evals"; "fw.cold_evals"; "fw.warm_evals"; "fw.intervals_built";
       "fw.refreshes"; "fw.cold_refreshes"; "fw.warm_refreshes"; "fw.search_steps";
       "fw.scan_steps"; "fw.hint_hits"; "fw.hint_misses"; "fw.memo_probes";
       "fw.memo_hits" |]

let g_length = Obs.gauge "fw.window_length"
let g_alloc = Obs.gauge "fw.alloc_words_per_push"

(* --- the scan kernel ---------------------------------------------------- *)

(* The kernel reads the window through flat cumulative arrays: [sum.(i)]
   is the raw cumulative sum at window-relative index i in [0 .. n]
   (0 = the sentinel before the oldest point), as copied out of the
   sliding ring by [Sliding_prefix.blit_cumulative].  The live summary
   refreshes its copy at the start of every rebuild; a view holds its
   own.  Both run the same functions below, so view answers are
   bit-identical to live ones by construction.

   SQERROR(lo, hi): [Sliding_prefix.sqerror]'s guard, subtraction order and
   clamp on the same values, hence the same bits.  Inlined into the scan
   loops so the whole computation stays in float registers (a float
   return from a non-inlined call would be boxed).  Callers keep indices
   in [1 .. n]. *)
let[@inline] sqerror sum sqsum ~lo ~hi =
  if lo > hi then 0.0
  else begin
    let s = Array.unsafe_get sum hi -. Array.unsafe_get sum (lo - 1) in
    let q = Array.unsafe_get sqsum hi -. Array.unsafe_get sqsum (lo - 1) in
    let n = Float.of_int (hi - lo + 1) in
    (* branch instead of Float.max, which would box (NaN cannot reach
       here: pushes reject non-finite values) *)
    let d = q -. (s *. s /. n) in
    if d > 0.0 then d else 0.0
  end

(* Out-params of [scan]: a (value, split) return pair would box the float
   on every evaluation, and so would a float field of a mixed record, so
   the value travels through a one-slot float array. *)
type scan_out = {
  best : float array; (* slot 0: the best candidate value *)
  mutable best_i : int; (* its split position *)
  mutable steps : int; (* binary-search probes this scan executed *)
}

let scan_out () = { best = [| 0.0 |]; best_i = 0; steps = 0 }

(* Candidate scan: the approximate HERROR[x, k] for the window, read off
   the level-(k-1) list given by its columns ([len] live rows), with the
   split position achieving it.  Requires k >= 2 and k < x.

   Candidates are the objective evaluated at list endpoints b < x, plus —
   when the interval covering x-1 extends to or past x — that interval's
   endpoint herror standing in for the "split at x-1" candidate
   (monotonicity makes it an upper bound on HERROR[x-1, k-1], and the
   interval invariant keeps it within (1 + delta) of it).

   Both ends of the scan are pruned by binary search instead of walking the
   list from entry 0: the covering entry is located directly on the sorted
   b_idx column, and — seeding the running best with its proxy candidate —
   entries whose SQERROR term alone already reaches that bound are skipped
   (SQERROR(b+1, x) only shrinks along the list, so they form a prefix). *)
let scan ~sum ~sqsum ~a_idx ~b_idx ~b_her ~len ~x o =
  let steps = ref 0 in
  (* covering entry: first row with b_idx >= x *)
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    incr steps;
    if Array.unsafe_get b_idx mid >= x then hi := mid else lo := mid + 1
  done;
  let cover = !lo in
  let best = ref infinity in
  let best_i = ref (x - 1) in
  if cover < len && Array.unsafe_get a_idx cover <= x - 1 then begin
    best := Array.unsafe_get b_her cover;
    best_i := x - 1
  end;
  let first =
    if cover = 0 || !best = infinity then 0
    else begin
      let lo = ref 0 and hi = ref cover in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        incr steps;
        if sqerror sum sqsum ~lo:(Array.unsafe_get b_idx mid + 1) ~hi:x < !best then
          hi := mid
        else lo := mid + 1
      done;
      !lo
    end
  in
  let i = ref first in
  let continue = ref true in
  while !continue && !i < cover do
    let bh = Array.unsafe_get b_her !i in
    (* Early exit: stored herror values are non-decreasing along the list,
       so once one alone reaches the current best, no later candidate
       (herror + non-negative SQERROR) can improve it. *)
    if bh >= !best then continue := false
    else begin
      let b = Array.unsafe_get b_idx !i in
      let cand = bh +. sqerror sum sqsum ~lo:(b + 1) ~hi:x in
      if cand < !best then begin
        best := cand;
        best_i := b
      end;
      incr i
    end
  done;
  Array.unsafe_set o.best 0 !best;
  o.best_i <- !best_i;
  o.steps <- !steps

(* The histogram of [1 .. n] given [split ~k ~x], the best split position
   for the last bucket of a k-bucket histogram of [1 .. x].  Right
   endpoints are recovered top-down: split off the last bucket at each
   level, then recurse on the remaining prefix with one fewer bucket.
   Bucket values are exact range means over the flat cumulative sums. *)
let histogram_of ~n ~b ~sum ~split =
  let rec boundaries x k acc =
    if x <= 0 then acc
    else if k <= 1 then x :: acc
    else if x <= k then begin
      (* x points fit in x singleton buckets at zero error *)
      let acc = ref acc in
      for i = x downto 1 do
        acc := i :: !acc
      done;
      !acc
    end
    else boundaries (split ~k ~x) (k - 1) (x :: acc)
  in
  let ends = Array.of_list (boundaries n b []) in
  let bucket_of i hi =
    let lo = if i = 0 then 1 else ends.(i - 1) + 1 in
    let value = (sum.(hi) -. sum.(lo - 1)) /. Float.of_int (hi - lo + 1) in
    { Histogram.lo; hi; value }
  in
  Histogram.make ~n (Array.mapi bucket_of ends)

(* --- live summary ------------------------------------------------------- *)

(* Slots of the float scratch column (see [fs] below): unboxed out-params
   for the hot internal calls, which would otherwise box a float per
   return.  Mixed records box float fields on every store, so the scratch
   lives in a flat float array instead. *)
let fs_eval = 0 (* eval_herror_into result              *)
let fs_bnd = 1 (* find_boundary herror at the boundary *)
let fs_hstart = 2 (* find_boundary in-param: HERROR at the interval start *)
let fs_thresh = 3 (* find_boundary in-param: (1 + delta) * h_start        *)
let fs_len = 4

type t = {
  params : Params.t;
  sp : Sliding_prefix.t;
  (* Double buffer: [queues.(k-1)] holds the level-k list for the window as
     of the last refresh; [prev_queues.(k-1)] the one before, kept so warm
     rebuilds can seed boundary searches from the previous boundaries.  The
     two arrays are swapped at every refresh instead of reallocating. *)
  mutable queues : Soa.t array;
  mutable prev_queues : Soa.t array;
  (* Flat copy of the window's cumulative sums, indices 0 .. length, taken
     at the start of every rebuild (window + 1 slots each).  Every SQERROR
     of rebuilds and live queries subtracts over these. *)
  sum : float array;
  sqsum : float array;
  (* Per-level HERROR memo: [memo_val.(x)] holds HERROR[x, k] for the
     generation and level stamped in [memo_tag.(x)] (gen * memo_stride + k).
     A rebuild probes level k only while building list k, so one slot per
     position replays a full (k, x) table's hits exactly, in O(window)
     space.  Bumping the generation invalidates every slot. *)
  memo_val : float array;
  memo_tag : int array;
  memo_stride : int; (* buckets + 1 *)
  mutable memo_on : bool;  (* master switch (set_memoisation)          *)
  mutable use_memo : bool; (* consulted by eval_herror_into            *)
  fs : float array; (* float out-param scratch, see fs_* slots *)
  so : scan_out;    (* scan out-params *)
  mutable bnd_c : int;       (* find_boundary boundary out-param  *)
  mutable gauge_len : int;   (* last length stored in g_length    *)
  mutable gen : int;  (* refresh generation: bumped once per rebuild, the
                         epoch stamp of the published read views *)
  mutable seen : int; (* points pushed since creation (monotone watermark;
                         restored snapshots restart at the window length) *)
  mutable dirty : bool;
  mutable policy : Params.refresh_policy;
  mutable slide : int; (* evictions since the last refresh: how far the
                          prev_queues coordinates have shifted *)
  mutable pushes_since_refresh : int;
  mutable mode : mode;
  tally : int array;   (* work tallies, see w_* slots *)
  flushed : int array; (* tally values already added to fw_counters *)
}

(* Shared constructor: everything but [params] and the prefix-sum state is
   derived or starts empty, which is also why [decode] below can rebuild a
   full summary from just those two (plus a cold refresh). *)
let mk ~params ~sp =
  let buckets = params.Params.buckets in
  let slots = Sliding_prefix.capacity sp + 1 in
  let ntally = Array.length fw_counters in
  {
    params;
    sp;
    queues = Array.init (max 1 (buckets - 1)) (fun _ -> new_list ());
    prev_queues = Array.init (max 1 (buckets - 1)) (fun _ -> new_list ());
    sum = Array.make slots 0.0;
    sqsum = Array.make slots 0.0;
    memo_val = Array.make slots 0.0;
    memo_tag = Array.make slots (-1);
    memo_stride = buckets + 1;
    memo_on = true;
    use_memo = true;
    fs = Array.make fs_len 0.0;
    so = scan_out ();
    bnd_c = 0;
    gauge_len = -1;
    gen = 0;
    seen = 0;
    dirty = true;
    policy = params.Params.policy;
    slide = 0;
    pushes_since_refresh = 0;
    mode = Query;
    tally = Array.make ntally 0;
    flushed = Array.make ntally 0;
  }

let create_with_delta ~window ~buckets ~epsilon ~delta =
  let params = Params.make_with_delta ~buckets ~epsilon ~delta in
  if window < 1 then invalid_arg "Fixed_window.create: window must be >= 1";
  mk ~params ~sp:(Sliding_prefix.create ~capacity:window)

let create ~window ~buckets ~epsilon =
  create_with_delta ~window ~buckets ~epsilon
    ~delta:(epsilon /. (2.0 *. Float.of_int buckets))

let window t = Sliding_prefix.capacity t.sp
let buckets t = t.params.Params.buckets
let epsilon t = t.params.Params.epsilon
let length t = Sliding_prefix.length t.sp
let generation t = t.gen
let points_seen t = t.seen
let refresh_policy t = t.policy
let pending_pushes t = t.pushes_since_refresh
let slide_since_refresh t = t.slide
let needs_refresh t = t.dirty
let memoisation t = t.memo_on

let set_memoisation t on =
  t.memo_on <- on;
  t.use_memo <- on

let set_refresh_policy t policy =
  (* Reuse the Params validation (rejects [Every k] with k < 1). *)
  t.policy <- (Params.with_policy t.params policy).Params.policy

let[@inline] bump t w n = Array.unsafe_set t.tally w (Array.unsafe_get t.tally w + n)

(* Publish the tallies accrued since the last flush to the process-wide
   series: at most one registry store per counter per public call. *)
let flush t =
  for w = 0 to Array.length t.tally - 1 do
    let v = Array.unsafe_get t.tally w in
    let d = v - Array.unsafe_get t.flushed w in
    if d > 0 then begin
      M.add fw_counters.(w) d;
      Array.unsafe_set t.flushed w v
    end
  done

let count_eval t =
  bump t w_evals 1;
  match t.mode with
  | Cold_rebuild -> bump t w_cold_evals 1
  | Warm_rebuild -> bump t w_warm_evals 1
  | Query -> ()

(* [scan] over the live level-(k-1) list; results in [t.so].  Its probes
   count toward search_steps (the legacy total) and, separately,
   scan_steps, so rebuild-probe work and scan-internal work can be told
   apart (see work_counters). *)
let scan_level t ~k ~x =
  let q = t.queues.(k - 2) in
  scan ~sum:t.sum ~sqsum:t.sqsum ~a_idx:(Soa.icol q col_a) ~b_idx:(Soa.icol q col_b)
    ~b_her:(Soa.fcol q col_hb) ~len:(Soa.length q) ~x t.so;
  bump t w_steps t.so.steps;
  bump t w_scan_steps t.so.steps

(* Approximate HERROR[x, k] for the current window, written to
   [fs.(fs_eval)].  When memoisation is on, the scan is paid at most once
   per (k, x) per refresh generation: the memo caches the final value, and
   every evaluation still counts in herror_evaluations (the legacy meaning
   — logical evaluations requested, hits included), with memo_probes /
   memo_hits recording the dedup separately. *)
let eval_herror_into t ~k ~x =
  count_eval t;
  if x <= 0 || k >= x then t.fs.(fs_eval) <- 0.0 (* x points in >= x buckets: zero error *)
  else if k = 1 then t.fs.(fs_eval) <- sqerror t.sum t.sqsum ~lo:1 ~hi:x
  else if t.use_memo then begin
    bump t w_memo_probes 1;
    (* 0 < x <= length <= window: in bounds of the memo columns *)
    let stamp = (t.gen * t.memo_stride) + k in
    if Array.unsafe_get t.memo_tag x = stamp then begin
      bump t w_memo_hits 1;
      t.fs.(fs_eval) <- Array.unsafe_get t.memo_val x
    end
    else begin
      scan_level t ~k ~x;
      let best = Array.unsafe_get t.so.best 0 in
      let v = if best = infinity then 0.0 else best in
      Array.unsafe_set t.memo_val x v;
      Array.unsafe_set t.memo_tag x stamp;
      t.fs.(fs_eval) <- v
    end
  end
  else begin
    scan_level t ~k ~x;
    let best = Array.unsafe_get t.so.best 0 in
    t.fs.(fs_eval) <- (if best = infinity then 0.0 else best)
  end

(* Largest c in [start, hi] with HERROR[c, k] <= threshold; writes c to
   [bnd_c] and its herror to [fs.(fs_bnd)].  The float inputs arrive via
   scratch slots — [fs.(fs_hstart)] holds HERROR[start, k], [fs.(fs_thresh)]
   the threshold — because float arguments to a non-inlined call are boxed
   at every call site.  HERROR[., k] is non-decreasing
   in x, and the predicate holds at [start] (its herror defines the
   threshold), so the boundary is well defined and any bracketing strategy
   finds the same c.  Without a hint ([hint = min_int]) this is the plain
   binary search of CreateList (Figure 5); with one, a gallop outward from
   the hinted position brackets the boundary in O(log distance)
   evaluations — a near-perfect hint (the common case between consecutive
   arrivals) costs O(1) instead of O(log n).

   The shared bisect runs over refs seeded per branch; every probe is one
   search step plus one eval_herror (identical to the pre-SoA
   implementation, so step counts match it exactly when memoisation is
   off). *)
let find_boundary t ~k ~start ~hi ~hint =
  let h_start = t.fs.(fs_hstart) in
  let threshold = t.fs.(fs_thresh) in
  (* bisect bracket: largest good position in [b_lo, b_hi], with b_h =
     HERROR[b_lo, k] already known. *)
  let b_lo = ref start and b_hi = ref hi and b_h = ref h_start in
  (if hint <> min_int then begin
     let g = max start (min hi hint) in
     let h_g =
       if g = start then h_start
       else begin
         bump t w_steps 1;
         eval_herror_into t ~k ~x:g;
         t.fs.(fs_eval)
       end
     in
     if h_g <= threshold then begin
       (* Boundary at or past g: gallop right for the first bad position. *)
       let off = ref 1 and lo = ref g and h_lo = ref h_g and bad = ref (-1) in
       while !bad < 0 && g + !off <= hi do
         let p = g + !off in
         bump t w_steps 1;
         eval_herror_into t ~k ~x:p;
         let hp = t.fs.(fs_eval) in
         if hp <= threshold then begin
           lo := p;
           h_lo := hp;
           off := 2 * !off
         end
         else bad := p
       done;
       b_lo := !lo;
       b_h := !h_lo;
       b_hi := if !bad < 0 then hi else !bad - 1
     end
     else begin
       (* Boundary strictly before g: gallop left for a good position. *)
       let off = ref 1 and bad = ref g and lo = ref (-1) and h_lo = ref h_start in
       while !lo < 0 && g - !off > start do
         let p = g - !off in
         bump t w_steps 1;
         eval_herror_into t ~k ~x:p;
         let hp = t.fs.(fs_eval) in
         if hp <= threshold then begin
           lo := p;
           h_lo := hp
         end
         else begin
           bad := p;
           off := 2 * !off
         end
       done;
       if !lo < 0 then begin
         b_lo := start;
         b_h := h_start
       end
       else begin
         b_lo := !lo;
         b_h := !h_lo
       end;
       b_hi := !bad - 1
     end
   end);
  while !b_lo < !b_hi do
    let mid = (!b_lo + !b_hi + 1) / 2 in
    bump t w_steps 1;
    eval_herror_into t ~k ~x:mid;
    let hm = t.fs.(fs_eval) in
    if hm <= threshold then begin
      b_lo := mid;
      b_h := hm
    end
    else b_hi := mid - 1
  done;
  if hint <> min_int then bump t (if !b_lo = hint then w_hits else w_misses) 1;
  t.bnd_c <- !b_lo;
  t.fs.(fs_bnd) <- !b_h

(* CreateList (Figure 5): cover [1 .. n] with maximal intervals whose
   HERROR[., k] spread stays within (1 + delta).  A warm rebuild seeds each
   boundary search from the previous refresh's boundary over the same
   stream points (the prev_queues entry covering this interval's start,
   shifted back by the window slide); the search result is independent of
   the seed, so warm and cold rebuilds produce identical lists. *)
let create_list t ~k ~warm =
  let q = t.queues.(k - 1) in
  Soa.clear q;
  let n = length t in
  let delta = t.params.Params.delta in
  let prev = t.prev_queues.(k - 1) in
  let plen = if warm then Soa.length prev else 0 in
  let prev_b = Soa.icol prev col_b in
  let slide = t.slide in
  let pcur = ref 0 in
  (* Rows are written through the raw column arrays (re-fetched after each
     add_row, which may grow them): Soa.set_f would box its float argument
     at every cross-module call. *)
  let a = ref 1 in
  while !a <= n do
    let start = !a in
    if start = n then begin
      eval_herror_into t ~k ~x:start;
      let r = Soa.add_row q in
      (Soa.icol q col_a).(r) <- start;
      (Soa.icol q col_b).(r) <- start;
      (Soa.fcol q col_ha).(r) <- t.fs.(fs_eval);
      (Soa.fcol q col_hb).(r) <- t.fs.(fs_eval);
      bump t w_built 1;
      a := n + 1
    end
    else begin
      eval_herror_into t ~k ~x:start;
      t.fs.(fs_hstart) <- t.fs.(fs_eval);
      t.fs.(fs_thresh) <- (1.0 +. delta) *. t.fs.(fs_eval);
      let hint =
        if plen = 0 then min_int
        else begin
          let old_start = start + slide in
          while !pcur < plen && Array.unsafe_get prev_b !pcur < old_start do
            incr pcur
          done;
          if !pcur < plen then Array.unsafe_get prev_b !pcur - slide else min_int
        end
      in
      find_boundary t ~k ~start ~hi:n ~hint;
      let c = t.bnd_c in
      let r = Soa.add_row q in
      (Soa.icol q col_a).(r) <- start;
      (Soa.icol q col_b).(r) <- c;
      (Soa.fcol q col_ha).(r) <- t.fs.(fs_hstart);
      (Soa.fcol q col_hb).(r) <- t.fs.(fs_bnd);
      bump t w_built 1;
      a := c + 1
    end
  done

let do_refresh t ~warm =
  (* Swap buffers: the lists of the last refresh become the warm-start
     hints, their buffers the target of this rebuild. *)
  let tmp = t.queues in
  t.queues <- t.prev_queues;
  t.prev_queues <- tmp;
  (* The new generation also clears the memo in O(1): every slot's stamp
     names an older one. *)
  t.gen <- t.gen + 1;
  Sliding_prefix.blit_cumulative t.sp ~sum:t.sum ~sqsum:t.sqsum;
  t.mode <- (if warm then Warm_rebuild else Cold_rebuild);
  let b = buckets t in
  if length t > 0 then
    for k = 1 to b - 1 do
      create_list t ~k ~warm
    done;
  t.mode <- Query;
  t.dirty <- false;
  t.slide <- 0;
  t.pushes_since_refresh <- 0;
  bump t w_refreshes 1;
  bump t (if warm then w_warm_refreshes else w_cold_refreshes) 1;
  flush t

let refresh ?(cold = false) ?memo t =
  if t.dirty then begin
    let warm = not cold in
    t.use_memo <- (match memo with None -> t.memo_on | Some m -> m);
    if Obs.enabled () then begin
      (* fw.alloc_words_per_push: minor-heap words this rebuild cost per
         pending arrival.  Only maintained while telemetry is collecting —
         the gauge write itself boxes a float, which the allocation-free
         steady state must not pay unconditionally. *)
      let pushes = Float.of_int (max 1 t.pushes_since_refresh) in
      let w0 = Gc.minor_words () in
      Obs.with_span "fw.refresh" (fun () -> do_refresh t ~warm);
      M.set g_alloc ((Gc.minor_words () -. w0) /. pushes)
    end
    else do_refresh t ~warm;
    (* Queries against the unchanged window may keep hitting this
       generation's memo (values stay valid until the next rebuild). *)
    t.use_memo <- t.memo_on
  end

let push t v =
  if not (Float.is_finite v) then invalid_arg "Fixed_window.push: non-finite value";
  if Sliding_prefix.length t.sp = Sliding_prefix.capacity t.sp then t.slide <- t.slide + 1;
  Sliding_prefix.push t.sp v;
  t.seen <- t.seen + 1;
  let len = Sliding_prefix.length t.sp in
  if len <> t.gauge_len then begin
    (* Gauge stores box their float; once the window is full the length is
       constant, so skipping the redundant store keeps steady-state push
       allocation at zero. *)
    t.gauge_len <- len;
    M.set g_length (Float.of_int len)
  end;
  t.dirty <- true;
  t.pushes_since_refresh <- t.pushes_since_refresh + 1;
  match t.policy with
  | Params.Eager -> refresh t
  | Params.Lazy -> ()
  | Params.Every k -> if t.pushes_since_refresh >= k then refresh t

(* Batch fast path: append the whole batch to the sliding prefix first,
   then refresh at most ONCE under the refresh policy, so the warm-start
   machinery amortises over the batch instead of rebuilding per point.
   Bookkeeping matches [push] per appended point — [slide] counts every
   eviction and [pushes_since_refresh] every point, so an [Every k] policy
   sees batched points exactly like single arrivals; the one divergence is
   deliberate: a batch that straddles a refresh boundary rebuilds once at
   the batch end (counter back to 0) rather than mid-batch, which is the
   amortisation this entry point exists for.  Queries observe identical
   results either way, since a refresh depends only on the current window
   contents (pinned by the test suite's push_many ≡ push property). *)
let push_slice_named t vs ~pos ~len ~name =
  if pos < 0 || len < 0 || pos + len > Array.length vs then
    invalid_arg ("Fixed_window." ^ name ^ ": slice out of bounds");
  if len > 0 then begin
    for i = pos to pos + len - 1 do
      if not (Float.is_finite vs.(i)) then
        invalid_arg ("Fixed_window." ^ name ^ ": non-finite value")
    done;
    for i = pos to pos + len - 1 do
      if Sliding_prefix.length t.sp = Sliding_prefix.capacity t.sp then
        t.slide <- t.slide + 1;
      Sliding_prefix.push t.sp vs.(i)
    done;
    t.seen <- t.seen + len;
    let n = Sliding_prefix.length t.sp in
    if n <> t.gauge_len then begin
      t.gauge_len <- n;
      M.set g_length (Float.of_int n)
    end;
    t.dirty <- true;
    t.pushes_since_refresh <- t.pushes_since_refresh + len;
    match t.policy with
    | Params.Eager -> refresh t
    | Params.Lazy -> ()
    | Params.Every k -> if t.pushes_since_refresh >= k then refresh t
  end

let push_slice t vs ~pos ~len = push_slice_named t vs ~pos ~len ~name:"push_slice"
let push_many t vs = push_slice_named t vs ~pos:0 ~len:(Array.length vs) ~name:"push_many"
let push_batch = push_many

let push_and_refresh t v =
  push t v;
  refresh t

let current_error t =
  refresh t;
  eval_herror_into t ~k:(buckets t) ~x:(length t);
  flush t;
  t.fs.(fs_eval)

let herror t ~k ~x =
  if k < 1 || k > buckets t then invalid_arg "Fixed_window.herror: k out of range";
  if x < 0 || x > length t then invalid_arg "Fixed_window.herror: x out of range";
  refresh t;
  eval_herror_into t ~k ~x;
  flush t;
  t.fs.(fs_eval)

let current_histogram t =
  refresh t;
  let n = length t in
  if n = 0 then invalid_arg "Fixed_window.current_histogram: empty window";
  Obs.with_span "fw.histogram" @@ fun () ->
  (* Split positions are argmins, which the memo (values only) does not
     cache: each one runs the scan directly. *)
  let split ~k ~x =
    count_eval t;
    scan_level t ~k ~x;
    t.so.best_i
  in
  let h = histogram_of ~n ~b:(buckets t) ~sum:t.sum ~split in
  flush t;
  h

let work_counters t =
  let v w = t.tally.(w) in
  {
    herror_evaluations = v w_evals;
    cold_evaluations = v w_cold_evals;
    warm_evaluations = v w_warm_evals;
    intervals_built = v w_built;
    refreshes = v w_refreshes;
    cold_refreshes = v w_cold_refreshes;
    warm_refreshes = v w_warm_refreshes;
    search_steps = v w_steps;
    scan_steps = v w_scan_steps;
    hint_hits = v w_hits;
    hint_misses = v w_misses;
    memo_probes = v w_memo_probes;
    memo_hits = v w_memo_hits;
  }

let interval_counts t =
  refresh t;
  Array.map Soa.length t.queues

let intervals t ~k =
  if k < 1 || k > buckets t - 1 then invalid_arg "Fixed_window.intervals: k out of range";
  refresh t;
  let q = t.queues.(k - 1) in
  Array.init (Soa.length q) (fun i ->
      ( Soa.get_i q ~col:col_a i,
        Soa.get_f q ~col:col_ha i,
        Soa.get_i q ~col:col_b i,
        Soa.get_f q ~col:col_hb i ))

(* --- published read views -------------------------------------------- *)

(* A [View.t] is a compact immutable copy of everything a query needs —
   the flat cumulative sums, the endpoint columns of the interval lists,
   precomputed whole-window answers — cut from a refreshed summary by
   {!view}.  Readers on other domains evaluate against the copy alone:
   no telemetry stores, no shared scratch, no memo writes, no access to
   the live [t].  Evaluation runs the live kernel's own [scan] and
   [sqerror] over arrays holding the same values, so view answers are
   bit-identical to querying the quiesced live summary at the same
   generation (pinned by the snapshot-equivalence property tests). *)
module View = struct
  type t = {
    gen : int;  (* refresh generation the copy was cut at *)
    seen : int; (* source points_seen when cut — the freshness watermark *)
    n : int;    (* window length *)
    b : int;    (* buckets *)
    eps : float;
    (* The live summary's flat cumulative sums, trimmed to 0 .. n. *)
    sum : float array;
    sqsum : float array;
    (* Level-k interval list endpoints (level k at index k - 1, for
       k = 1 .. B-1): trimmed copies of the three Soa columns the
       candidate scan reads. *)
    a_idx : int array array;
    b_idx : int array array;
    b_her : float array array;
    err : float;               (* HERROR[n, B] — the current_error answer *)
    hist : Histogram.t option; (* [None] iff the window is empty *)
  }

  let generation v = v.gen
  let points_seen v = v.seen
  let length v = v.n
  let buckets v = v.b
  let epsilon v = v.eps

  (* [scan_level] on the copied columns; [o] is the caller's own (views
     are shared across domains, so they own no scratch). *)
  let scan_level v o ~k ~x =
    let b_idx = v.b_idx.(k - 2) in
    scan ~sum:v.sum ~sqsum:v.sqsum ~a_idx:v.a_idx.(k - 2) ~b_idx ~b_her:v.b_her.(k - 2)
      ~len:(Array.length b_idx) ~x o

  (* [eval_herror_into], branch for branch, sans memo and telemetry. *)
  let eval v ~k ~x =
    if x <= 0 || k >= x then 0.0
    else if k = 1 then sqerror v.sum v.sqsum ~lo:1 ~hi:x
    else begin
      let o = scan_out () in
      scan_level v o ~k ~x;
      let best = o.best.(0) in
      if best = infinity then 0.0 else best
    end

  let herror ?memo v ~k ~x =
    if k < 1 || k > v.b then invalid_arg "Fixed_window.herror: k out of range";
    if x < 0 || x > v.n then invalid_arg "Fixed_window.herror: x out of range";
    match memo with
    | None -> eval v ~k ~x
    | Some m ->
      let key = (x * (v.b + 1)) + k in
      let slot = Intmemo.find_slot m key in
      if slot >= 0 then (Intmemo.vals m).(slot)
      else begin
        let value = eval v ~k ~x in
        let s = Intmemo.reserve m key in
        (Intmemo.vals m).(s) <- value;
        value
      end

  let current_error v = v.err
  let histogram v = v.hist

  let current_histogram v =
    match v.hist with
    | Some h -> h
    | None -> invalid_arg "Fixed_window.current_histogram: empty window"

  let make ~gen ~seen ~n ~b ~eps ~sum ~sqsum ~a_idx ~b_idx ~b_her =
    let v0 =
      { gen; seen; n; b; eps; sum; sqsum; a_idx; b_idx; b_her;
        err = 0.0; hist = None }
    in
    let hist =
      if n = 0 then None
      else begin
        let o = scan_out () in
        let split ~k ~x =
          scan_level v0 o ~k ~x;
          o.best_i
        in
        Some (histogram_of ~n ~b ~sum ~split)
      end
    in
    { v0 with err = eval v0 ~k:b ~x:n; hist }
end

let view t =
  refresh t;
  let n = length t in
  let b = buckets t in
  let levels = b - 1 in
  let trim_i col j = Array.sub (Soa.icol t.queues.(j) col) 0 (Soa.length t.queues.(j)) in
  let trim_f col j = Array.sub (Soa.fcol t.queues.(j) col) 0 (Soa.length t.queues.(j)) in
  View.make ~gen:t.gen ~seen:t.seen ~n ~b ~eps:(epsilon t)
    ~sum:(Array.sub t.sum 0 (n + 1)) ~sqsum:(Array.sub t.sqsum 0 (n + 1))
    ~a_idx:(Array.init levels (trim_i col_a))
    ~b_idx:(Array.init levels (trim_i col_b))
    ~b_her:(Array.init levels (trim_f col_hb))

(* --- persistence ---------------------------------------------------- *)

module Codec = Sh_persist.Codec

let name = "fixed_window"
let summary_tag = Char.code 'F'

(* Snapshots carry only the irreducible state: parameters and the sliding
   prefix sums (Theorem 1's point — the interval lists are a deterministic
   function of the window, so [decode] rebuilds them with one cold refresh
   and the restored summary is indistinguishable from one that never
   stopped).  Derived scratch (queues, memo, fs) and telemetry counters are
   deliberately not persisted: counters restart at zero in the fresh
   process, like every other series in the registry. *)
let encode buf t =
  Codec.put_u8 buf summary_tag;
  Codec.put_float buf t.params.Params.epsilon;
  Codec.put_float buf t.params.Params.delta;
  Codec.put_varint buf t.params.Params.buckets;
  (match t.policy with
   | Params.Eager -> Codec.put_varint buf 0
   | Params.Lazy -> Codec.put_varint buf 1
   | Params.Every k ->
     Codec.put_varint buf 2;
     Codec.put_varint buf k);
  Codec.put_bool buf t.memo_on;
  Codec.put_varint buf t.pushes_since_refresh;
  Sliding_prefix.encode buf t.sp

let decode r =
  let tag = Codec.get_u8 r in
  if tag <> summary_tag then
    Codec.corruptf "Fixed_window.decode: tag %d is not a fixed-window payload"
      tag;
  let epsilon = Codec.get_float r in
  let delta = Codec.get_float r in
  let buckets = Codec.get_varint r in
  let policy =
    match Codec.get_varint r with
    | 0 -> Params.Eager
    | 1 -> Params.Lazy
    | 2 -> Params.Every (Codec.get_varint r)
    | n -> Codec.corruptf "Fixed_window.decode: unknown policy tag %d" n
  in
  let memo_on = Codec.get_bool r in
  let pending = Codec.get_varint r in
  let sp = Sliding_prefix.decode r in
  let params =
    try Params.with_policy (Params.make_with_delta ~buckets ~epsilon ~delta) policy
    with Invalid_argument m -> Codec.corruptf "Fixed_window.decode: %s" m
  in
  let t = mk ~params ~sp in
  t.policy <- params.Params.policy;
  set_memoisation t memo_on;
  (* Rebuild the interval lists from the restored window, then put the
     arrival-cadence counter back so an [Every k] policy resumes exactly
     where the snapshot left it. *)
  t.dirty <- true;
  refresh ~cold:true t;
  t.pushes_since_refresh <- pending;
  (* The watermark restarts at the restored window length: pre-snapshot
     history is not recoverable, and only deltas of [points_seen] are
     meaningful across a restore. *)
  t.seen <- length t;
  t

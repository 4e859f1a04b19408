(* Due-time accounting for an open-loop request stream.

   Request [i] is due at [start + offsets.(i)] whether or not earlier
   requests have been answered.  Its latency runs from when it was due,
   not from when the generator managed to send it, so a stall in the
   system (or in the generator) is charged to every request that should
   have gone out during it.  How late the generator sent each request is
   kept separately, so a run whose sender fell behind can be flagged. *)

type t = {
  start : float;
  offsets : float array;  (* due times relative to [start], ascending *)
  sent : float array;  (* nan until sent *)
  completed : float array;  (* nan until answered *)
}

let create ~start ~offsets =
  let n = Array.length offsets in
  { start; offsets; sent = Array.make n Float.nan; completed = Array.make n Float.nan }

let length t = Array.length t.sent
let due t i = t.start +. t.offsets.(i)

(* Mean gap between consecutive due times. *)
let mean_gap t =
  let n = Array.length t.offsets in
  if n < 2 then Float.infinity else (t.offsets.(n - 1) -. t.offsets.(0)) /. Float.of_int (n - 1)

let mark_sent t i ~now = t.sent.(i) <- now
let mark_completed t i ~now = t.completed.(i) <- now

let collect t f =
  let out = ref [] in
  for i = Array.length t.sent - 1 downto 0 do
    match f i with Some x -> out := x :: !out | None -> ()
  done;
  Array.of_list !out

(* Latency of answered request [i], measured from its due time. *)
let latency t i = t.completed.(i) -. due t i

(* Latency of every answered request. *)
let latencies t =
  collect t (fun i -> if Float.is_nan t.completed.(i) then None else Some (latency t i))

(* How late each sent request left the generator (>= 0). *)
let lateness t =
  collect t (fun i ->
      let s = t.sent.(i) in
      if Float.is_nan s then None else Some (Float.max 0.0 (s -. due t i)))

(* The sender fell behind when its p99 lateness exceeds the mean gap
   between requests (or 1 ms, for fast streams): requests then left in
   bunches rather than on schedule. *)
let behind t =
  let l = lateness t in
  Array.length l > 0 && Pct.percentile l ~per_mille:990 > Float.max (mean_gap t) 0.001

(* Spans for the traced ladder run, and the self-time arithmetic.

   The traced run replays one request sequence up a ladder of in-process
   rungs, each adding one layer on top of the rung below.  Every rung
   records one [request] span per request id (the whole call into its
   layer) plus any number of [op] spans inside it (a refresh, an encode).
   A layer's self time on a request is its rung's request span minus the
   request span of the rung below on the same id.  Spans are kept in
   memory and written out when the run ends. *)

type kind = Request | Op

type span = {
  name : string;
  kind : kind;
  rung : int;
  req : int;
  start : float;
  stop : float;
}

type recorder = { mutable on : bool; mutable spans : span list; mutable count : int }

let recorder () = { on = true; spans = []; count = 0 }
let clock = Unix.gettimeofday

let add r s =
  r.spans <- s :: r.spans;
  r.count <- r.count + 1

(* Time [f] as one span.  With the recorder off only [f] runs. *)
let span r ~name ~kind ~rung ~req f =
  if not r.on then f ()
  else begin
    let start = clock () in
    let x = f () in
    add r { name; kind; rung; req; start; stop = clock () };
    x
  end

let duration s = s.stop -. s.start
let spans r = List.rev r.spans

(* Request-span duration per request id on one rung. *)
let request_times spans ~rung =
  let h = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.rung = rung && s.kind = Request then
        Hashtbl.replace h s.req
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt h s.req)))
    spans;
  h

(* Self time of rung [upper] over rung [lower], per request id present on
   both rungs, in ascending id order. *)
let self_times spans ~lower ~upper =
  let lo = request_times spans ~rung:lower in
  let hi = request_times spans ~rung:upper in
  Hashtbl.fold
    (fun req t acc ->
      match Hashtbl.find_opt lo req with Some l -> (req, t -. l) :: acc | None -> acc)
    hi []
  |> List.sort compare

let total_request_time spans ~rung =
  Hashtbl.fold (fun _ t acc -> acc +. t) (request_times spans ~rung) 0.0

(* Each rung's self-time share of the top rung's request time, over the
   requests the top rung served: [(rung, share)] for rungs [1 .. top],
   where rung 1's self time is its whole request time.  The shares sum to
   1 when every rung replayed the same request ids. *)
let shares spans ~top =
  let base = total_request_time spans ~rung:top in
  let top_ids = request_times spans ~rung:top in
  List.init top (fun i ->
      let rung = i + 1 in
      let self =
        if rung = 1 then
          Hashtbl.fold
            (fun req t acc -> if Hashtbl.mem top_ids req then acc +. t else acc)
            (request_times spans ~rung:1) 0.0
        else
          List.fold_left
            (fun acc (req, d) -> if Hashtbl.mem top_ids req then acc +. d else acc)
            0.0
            (self_times spans ~lower:(rung - 1) ~upper:rung)
      in
      (rung, if base > 0.0 then self /. base else Float.nan))

let to_jsonl oc spans =
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"name\":%S,\"kind\":%S,\"rung\":%d,\"req\":%d,\"start\":%.6f,\"end\":%.6f}\n"
        s.name
        (match s.kind with Request -> "request" | Op -> "op")
        s.rung s.req s.start s.stop)
    spans

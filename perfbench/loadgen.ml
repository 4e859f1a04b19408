(* The timed phase: one single-threaded select loop over two wire
   connections to the system's entry point.

   Connection 0 is a closed-loop ingest stream: the next pre-encoded
   Ingest goes out only once the previous one is acked, so it measures
   saturation throughput at the workload's batch size.  Connection 1 is
   an open-loop query stream on the workload's pre-generated Poisson
   schedule: each batch is sent when due, pipelined, whatever is still
   outstanding, and its latency runs from its due time
   ({!Perfbench.Openloop}).

   A failure is an [Error_reply], an [Answers_partial], an [Ack] short of
   its batch, a wrong-length answer vector, or a timeout / EOF with the
   request outstanding. *)

module Addr = Sh_net.Addr
module Conn = Sh_net.Conn
module Wire = Sh_net.Wire
module Q = Stream_histogram.Query_op
module W = Perfbench.Workload
module OL = Perfbench.Openloop

let now = Unix.gettimeofday

exception Broken of string

(* Connect and complete the preamble exchange; raises [Broken] (or a
   [Unix_error] from the connect) if the server does not answer. *)
let connect ?(timeout = 30.0) addr =
  let sock = Addr.socket_for addr in
  let c =
    try
      Unix.connect sock (Addr.to_sockaddr addr);
      Conn.create sock
    with e ->
      Unix.close sock;
      raise e
  in
  Conn.send c Wire.preamble;
  let deadline = now () +. timeout in
  let rec go () =
    ignore (Conn.flush c);
    match Conn.peek c Wire.preamble_len with
    | Some s ->
      Wire.check_preamble s;
      Conn.consume c Wire.preamble_len;
      c
    | None ->
      if now () > deadline then raise (Broken "no preamble from server");
      ignore (Unix.select [ sock ] [] [] 0.05);
      (match Conn.read_into c with
       | `Eof -> raise (Broken "server closed during handshake")
       | `Data _ | `Again -> ());
      go ()
  in
  try go ()
  with e ->
    Conn.close c;
    raise e

let flush_all conns =
  List.iter
    (fun c ->
      match Conn.flush c with
      | `Closed -> raise (Broken "server closed the connection")
      | `Flushed | `Blocked -> ())
    conns

(* Blocking request/response on one connection (the gate's calls). *)
let call ?(timeout = 120.0) c frame =
  Conn.send c frame;
  let deadline = now () +. timeout in
  let rec go () =
    flush_all [ c ];
    match Conn.next_frame ~max_len:Wire.max_frame_payload c with
    | Some r -> Wire.decode_response r
    | None ->
      let left = deadline -. now () in
      if left <= 0.0 then raise (Broken "timeout waiting for a response");
      let w = if Conn.pending_out c then [ Conn.fd c ] else [] in
      ignore (Unix.select [ Conn.fd c ] w [] (Float.min left 1.0));
      (match Conn.read_into c with
       | `Eof -> raise (Broken "server closed the connection")
       | `Data _ | `Again -> ());
      go ()
  in
  go ()

type result = {
  elapsed : float;  (* from start to the last ingest ack *)
  ingest_sent : int;  (* pool batches 0 .. ingest_sent-1 went out, in order *)
  acked_points : int;
  ingest_failed : int;
  ack_ms : float array;
  ack_at : float array;  (* when each of [ack_ms] arrived, seconds from start *)
  query_sent : int;
  query_failed : int;
  key_ms : float array;  (* Key batches, from due time *)
  key_at : float array;  (* their due times, seconds from start *)
  global_ms : float array;  (* Global batches, from due time *)
  global_at : float array;
  late_ms : float array;  (* how late each query batch left the generator *)
  behind : bool;
  conns : Conn.t * Conn.t;
}

let is_global qs = Array.exists (fun (s, _) -> s = Q.Global) qs

(* The loop shares its core with the system under test, so recording a
   result allocates nothing that outlives a minor collection (results go
   into preallocated or doubling float arrays): the driver's GC work stays
   flat over a run instead of growing into the server's share of the
   core. *)
type fbuf = { mutable data : Float.Array.t; mutable len : int }

let fbuf () = { data = Float.Array.create 4096; len = 0 }

let push b x =
  if b.len = Float.Array.length b.data then begin
    let d = Float.Array.create (2 * b.len) in
    Float.Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  Float.Array.set b.data b.len x;
  b.len <- b.len + 1

let contents b = Array.init b.len (Float.Array.get b.data)

let run ~entry ~(inputs : W.inputs) ~seconds =
  let ingest_frames = Array.map (fun g -> Wire.encode_request (Wire.Ingest g)) inputs.ingest in
  let ingest_points = Array.map W.points_in inputs.ingest in
  let query_frames = Array.map (fun q -> Wire.encode_request (Wire.Query q)) inputs.queries in
  let global = Array.map is_global inputs.queries in
  let pool = Array.length ingest_frames in
  let c0 = connect entry and c1 = connect entry in
  let t_start = now () +. 0.01 in
  let t_stop = t_start +. Float.of_int seconds in
  let ol = OL.create ~start:t_start ~offsets:inputs.schedule in
  (* At most one ingest is outstanding: its pool index (-1 for none) and
     send time.  Queries are answered in send order, so the oldest
     outstanding one is always [next_done]. *)
  let ingest_sent = ref 0 and outstanding = ref (-1) and sent_at = Float.Array.make 1 0.0 in
  let acked = ref 0 and ingest_failed = ref 0 and last_ack = Float.Array.make 1 t_start in
  let ack_ms = fbuf () and ack_at = fbuf () in
  let next_q = ref 0 and next_done = ref 0 and query_failed = ref 0 in
  let answered_ok = Array.make (OL.length ol) false in
  let broken = ref None in
  let on_ingest resp =
    let i = !outstanding in
    if i < 0 then raise (Broken "unsolicited ingest response");
    let t = now () in
    outstanding := -1;
    Float.Array.set last_ack 0 t;
    match resp with
    | Wire.Ack n ->
      acked := !acked + n;
      if n <> ingest_points.(i mod pool) then incr ingest_failed
      else begin
        push ack_ms ((t -. Float.Array.get sent_at 0) *. 1000.0);
        push ack_at (t -. t_start)
      end
    | _ -> incr ingest_failed
  in
  let on_query resp =
    let i = !next_done in
    if i >= !next_q then raise (Broken "unsolicited query response");
    incr next_done;
    OL.mark_completed ol i ~now:(now ());
    match resp with
    | Wire.Answers a when Array.length a = Array.length inputs.queries.(i) -> answered_ok.(i) <- true
    | _ -> incr query_failed
  in
  let drain c handle =
    let rec frames () =
      match Conn.next_frame ~max_len:Wire.max_frame_payload c with
      | Some r ->
        handle (Wire.decode_response r);
        frames ()
      | None -> ()
    in
    match Conn.read_into c with
    | `Eof -> raise (Broken "server closed the connection")
    | `Data _ | `Again -> frames ()
  in
  (try
     let finished = ref false in
     while not !finished do
       let t = now () in
       if t < t_stop && !outstanding < 0 then begin
         let i = !ingest_sent in
         Conn.send c0 ingest_frames.(i mod pool);
         outstanding := i;
         Float.Array.set sent_at 0 t;
         incr ingest_sent
       end;
       while !next_q < OL.length ol && OL.due ol !next_q <= t && OL.due ol !next_q < t_stop do
         Conn.send c1 query_frames.(!next_q);
         OL.mark_sent ol !next_q ~now:t;
         incr next_q
       done;
       flush_all [ c0; c1 ];
       if t >= t_stop && !outstanding < 0 && !next_done = !next_q then finished := true
       else if t > t_stop +. 60.0 then raise (Broken "responses outstanding 60 s after the run")
       else begin
         let next_due =
           if !next_q < OL.length ol && OL.due ol !next_q < t_stop then OL.due ol !next_q
           else if t < t_stop then t_stop
           else t +. 0.05
         in
         let timeout = Float.max 0.0 (Float.min 1.0 (next_due -. t)) in
         let wr = List.filter_map (fun c -> if Conn.pending_out c then Some (Conn.fd c) else None) [ c0; c1 ] in
         let rd, _, _ =
           try Unix.select [ Conn.fd c0; Conn.fd c1 ] wr [] timeout
           with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
         in
         if List.mem (Conn.fd c0) rd then drain c0 on_ingest;
         if List.mem (Conn.fd c1) rd then drain c1 on_query
       end
     done
   with Broken msg -> broken := Some msg);
  (match !broken with
   | None -> ()
   | Some msg ->
     Printf.printf "loadgen: run broken: %s\n%!" msg;
     if !outstanding >= 0 then incr ingest_failed;
     query_failed := !query_failed + (!next_q - !next_done));
  let key_ms = fbuf () and key_at = fbuf () and global_ms = fbuf () and global_at = fbuf () in
  Array.iteri
    (fun i ok ->
      if ok then begin
        let ms, at = if global.(i) then (global_ms, global_at) else (key_ms, key_at) in
        push ms (OL.latency ol i *. 1000.0);
        push at inputs.schedule.(i)
      end)
    answered_ok;
  {
    elapsed = Float.Array.get last_ack 0 -. t_start;
    ingest_sent = !ingest_sent;
    acked_points = !acked;
    ingest_failed = !ingest_failed;
    ack_ms = contents ack_ms;
    ack_at = contents ack_at;
    query_sent = !next_q;
    query_failed = !query_failed;
    key_ms = contents key_ms;
    key_at = contents key_at;
    global_ms = contents global_ms;
    global_at = contents global_at;
    late_ms = Array.map (fun x -> x *. 1000.0) (OL.lateness ol);
    behind = OL.behind ol;
    conns = (c0, c1);
  }

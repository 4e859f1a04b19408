(* The system under test as separate processes: [shist serve --listen]
   leaves restored from per-leaf checkpoints, plus [shist aggregate] in
   front of them when the workload has more than one leaf.

   Readiness is a completed wire handshake: a server counts as up once
   it has accepted a connection and answered the preamble, i.e. its
   serve loop is running.  Every child is registered so that an
   exception or an early exit still kills and reaps it. *)

module Addr = Sh_net.Addr
module Conn = Sh_net.Conn
module Client = Sh_net.Client
module W = Perfbench.Workload
module SE = Sh_par.Shard_engine
module Pool = Sh_par.Domain_pool

type proc = { pid : int; role : string; addr : Addr.t }

let live : proc list ref = ref []

let reap_blocking pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let kill_all () =
  List.iter
    (fun p ->
      (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap_blocking p.pid)
    !live;
  live := []

let () = at_exit kill_all

let spawn ~exe ~args ~log ~role ~addr =
  let out = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin out out in
  Unix.close out;
  let p = { pid; role; addr } in
  live := p :: !live;
  p

let exited pid =
  match Unix.waitpid [ WNOHANG ] pid with
  | 0, _ -> None
  | _, st -> Some st
  | exception Unix.Unix_error (ECHILD, _, _) -> Some (Unix.WEXITED 0)

(* One connect + preamble exchange; [true] once the peer answered. *)
let handshake addr =
  match Loadgen.connect ~timeout:5.0 addr with
  | c ->
    Conn.close c;
    true
  | exception (Unix.Unix_error _ | Loadgen.Broken _) -> false

(* Poll the process's endpoint until it completes a handshake; returns
   the clock at that moment.  Fails if the process exits first or the
   deadline passes. *)
let wait_ready p ~deadline =
  let rec go () =
    (match exited p.pid with
     | Some _ ->
       live := List.filter (fun q -> q.pid <> p.pid) !live;
       failwith (Printf.sprintf "%s exited before accepting connections" p.role)
     | None -> ());
    if handshake p.addr then Unix.gettimeofday ()
    else if Unix.gettimeofday () > deadline then
      failwith (Printf.sprintf "%s not ready before deadline" p.role)
    else begin
      (* Short polls: on root-global a launch takes about 20 ms, and each of
         its three servers is detected up to one poll late. *)
      Unix.sleepf 0.0005;
      go ()
    end
  in
  go ()

(* Peak resident set (VmHWM) of a live process, in KiB. *)
let vm_hwm_kb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> go ()
    | exception End_of_file -> failwith "VmHWM missing from /proc status"
  in
  go ()

type t = { leaves : proc array; root : proc option; entry : Addr.t; setup_s : float }

let all_procs t = Array.to_list t.leaves @ Option.to_list t.root

(* Launch the workload's system from its checkpoints and time it from
   the first fork until the last server completes a handshake. *)
let launch (w : W.t) ~shist ~dir ~ckpts =
  let sock name = Addr.Unix_sock (Filename.concat dir name) in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. 120.0 in
  let leaves =
    Array.init w.leaves (fun i ->
        let addr = sock (Printf.sprintf "leaf%d.sock" i) in
        spawn ~exe:shist ~role:(Printf.sprintf "leaf %d" i) ~addr
          ~log:(Filename.concat dir (Printf.sprintf "leaf%d.log" i))
          ~args:
            [
              "serve"; "--listen"; Addr.to_string addr; "--restore"; ckpts.(i); "--refresh";
              Printf.sprintf "every:%d" w.every; "--domains"; "1"; "--idle-timeout"; "120";
            ])
  in
  Array.iter (fun p -> ignore (wait_ready p ~deadline)) leaves;
  let root =
    if w.leaves = 1 then None
    else begin
      let addr = sock "root.sock" in
      let args =
        [ "aggregate"; "--listen"; Addr.to_string addr; "--idle-timeout"; "120"; "--timeout"; "60" ]
        @ List.concat_map (fun p -> [ "--connect"; Addr.to_string p.addr ]) (Array.to_list leaves)
      in
      Some (spawn ~exe:shist ~role:"root" ~addr ~log:(Filename.concat dir "root.log") ~args)
    end
  in
  let ready = match root with Some r -> wait_ready r ~deadline | None -> Unix.gettimeofday () in
  let entry = match root with Some r -> r.addr | None -> leaves.(0).addr in
  { leaves; root; entry; setup_s = ready -. t0 }

let rss_mb t =
  List.fold_left (fun acc p -> acc +. (Float.of_int (vm_hwm_kb p.pid) /. 1024.0)) 0.0 (all_procs t)

(* Ask every server to shut down (root first, so it drops its leaf
   connections), wait for each to exit, and kill whatever lingers. *)
let stop t =
  let procs = Option.to_list t.root @ Array.to_list t.leaves in
  List.iter
    (fun p ->
      try
        let c = Client.connect ~timeout:10.0 p.addr in
        (try Client.shutdown c with _ -> ());
        Client.close c
      with _ -> ())
    procs;
  let deadline = Unix.gettimeofday () +. 15.0 in
  List.iter
    (fun p ->
      let rec wait () =
        match exited p.pid with
        | Some _ -> ()
        | None when Unix.gettimeofday () > deadline ->
          (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap_blocking p.pid
        | None ->
          Unix.sleepf 0.01;
          wait ()
      in
      wait ();
      live := List.filter (fun q -> q.pid <> p.pid) !live)
    procs

(* One checkpoint per leaf: every key's full starting window, refreshed,
   then the key's {!W.phase} further points. *)
let write_checkpoints (inputs : W.inputs) ~dir =
  let w = inputs.workload in
  Pool.with_pool ~domains:1 @@ fun pool ->
  Array.init w.leaves (fun l ->
      let eng =
        SE.create ~pool ~shards:w.keys_per_leaf ~window:w.window ~buckets:w.buckets
          ~epsilon:w.epsilon
      in
      let part f =
        Array.init w.keys_per_leaf (fun k ->
            let g = (l * w.keys_per_leaf) + k in
            (k, f inputs.initial.(g)))
      in
      SE.ingest_groups eng (part (fun a -> Array.sub a 0 w.window));
      SE.refresh_all eng;
      SE.ingest_groups eng (part (fun a -> Array.sub a w.window (Array.length a - w.window)));
      let file = Filename.concat dir (Printf.sprintf "leaf%d.ckpt" l) in
      SE.checkpoint eng ~file;
      file)

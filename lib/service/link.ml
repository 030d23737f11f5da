(* The service's one connection layer: the framing/liveness channel the
   protocol machines embed, then the only code in lib/service that
   touches descriptors, the wall clock or signal handlers. *)

module Framed = Perple_util.Framed
module Metrics = Perple_util.Metrics
module Supervisor = Perple_harness.Supervisor

(* --- framing and liveness -------------------------------------------------- *)

type config = { heartbeat_every : int; liveness_timeout : int }

let default_config = { heartbeat_every = 1_000; liveness_timeout = 10_000 }

type channel = {
  config : config;
  inbound : Framed.buf;
  outbound : Framed.buf;
  frames_in : string;
  frames_out : string;
  mutable last_seen : int;  (** Clock of the most recent inbound bytes. *)
  mutable last_beat : int;  (** Clock of our most recent heartbeat. *)
}

let channel ?(config = default_config) ~metrics ~now () =
  { config; inbound = Framed.create (); outbound = Framed.create ();
    frames_in = metrics ^ ".frames_in"; frames_out = metrics ^ ".frames_out";
    last_seen = now; last_beat = now }

let send ch frame =
  Framed.add_string ch.outbound (Wire.encode frame);
  Metrics.incr ch.frames_out

let output ch = ch.outbound
let silence ch ~now = now - ch.last_seen

let receive ch ~now ~live ~corrupt ~frame bytes =
  if live () then begin
    if String.length bytes > 0 then ch.last_seen <- now;
    Framed.add_string ch.inbound bytes;
    let rec drain () =
      if live () then
        match Wire.next_frame ch.inbound with
        | `Need_more -> ()
        | `Corrupt reason -> corrupt reason
        | `Frame f ->
          Metrics.incr ch.frames_in;
          frame f;
          drain ()
    in
    drain ()
  end

let beat ch ~now =
  let quiet = silence ch ~now in
  if quiet >= ch.config.liveness_timeout then
    `Timed_out (Printf.sprintf "no traffic in %d ticks" quiet)
  else if now - ch.last_beat >= ch.config.heartbeat_every then begin
    ch.last_beat <- now;
    send ch (Wire.Heartbeat { sent_at = now });
    `Beat
  end
  else `Quiet

(* --- clock and signals ----------------------------------------------------- *)

let epoch = Unix.gettimeofday ()
let now () = int_of_float ((Unix.gettimeofday () -. epoch) *. 1000.)

type stop = { mutable signal : int option }

let stop_signal s = s.signal

let with_signals ~catch_stop f =
  let stop = { signal = None } in
  let note = Sys.Signal_handle (fun s -> stop.signal <- Some s) in
  let wanted =
    (Sys.sigpipe, Sys.Signal_ignore)
    :: (if catch_stop then [ (Sys.sigint, note); (Sys.sigterm, note) ] else [])
  in
  let saved = List.map (fun (s, b) -> (s, Sys.signal s b)) wanted in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (s, b) -> Sys.set_signal s b) saved)
    (fun () -> f stop)

(* The one blocking call.  Unlike [Unix.sleepf], [select] returns when a
   signal arrives, so a stop is seen without waiting out the timeout. *)
let wait readers writers timeout =
  match Unix.select readers writers [] timeout with
  | readable, writable, _ -> (readable, writable)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])

(* Short slices bound the wait for a signal that lands between the flag
   check and the [select]. *)
let sleep ~stop ms =
  let until = now () + ms in
  while stop.signal = None && now () < until do
    let left = float_of_int (until - now ()) /. 1000. in
    ignore (wait [] [] (Float.min 0.05 left))
  done

(* --- sockets --------------------------------------------------------------- *)

type address = [ `Unix_socket of string | `Tcp of int ]

let sockaddr = function
  | `Unix_socket path -> Unix.ADDR_UNIX path
  | `Tcp port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* [f] connects, or binds and listens; the socket is closed if it fails. *)
let open_socket address f =
  let addr = sockaddr address in
  match Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd -> (
    match f fd addr with
    | () ->
      Unix.set_nonblock fd;
      Ok fd
    | exception Unix.Unix_error (e, _, _) ->
      close_fd fd;
      Error (Unix.error_message e))

let connect address =
  Result.map_error (( ^ ) "connect: ") (open_socket address Unix.connect)

type listener = { path : string; fds : Unix.file_descr list }

let bind_listen what address =
  Result.map_error (Printf.sprintf "%s: %s" what)
  @@ open_socket address
  @@ fun fd addr ->
  (match address with
  | `Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | `Unix_socket _ -> ());
  Unix.bind fd addr;
  Unix.listen fd 64

let unlisten l =
  List.iter close_fd l.fds;
  try Sys.remove l.path with Sys_error _ -> ()

let listen ~socket ?tcp_port () =
  let ( let* ) = Result.bind in
  (* A socket file can be a live daemon or the debris of a dead one; only
     a connection attempt can tell which. *)
  let* () =
    match connect (`Unix_socket socket) with
    | Ok probe ->
      close_fd probe;
      Error (Printf.sprintf "socket %s: a daemon is already listening" socket)
    | Error _ -> Ok (try Sys.remove socket with Sys_error _ -> ())
  in
  let* unix_fd = bind_listen ("socket " ^ socket) (`Unix_socket socket) in
  let l = { path = socket; fds = [ unix_fd ] } in
  match tcp_port with
  | None -> Ok l
  | Some port -> (
    match bind_listen (Printf.sprintf "tcp port %d" port) (`Tcp port) with
    | Ok tcp_fd -> Ok { l with fds = [ unix_fd; tcp_fd ] }
    | Error _ as e ->
      unlisten l;
      e)

(* --- the pump -------------------------------------------------------------- *)

(* [stage] collects raw reads for the core; [out] holds core output until
   the socket accepts it. *)
type conn = { fd : Unix.file_descr; stage : Framed.buf; out : Framed.buf }

type pump = {
  connect : now:int -> int;
  input : conn:int -> now:int -> string -> unit;
  eof : conn:int -> now:int -> unit;
  tick : now:int -> unit;
  flush : conn:int -> string;
  closed : conn:int -> bool;
  busy : unit -> bool;
  conns : (int, conn) Hashtbl.t;
  mutable listening : Unix.file_descr list;
  mutable resting : bool;  (** Out of descriptors: listeners not polled. *)
}

(* Bytes the core queued on connecting (a hello) are taken at once, so
   the first wait already watches for writability. *)
let adopt p fd =
  let id = p.connect ~now:(now ()) and out = Framed.create () in
  Framed.add_string out (p.flush ~conn:id);
  Hashtbl.replace p.conns id { fd; stage = Framed.create (); out }

let accept p lfd =
  match Unix.accept ~cloexec:true lfd with
  | fd, _ ->
    Unix.set_nonblock fd;
    adopt p fd
  | exception
      Unix.Unix_error (Unix.(EAGAIN | EWOULDBLOCK | EINTR | ECONNABORTED), _, _)
    ->
    ()
  | exception Unix.Unix_error _ ->
    (* EMFILE and kin: the connection stays queued in the backlog, and
       polling the listener before a descriptor frees up would spin. *)
    Metrics.incr "service.accept_errors";
    p.resting <- true

let turn p =
  let listening = if p.resting then [] else p.listening in
  let fds, writers =
    Hashtbl.fold
      (fun _ c (fds, ws) ->
        (c.fd :: fds, if Framed.is_empty c.out then ws else c.fd :: ws))
      p.conns (listening, [])
  in
  let readable, writable = wait fds writers (if p.busy () then 0. else 0.05) in
  if readable = [] && writable = [] then p.resting <- false;
  List.iter (fun l -> if List.mem l readable then accept p l) listening;
  let at = now () in
  Hashtbl.iter
    (fun id c ->
      if List.mem c.fd readable then
        match Framed.read_into c.fd c.stage with
        | `Read _ -> p.input ~conn:id ~now:at (Framed.take_all c.stage)
        | `Would_block -> ()
        | `Closed | `Error _ -> p.eof ~conn:id ~now:at)
    p.conns;
  p.tick ~now:(now ());
  Hashtbl.filter_map_inplace
    (fun id c ->
      Framed.add_string c.out (p.flush ~conn:id);
      (match Framed.write_from c.fd c.out with
      | `Wrote _ | `Would_block -> ()
      | `Closed | `Error _ ->
        p.eof ~conn:id ~now:(now ());
        Framed.consume c.out (Framed.length c.out));
      if p.closed ~conn:id && Framed.is_empty c.out then begin
        close_fd c.fd;
        p.resting <- false;
        None
      end
      else Some c)
    p.conns

(* Every descriptor is closed (and the socket file removed) on return. *)
let run ?listener ~connect ~input ~eof ~tick ~flush ~closed ~busy body =
  let p =
    { connect; input; eof; tick; flush; closed; busy; resting = false;
      listening = Option.fold listener ~none:[] ~some:(fun l -> l.fds);
      conns = Hashtbl.create 8 }
  in
  Fun.protect
    ~finally:(fun () ->
      Hashtbl.iter (fun _ c -> close_fd c.fd) p.conns;
      Option.iter unlisten listener)
    (fun () -> body p)

let rec turn_until p until = if not (until ()) then (turn p; turn_until p until)

let serve listener ~connect ~input ~eof ~tick ~flush ~closed ~busy ~drain =
  with_signals ~catch_stop:true @@ fun stop ->
  run ~listener ~connect ~input ~eof ~tick ~flush ~closed ~busy @@ fun p ->
  turn_until p (fun () -> stop.signal <> None);
  drain ~now:(now ());
  p.listening <- [];
  let deadline = now () + 2_000 in
  turn_until p (fun () -> Hashtbl.length p.conns = 0 || now () >= deadline);
  Option.get stop.signal

let drive ~stop fd ~input ~eof ~tick ~output ~finished ~busy =
  run ~connect:(fun ~now:_ -> 0) ~input:(fun ~conn:_ -> input)
    ~eof:(fun ~conn:_ -> eof) ~tick
    ~flush:(fun ~conn:_ -> Framed.take_all output)
    ~closed:(fun ~conn:_ -> finished ()) ~busy
  @@ fun p ->
  adopt p fd;
  turn_until p (fun () -> Hashtbl.length p.conns = 0 || stop.signal <> None)

(* --- reconnecting ---------------------------------------------------------- *)

type 'a attempt =
  | Finished of 'a
  | Lost of { reason : string; worked : bool; retry_after : int option }

let retryable reason =
  (* Transport loss and draining daemons are transient; everything the
     daemon said "no" to is a verdict. *)
  List.exists
    (fun prefix -> String.starts_with ~prefix reason)
    [ "disconnected"; "timed out"; "corrupt stream"; "draining"; "connect:"; "busy" ]

let reconnect address ~attempts ~backoff ~initial_delay_ms ~stop ~on_retry
    attempt =
  (* The supervisor's budget-growth rounding for the sleeps: one
     discipline for "try again, less eagerly" across the repo. *)
  let policy =
    { Supervisor.watchdog_rounds = max_int; min_retired = 1;
      max_retries = attempts - 1; backoff }
  in
  let rec go tries delay_ms =
    let outcome =
      match connect address with
      | Ok fd -> attempt fd
      | Error reason -> Lost { reason; worked = false; retry_after = None }
    in
    match outcome with
    | Finished v -> Ok v
    | Lost { reason; worked; retry_after } ->
      (* Progress on the last connection refills the budget: only
         [attempts] consecutive fruitless connections give up (a
         restarting peer is fine; a gone one is not). *)
      let tries, delay_ms =
        if worked then (0, initial_delay_ms) else (tries, delay_ms)
      in
      if stop.signal = None && tries + 1 < attempts && retryable reason then begin
        (* A [Busy] daemon knows its own refill schedule better than our
           exponential guess: sleep at least what it asked for. *)
        let delay_ms = max delay_ms (Option.value retry_after ~default:0) in
        on_retry reason delay_ms;
        sleep ~stop delay_ms;
        if stop.signal = None then
          go (tries + 1) (Supervisor.backed_off policy delay_ms)
        else Error reason
      end
      else Error reason
  in
  go 0 initial_delay_ms

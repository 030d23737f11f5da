(* Daemon-side session state machine.  Pure protocol discipline over
   virtual time; all I/O and scheduling lives in the driver. *)

module Metrics = Perple_util.Metrics
module Trace = Perple_util.Trace_event

type config = {
  heartbeat_every : int;
  liveness_timeout : int;
  max_outbound : int;
  submit_burst : int;
  submit_refill_every : int;
}

let default_config =
  { heartbeat_every = 1_000; liveness_timeout = 10_000;
    max_outbound = 4 * 1024 * 1024; submit_burst = 8;
    submit_refill_every = 250 }

type terminal =
  | Completed
  | Quarantined of string
  | Timed_out
  | Disconnected

let terminal_name = function
  | Completed -> "completed"
  | Quarantined _ -> "quarantined"
  | Timed_out -> "timed-out"
  | Disconnected -> "disconnected"

type event =
  | Hello_received of string
  | Submitted of Wire.spec
  | Cancel_requested of string
  | Worker_joined of string
  | Lease_renewed of { campaign : string; shard : int; epoch : int }
  | Shard_done of {
      campaign : string;
      shard : int;
      epoch : int;
      records : (int * string) list;
    }
  | Shard_faulted of { campaign : string; shard : int; epoch : int; reason : string }
  | Terminated of terminal

type state = Expect_hello | Active | Closed of terminal

type t = {
  sid : int;
  config : config;
  channel : Link.channel;
  mutable state : state;
  mutable role : [ `Client | `Worker ];
  mutable missed_marked : bool;
      (** One "heartbeats missed" tick per silent stretch, not per tick. *)
  mutable tokens : int;  (** Submit tokens left in this refill window. *)
  mutable refill_at : int;  (** Clock of the next token grant. *)
  span_start : float;  (** Wall-clock trace anchor; observation only. *)
}

let create ?(config = default_config) ~id ~now () =
  Metrics.incr "service.sessions_opened";
  {
    sid = id;
    config;
    channel =
      Link.channel
        ~config:
          { Link.heartbeat_every = config.heartbeat_every;
            liveness_timeout = config.liveness_timeout }
        ~metrics:"service" ~now ();
    state = Expect_hello;
    role = `Client;
    missed_marked = false;
    tokens = config.submit_burst;
    refill_at = now + config.submit_refill_every;
    span_start = Trace.now ();
  }

let id t = t.sid
let role t = t.role

let role_name t = match t.role with `Client -> "client" | `Worker -> "worker"

(* The bucket refills one token per [submit_refill_every] ticks up to
   [submit_burst]; while full, the next grant is re-anchored to [now] so
   an idle connection never banks more than one burst. *)
let refill t ~now =
  if t.tokens >= t.config.submit_burst then
    t.refill_at <- now + t.config.submit_refill_every
  else
    while t.tokens < t.config.submit_burst && now >= t.refill_at do
      t.tokens <- t.tokens + 1;
      t.refill_at <-
        (if t.tokens < t.config.submit_burst then
           t.refill_at + t.config.submit_refill_every
         else now + t.config.submit_refill_every)
    done

let terminal t = match t.state with Closed c -> Some c | _ -> None
let active t = t.state = Active

let send t frame =
  match t.state with
  | Closed _ -> `Ok (* dropped: the peer is gone or being flushed out *)
  | Expect_hello | Active ->
    if
      Perple_util.Framed.length (Link.output t.channel)
      + String.length (Wire.encode frame)
      > t.config.max_outbound
    then begin
      Metrics.incr "service.backpressure_stalls";
      `Overflow
    end
    else begin
      Link.send t.channel frame;
      `Ok
    end

let send_control t frame = Link.send t.channel frame

let close t reason =
  match t.state with
  | Closed _ -> []
  | _ ->
    t.state <- Closed reason;
    Metrics.incr
      (match reason with
      | Completed -> "service.sessions_completed"
      | Quarantined _ -> "service.sessions_quarantined"
      | Timed_out -> "service.sessions_timed_out"
      | Disconnected -> "service.sessions_disconnected");
    Trace.complete ~name:"service.session" ~since:t.span_start
      ~args:
        [
          ("id", Trace.Int t.sid);
          ("terminal", Trace.String (terminal_name reason));
        ]
      ();
    [ Terminated reason ]

let quarantine t reason =
  (* Tell the peer why, then stop listening to it.  The Error frame
     bypasses backpressure: a session must always be able to explain its
     own death. *)
  send_control t (Wire.Error { code = Wire.Protocol; message = reason });
  close t (Quarantined reason)

let client_only t frame =
  quarantine t
    (Printf.sprintf "client-only frame %s from worker" (Wire.frame_name frame))

let worker_only t frame =
  quarantine t
    (Printf.sprintf "worker-only frame %s from client" (Wire.frame_name frame))

let on_frame t ~now frame =
  match (t.state, frame) with
  | Closed _, _ -> []
  | Expect_hello, Wire.Hello { version; peer } ->
    if version <> Wire.protocol_version then
      quarantine t
        (Printf.sprintf "unsupported protocol version %d (want %d)" version
           Wire.protocol_version)
    else begin
      t.state <- Active;
      send_control t (Wire.Hello { version = Wire.protocol_version; peer = "perpled" });
      [ Hello_received peer ]
    end
  | Expect_hello, Wire.Worker_hello { version; worker } ->
    if version <> Wire.protocol_version then
      quarantine t
        (Printf.sprintf "unsupported protocol version %d (want %d)" version
           Wire.protocol_version)
    else begin
      t.state <- Active;
      t.role <- `Worker;
      send_control t (Wire.Hello { version = Wire.protocol_version; peer = "perpled" });
      Metrics.incr "service.workers_joined";
      [ Worker_joined worker ]
    end
  | Expect_hello, f ->
    quarantine t (Printf.sprintf "expected hello, got %s" (Wire.frame_name f))
  | Active, (Wire.Hello _ | Wire.Worker_hello _) -> quarantine t "duplicate hello"
  | Active, Wire.Submit spec ->
    if t.role = `Worker then client_only t frame
    else if t.tokens > 0 then begin
      t.tokens <- t.tokens - 1;
      [ Submitted spec ]
    end
    else begin
      (* Declined, not quarantined: a chatty client is throttled with a
         concrete retry hint and keeps its session. *)
      Metrics.incr "service.submits_throttled";
      send_control t (Wire.Busy { retry_after = max 1 (t.refill_at - now) });
      []
    end
  | Active, Wire.Cancel { campaign } ->
    if t.role = `Worker then client_only t frame else [ Cancel_requested campaign ]
  | Active, Wire.Lease_renew { campaign; shard; epoch; sent_at = _ } ->
    if t.role = `Client then worker_only t frame
    else [ Lease_renewed { campaign; shard; epoch } ]
  | Active, Wire.Shard_result { campaign; shard; epoch; records } ->
    if t.role = `Client then worker_only t frame
    else [ Shard_done { campaign; shard; epoch; records } ]
  | Active, Wire.Shard_failed { campaign; shard; epoch; reason } ->
    if t.role = `Client then worker_only t frame
    else [ Shard_faulted { campaign; shard; epoch; reason } ]
  | Active, Wire.Heartbeat _ -> []
  | Active, Wire.Drain -> close t Completed
  | ( Active,
      ( Wire.Accepted _ | Wire.Run_record _ | Wire.Metrics_chunk _ | Wire.Error _
      | Wire.Lease _ | Wire.Revoke _ | Wire.Busy _ | Wire.Progress _ ) ) ->
    quarantine t
      (Printf.sprintf "server-only frame %s from %s" (Wire.frame_name frame)
         (role_name t))

let feed t ~now bytes =
  match t.state with
  | Closed _ -> [] (* quarantined or gone: input is discarded *)
  | _ ->
    if String.length bytes > 0 then t.missed_marked <- false;
    refill t ~now;
    let events = ref [] in
    let surface more = events := !events @ more in
    Link.receive t.channel ~now bytes
      ~live:(fun () -> terminal t = None)
      ~corrupt:(fun reason ->
        surface (quarantine t (Printf.sprintf "corrupt frame: %s" reason)))
      ~frame:(fun f -> surface (on_frame t ~now f));
    !events

let eof t ~now =
  ignore now;
  match t.state with Closed _ -> [] | _ -> close t Disconnected

let tick t ~now =
  match t.state with
  | Closed _ -> []
  | _ -> (
    refill t ~now;
    match Link.beat t.channel ~now with
    | `Timed_out message ->
      send_control t (Wire.Error { code = Wire.Timeout; message });
      close t Timed_out
    | `Beat | `Quiet ->
      if
        Link.silence t.channel ~now >= 2 * t.config.heartbeat_every
        && not t.missed_marked
      then begin
        (* The peer owes us a heartbeat and hasn't sent one (or any other
           traffic) for two periods; count the silence once. *)
        Metrics.incr "service.heartbeats_missed";
        t.missed_marked <- true
      end;
      [])

let output t = Link.output t.channel

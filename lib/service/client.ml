(* The client half of the protocol, sans-IO first (so the chaos suite
   can drive thousands of schedules without a socket), then the
   reconnecting submitter the CLI uses. *)

module Metrics = Perple_util.Metrics

type config = Link.config = { heartbeat_every : int; liveness_timeout : int }

let default_config = Link.default_config

type outcome = {
  digest : string;
  completed_at_accept : int;
  records : string list;
  metrics : string;
}

type progress = {
  runs_total : int;
  runs_done : int;
  shards_done : int;
  shards_leased : int;
  shards_failed : int;
}

type status = Pending | Done of outcome | Failed of string

type phase =
  | Awaiting_hello
  | Awaiting_accept
  | Streaming of {
      digest : string;
      completed_at_accept : int;
      total : int;
      mutable got : string list;  (** Reverse index order. *)
      mutable next : int;
    }
  | Terminal of status

type t = {
  spec : Wire.spec;
  on_progress : (progress -> unit) option;
  channel : Link.channel;
  mutable phase : phase;
  mutable progress : progress option;
  mutable retry_hint : int option;
      (** Ticks the daemon asked us to wait ([Busy]) before retrying. *)
}

let create ?config ?(peer = "perple-client") ?on_progress ~spec ~now () =
  let t =
    {
      spec;
      on_progress;
      channel = Link.channel ?config ~metrics:"service.client" ~now ();
      phase = Awaiting_hello;
      progress = None;
      retry_hint = None;
    }
  in
  Link.send t.channel (Wire.Hello { version = Wire.protocol_version; peer });
  t

let output t = Link.output t.channel
let status t = match t.phase with Terminal s -> s | _ -> Pending
let pending t = match t.phase with Terminal _ -> false | _ -> true
let progress t = t.progress

let fail t reason =
  match t.phase with
  | Terminal _ -> ()
  | _ ->
    Metrics.incr "service.client.failures";
    t.phase <- Terminal (Failed reason)

let finish t outcome =
  Link.send t.channel Wire.Drain;
  Metrics.incr "service.client.completed";
  t.phase <- Terminal (Done outcome)

let on_frame t frame =
  match frame with
  | Wire.Heartbeat _ -> ()
  | Wire.Error { code; message } ->
    fail t (Printf.sprintf "%s: %s" (Wire.error_code_name code) message)
  | Wire.Hello { version; _ } -> (
    match t.phase with
    | Awaiting_hello ->
      if version <> Wire.protocol_version then
        fail t
          (Printf.sprintf "protocol: daemon speaks version %d, want %d"
             version Wire.protocol_version)
      else begin
        t.phase <- Awaiting_accept;
        Link.send t.channel (Wire.Submit t.spec)
      end
    | _ -> fail t "protocol: unexpected hello")
  | Wire.Accepted { campaign; digest; runs; completed } -> (
    match t.phase with
    | Awaiting_accept ->
      if campaign <> t.spec.Wire.campaign then
        fail t (Printf.sprintf "protocol: accepted foreign campaign %S" campaign)
      else if runs <> t.spec.Wire.runs then
        fail t
          (Printf.sprintf "protocol: accepted %d runs, submitted %d" runs
             t.spec.Wire.runs)
      else
        t.phase <-
          Streaming
            { digest; completed_at_accept = completed; total = runs;
              got = []; next = 0 }
    | _ -> fail t "protocol: unexpected accepted frame")
  | Wire.Run_record { campaign; index; record } -> (
    match t.phase with
    | Streaming s ->
      if campaign <> t.spec.Wire.campaign then
        fail t (Printf.sprintf "protocol: record for foreign campaign %S" campaign)
      else if index <> s.next then
        (* The stream contract is strict index order; a gap means the
           transport or daemon lost data. *)
        fail t
          (Printf.sprintf "protocol: record %d arrived, expected %d" index
             s.next)
      else begin
        s.got <- record :: s.got;
        s.next <- s.next + 1
      end
    | _ -> fail t "protocol: record before accept")
  | Wire.Metrics_chunk { campaign; payload } -> (
    match t.phase with
    | Streaming s ->
      if campaign <> t.spec.Wire.campaign then
        fail t (Printf.sprintf "protocol: metrics for foreign campaign %S" campaign)
      else if s.next <> s.total then
        fail t
          (Printf.sprintf
             "protocol: metrics chunk after %d of %d records" s.next s.total)
      else
        finish t
          {
            digest = s.digest;
            completed_at_accept = s.completed_at_accept;
            records = List.rev s.got;
            metrics = payload;
          }
    | _ -> fail t "protocol: metrics before accept")
  | Wire.Busy { retry_after } ->
    (* Rate-limited: a retryable verdict carrying the daemon's own
       back-off hint, honoured by [submit_blocking]. *)
    t.retry_hint <- Some retry_after;
    fail t (Printf.sprintf "busy: daemon asked for %d ticks of backoff" retry_after)
  | Wire.Progress p -> (
    match t.phase with
    | Awaiting_accept | Streaming _ ->
      if p.campaign <> t.spec.Wire.campaign then
        fail t
          (Printf.sprintf "protocol: progress for foreign campaign %S" p.campaign)
      else begin
        let progress =
          {
            runs_total = p.runs_total;
            runs_done = p.runs_done;
            shards_done = p.shards_done;
            shards_leased = p.shards_leased;
            shards_failed = p.shards_failed;
          }
        in
        t.progress <- Some progress;
        match t.on_progress with None -> () | Some f -> f progress
      end
    | _ -> fail t "protocol: progress before handshake")
  | Wire.Submit _ | Wire.Cancel _ | Wire.Drain ->
    fail t
      (Printf.sprintf "protocol: client-only frame %s from daemon"
         (Wire.frame_name frame))
  | Wire.Worker_hello _ | Wire.Lease_renew _ | Wire.Shard_result _
  | Wire.Shard_failed _ | Wire.Lease _ | Wire.Revoke _ ->
    fail t
      (Printf.sprintf "protocol: worker frame %s on a client connection"
         (Wire.frame_name frame))

let input t ~now bytes =
  Link.receive t.channel ~now bytes
    ~live:(fun () -> pending t)
    ~corrupt:(fun m -> fail t (Printf.sprintf "corrupt stream: %s" m))
    ~frame:(on_frame t)

let eof t ~now:_ = fail t "disconnected"

let tick t ~now =
  if pending t then
    match Link.beat t.channel ~now with
    | `Timed_out m -> fail t ("timed out: " ^ m)
    | `Beat | `Quiet -> ()

let retryable = Link.retryable

(* --- blocking driver -------------------------------------------------------- *)

let submit_blocking ~socket ?(attempts = 5) ?(backoff = 2.0)
    ?(initial_delay_ms = 50) ?on_progress ~spec () =
  if attempts < 1 then invalid_arg "Client.submit_blocking: attempts < 1";
  (* The default SIGINT/SIGTERM still end a submit: nothing to drain. *)
  Link.with_signals ~catch_stop:false @@ fun stop ->
  Link.reconnect (`Unix_socket socket) ~attempts ~backoff ~initial_delay_ms
    ~stop ~on_retry:(fun _ _ -> Metrics.incr "service.client.retries")
  @@ fun fd ->
  let t = create ?on_progress ~spec ~now:(Link.now ()) () in
  (* The pump closes the socket once the machine is terminal and its last
     bytes (the [Drain]) are written. *)
  Link.drive ~stop fd ~input:(input t) ~eof:(eof t) ~tick:(tick t)
    ~output:(output t) ~finished:(fun () -> not (pending t))
    ~busy:(fun () -> false);
  match status t with
  | Done outcome -> Link.Finished outcome
  | Failed reason ->
    Link.Lost { reason; worked = false; retry_after = t.retry_hint }
  | Pending -> assert false (* [drive] returns once the machine is done *)

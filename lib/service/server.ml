(* Daemon core (sans-IO) and its driver.

   The core never blocks and never touches a socket: connections are
   integer ids, time is an integer the driver advances, and all bytes
   move through explicit [input]/[flush] calls.  [serve] hands the core
   to [Link.serve], whose pump only accepts, reads, ticks, writes and
   closes, so everything the chaos suite exercises is exactly what
   production runs. *)

module Framed = Perple_util.Framed
module Metrics = Perple_util.Metrics
module Trace = Perple_util.Trace_event

(* One subscription: a client waiting for a campaign's stream.  [cursor]
   is the next run index to send; records below it have been queued and
   therefore (journal-before-stream) are on disk. *)
type sub = {
  campaign : string;
  mutable cursor : int;
  mutable metrics_sent : bool;
  mutable last_progress : (int * int * int * int) option;
      (** (runs done, shards done/leased/failed) last pushed, so
          progress frames only flow when something moved. *)
}

type conn = {
  cid : int;
  session : Session.t;
  mutable subs : sub list;  (** In subscription order. *)
}

type t = {
  scheduler : Scheduler.t;
  coordinator : Coordinator.t;
  session_config : Session.config;
  conns : (int, conn) Hashtbl.t;
  mutable next_id : int;
  mutable draining : bool;
}

(* One in-process worker turn runs one shard on the [--jobs]-wide pool,
   so a shard is never narrower than the pool. *)
let default_coordinator_config ~jobs =
  { Coordinator.default_config with
    shard_runs = max Coordinator.default_config.shard_runs jobs }

let create ?(session_config = Session.default_config) ?coordinator ~scheduler
    () =
  let coordinator =
    match coordinator with
    | Some co -> co
    | None -> (
      let config =
        default_coordinator_config ~jobs:(Scheduler.jobs scheduler)
      in
      match Coordinator.create ~config ~scheduler () with
      | Ok co -> co
      | Error m -> invalid_arg ("Server.create: " ^ m))
  in
  {
    scheduler;
    coordinator;
    session_config;
    conns = Hashtbl.create 8;
    next_id = 0;
    draining = false;
  }

let conn t id = Hashtbl.find_opt t.conns id

let connections t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.conns [] |> List.sort compare

let draining t = t.draining

(* --- streaming ------------------------------------------------------------- *)

(* Push whatever the subscription is owed, stopping at the first
   [`Overflow] — the cursor only advances on accepted sends, so
   backpressure is just "try again next tick". *)
let advance_sub t c sub =
  let s = t.scheduler in
  let campaign = sub.campaign in
  match Scheduler.runs s ~campaign with
  | None -> true (* campaign vanished: impossible, but drop the sub *)
  | Some runs ->
    let rec push () =
      if Scheduler.is_cancelled s ~campaign then begin
        Session.send_control c.session
          (Wire.Error { code = Wire.Cancelled; message = campaign });
        true
      end
      else if sub.cursor < runs then
        match Scheduler.record s ~campaign ~index:sub.cursor with
        | None -> false (* not executed yet *)
        | Some line -> (
          match
            Session.send c.session
              (Wire.Run_record { campaign; index = sub.cursor; record = line })
          with
          | `Overflow -> false
          | `Ok ->
            sub.cursor <- sub.cursor + 1;
            Metrics.incr "service.records_streamed";
            push ())
      else if not sub.metrics_sent then
        match Scheduler.metrics_payload s ~campaign with
        | None -> false
        | Some payload -> (
          match
            Session.send c.session (Wire.Metrics_chunk { campaign; payload })
          with
          | `Overflow -> false
          | `Ok ->
            sub.metrics_sent <- true;
            true)
      else true
    in
    push ()

(* Advisory campaign progress: pushed whenever the counts moved, skipped
   under backpressure (the next tick retries), never required for
   completion. *)
let push_progress t c sub =
  match Scheduler.runs t.scheduler ~campaign:sub.campaign with
  | None -> ()
  | Some runs ->
    let runs_done = Scheduler.completed t.scheduler ~campaign:sub.campaign in
    let shards_done, shards_leased, shards_failed =
      Coordinator.shard_counts t.coordinator ~campaign:sub.campaign
    in
    let key = (runs_done, shards_done, shards_leased, shards_failed) in
    if sub.last_progress <> Some key then
      match
        Session.send c.session
          (Wire.Progress
             { campaign = sub.campaign; runs_total = runs; runs_done;
               shards_done; shards_leased; shards_failed })
      with
      | `Ok ->
        sub.last_progress <- Some key;
        Metrics.incr "service.progress_streamed"
      | `Overflow -> ()

let advance_conn t c =
  if Session.active c.session then begin
    List.iter (fun sub -> push_progress t c sub) c.subs;
    c.subs <- List.filter (fun sub -> not (advance_sub t c sub)) c.subs
  end

(* --- session events -------------------------------------------------------- *)

let dispatch t commands =
  List.iter
    (fun { Coordinator.target; frame } ->
      match conn t target with
      | None -> () (* worker vanished between decision and delivery *)
      | Some c -> Session.send_control c.session frame)
    commands

let on_event t c ~now =
  let co = t.coordinator in
  function
  | Session.Hello_received _ -> ()
  | Session.Terminated _ ->
    (* Harmless for plain clients: the coordinator only knows worker
       ids, so this is a no-op unless a lease-holder just died. *)
    Coordinator.remove_worker co ~id:c.cid ~now
  | Session.Worker_joined name -> Coordinator.add_worker co ~id:c.cid ~name
  | Session.Lease_renewed { campaign; shard; epoch } ->
    dispatch t (Coordinator.renew co ~worker:c.cid ~campaign ~shard ~epoch ~now)
  | Session.Shard_done { campaign; shard; epoch; records } ->
    dispatch t
      (Coordinator.shard_result co ~worker:c.cid ~campaign ~shard ~epoch
         ~records ~now)
  | Session.Shard_faulted { campaign; shard; epoch; reason } ->
    dispatch t
      (Coordinator.shard_failed co ~worker:c.cid ~campaign ~shard ~epoch
         ~reason ~now)
  | Session.Submitted spec ->
    if t.draining then
      Session.send_control c.session
        (Wire.Error { code = Wire.Draining; message = "daemon is draining" })
    else begin
      match Scheduler.submit t.scheduler spec with
      | Error m ->
        Session.send_control c.session
          (Wire.Error { code = Wire.Rejected; message = m })
      | Ok { Scheduler.digest; runs; completed } ->
        Session.send_control c.session
          (Wire.Accepted { campaign = spec.Wire.campaign; digest; runs; completed });
        if
          not
            (List.exists (fun s -> s.campaign = spec.Wire.campaign) c.subs)
        then
          c.subs <-
            c.subs
            @ [ { campaign = spec.Wire.campaign; cursor = 0;
                  metrics_sent = false; last_progress = None } ]
    end
  | Session.Cancel_requested campaign ->
    if not (Scheduler.cancel t.scheduler ~campaign) then
      Session.send_control c.session
        (Wire.Error
           { code = Wire.Rejected;
             message = Printf.sprintf "unknown campaign %S" campaign })

let handle t c ~now events =
  List.iter (on_event t c ~now) events;
  advance_conn t c

(* --- driver-facing surface ------------------------------------------------- *)

let connect t ~now =
  let id = t.next_id in
  t.next_id <- id + 1;
  let session = Session.create ~config:t.session_config ~id ~now () in
  let c = { cid = id; session; subs = [] } in
  Hashtbl.replace t.conns id c;
  if t.draining then begin
    (* Too late: explain and shut the session immediately; the bytes
       still flush so the client gets a classification, not a reset. *)
    Session.send_control session
      (Wire.Error { code = Wire.Draining; message = "daemon is draining" });
    ignore (Session.eof session ~now)
  end;
  id

let input t ~conn:id ~now bytes =
  match conn t id with
  | None -> ()
  | Some c -> handle t c ~now (Session.feed c.session ~now bytes)

let eof t ~conn:id ~now =
  match conn t id with
  | None -> ()
  | Some c -> List.iter (on_event t c ~now) (Session.eof c.session ~now)

(* The in-process worker: while no remote worker is connected it leases
   one shard per turn and runs it through the same execution function as
   remote workers, on the daemon's pool.  Its records come back through
   the same validation and journal path as theirs, so a campaign never
   waits on a fleet that is not coming back. *)
let local_turn t ~now =
  match Coordinator.lease_local t.coordinator ~now with
  | None -> ()
  | Some { Coordinator.campaign; shard; epoch; lo; hi; spec; resolved } ->
    let s = t.scheduler in
    let result =
      (* Named for the trace profiles that fold one span per turn. *)
      Trace.span "service.scheduler.step"
        ~args:[ ("campaign", Trace.String campaign); ("batch", Trace.Int (hi - lo)) ]
        (fun () ->
          Worker.run_shard ?pool:(Scheduler.pool s) ~jobs:(Scheduler.jobs s)
            ~resolved ~spec ~lo ~hi ())
    in
    let worker = Coordinator.local_worker in
    dispatch t
      (match result with
      | Ok records ->
        Coordinator.shard_result t.coordinator ~worker ~campaign ~shard ~epoch
          ~records ~now
      | Error reason ->
        Coordinator.shard_failed t.coordinator ~worker ~campaign ~shard ~epoch
          ~reason ~now)

(* A session still in its handshake may be a worker about to join; like
   a connected one, it keeps the in-process worker from taking a shard it
   could have had. *)
let handshaking t =
  Hashtbl.fold
    (fun _ c acc ->
      acc || (Session.terminal c.session = None && not (Session.active c.session)))
    t.conns false

let tick t ~now =
  Hashtbl.iter
    (fun _ c -> List.iter (on_event t c ~now) (Session.tick c.session ~now))
    t.conns;
  if not t.draining then begin
    dispatch t (Coordinator.tick t.coordinator ~now);
    if not (handshaking t) then local_turn t ~now
  end;
  (* Deterministic streaming order so tests can compare transcripts. *)
  List.iter
    (fun id -> match conn t id with None -> () | Some c -> advance_conn t c)
    (connections t)

let flush t ~conn:id =
  match conn t id with
  | None -> ""
  | Some c -> Framed.take_all (Session.output c.session)

let closed t ~conn:id =
  match conn t id with
  | None -> true
  | Some c ->
    Session.terminal c.session <> None
    && Framed.is_empty (Session.output c.session)

let terminal t ~conn:id =
  match conn t id with None -> None | Some c -> Session.terminal c.session

let drain t ~now =
  if not t.draining then begin
    t.draining <- true;
    Scheduler.note_draining t.scheduler;
    Metrics.incr "service.drains";
    Hashtbl.iter
      (fun _ c ->
        if Session.terminal c.session = None then begin
          Session.send_control c.session
            (Wire.Error { code = Wire.Draining; message = "daemon is draining" });
          ignore (Session.eof c.session ~now)
        end)
      t.conns
  end

(* --- real transport -------------------------------------------------------- *)

let serve ~socket ?tcp_port ?(jobs = 1) ?session_config ?coordinator ~journal
    () =
  let ( let* ) = Result.bind in
  let* scheduler = Scheduler.create ~jobs ~journal () in
  Fun.protect ~finally:(fun () -> Scheduler.close scheduler) @@ fun () ->
  let config =
    Option.value coordinator ~default:(default_coordinator_config ~jobs)
  in
  let* coordinator = Coordinator.create ~config ~scheduler () in
  let* listener = Link.listen ~socket ?tcp_port () in
  let core = create ?session_config ~coordinator ~scheduler () in
  (* The daemon never asks for an immediate turn: its in-process worker
     runs at most one shard per 50 ms turn. *)
  Ok
    (Link.serve listener ~connect:(connect core) ~input:(input core)
       ~eof:(eof core) ~tick:(tick core) ~flush:(flush core)
       ~closed:(closed core) ~busy:(fun () -> false) ~drain:(drain core))

(* The worker half of the coordinator protocol: sans-IO core first (so
   the multi-worker chaos suite can run hundreds of seeded failure
   schedules without a socket), then the reconnecting blocking driver
   behind [perple worker]. *)

module Metrics = Perple_util.Metrics
module Engine = Perple_core.Engine
module Ledger = Perple_core.Ledger
module Convert = Perple_core.Convert
module Config = Perple_sim.Config

type config = Link.config = { heartbeat_every : int; liveness_timeout : int }

let default_config = Link.default_config

type lease = {
  t_campaign : string;
  t_digest : string;
  t_spec : Wire.spec;
  t_shard : int;
  t_epoch : int;
  t_lo : int;
  t_hi : int;
  mutable t_next : int;  (** Next run index to execute. *)
  mutable t_got : (int * string) list;  (** Completed records, reversed. *)
}

type task = { spec : Wire.spec; digest : string; index : int }

type status = Running | Stopped of string

type t = {
  channel : Link.channel;
  mutable active : bool;  (** Hello handshake completed. *)
  mutable stopped : string option;
  mutable current : lease option;
  mutable queue : lease list;
      (** Leases granted while busy, in grant order; at most one in
          practice (the coordinator leases one shard per worker). *)
  mutable leases_taken : int;
}

let send t frame = Link.send t.channel frame

let create ?config ?(name = "perple-worker") ~now () =
  let t =
    {
      channel = Link.channel ?config ~metrics:"service.worker" ~now ();
      active = false;
      stopped = None;
      current = None;
      queue = [];
      leases_taken = 0;
    }
  in
  send t (Wire.Worker_hello { version = Wire.protocol_version; worker = name });
  t

let output t = Link.output t.channel
let status t = match t.stopped with Some r -> Stopped r | None -> Running
let leases_taken t = t.leases_taken

let stop t reason =
  if t.stopped = None then begin
    Metrics.incr "service.worker.stops";
    t.stopped <- Some reason
  end

let lease_key l = (l.t_campaign, l.t_shard, l.t_epoch)

let promote t =
  match t.queue with
  | [] -> t.current <- None
  | l :: rest ->
    t.current <- Some l;
    t.queue <- rest

let on_frame t ~now frame =
  match frame with
  | Wire.Heartbeat _ -> ()
  | Wire.Hello { version; _ } ->
    if t.active then stop t "protocol: duplicate hello"
    else if version <> Wire.protocol_version then
      stop t
        (Printf.sprintf "protocol: coordinator speaks version %d, want %d"
           version Wire.protocol_version)
    else t.active <- true
  | Wire.Lease { campaign; digest; shard; epoch; lo; hi; lease_ticks = _; spec } ->
    if not t.active then stop t "protocol: lease before hello"
    else if lo < 0 || hi < lo || hi > spec.Wire.runs then
      (* Never execute a range the spec cannot contain; report instead
         of guessing. *)
      send t
        (Wire.Shard_failed
           { campaign; shard; epoch; reason = "malformed lease range" })
    else begin
      let l =
        {
          t_campaign = campaign;
          t_digest = digest;
          t_spec = spec;
          t_shard = shard;
          t_epoch = epoch;
          t_lo = lo;
          t_hi = hi;
          t_next = lo;
          t_got = [];
        }
      in
      let known k = match t.current with
        | Some c when lease_key c = k -> true
        | _ -> List.exists (fun q -> lease_key q = k) t.queue
      in
      if known (lease_key l) then () (* duplicated grant: keep the first *)
      else begin
        t.leases_taken <- t.leases_taken + 1;
        Metrics.incr "service.worker.leases_taken";
        (* Acknowledge immediately: the grant-to-first-renewal gap must
           not count against the lease deadline however long the first
           run takes. *)
        send t (Wire.Lease_renew { campaign; shard; epoch; sent_at = now });
        match t.current with
        | None -> t.current <- Some l
        | Some _ -> t.queue <- t.queue @ [ l ]
      end
    end
  | Wire.Revoke { campaign; shard; epoch; reason = _ } ->
    let key = (campaign, shard, epoch) in
    (match t.current with
    | Some c when lease_key c = key ->
      Metrics.incr "service.worker.leases_revoked";
      promote t
    | _ ->
      let before = List.length t.queue in
      t.queue <- List.filter (fun q -> lease_key q <> key) t.queue;
      if List.length t.queue < before then
        Metrics.incr "service.worker.leases_revoked")
  | Wire.Error { code; message } ->
    stop t (Printf.sprintf "%s: %s" (Wire.error_code_name code) message)
  | Wire.Drain -> stop t "draining: coordinator closed"
  | Wire.Submit _ | Wire.Accepted _ | Wire.Run_record _
  | Wire.Metrics_chunk _ | Wire.Cancel _ | Wire.Worker_hello _
  | Wire.Lease_renew _ | Wire.Shard_result _ | Wire.Shard_failed _
  | Wire.Busy _ | Wire.Progress _ ->
    stop t
      (Printf.sprintf "protocol: unexpected %s frame" (Wire.frame_name frame))

let input t ~now bytes =
  Link.receive t.channel ~now bytes
    ~live:(fun () -> t.stopped = None)
    ~corrupt:(fun m -> stop t (Printf.sprintf "corrupt stream: %s" m))
    ~frame:(on_frame t ~now)

let eof t ~now:_ = stop t "disconnected"

let tick t ~now =
  if t.stopped = None then
    match (Link.beat t.channel ~now, t.current) with
    | `Timed_out m, _ -> stop t ("timed out: " ^ m)
    | `Beat, Some l ->
      (* The lease renews on the same cadence as the heartbeat: one
         silence budget for both disciplines. *)
      send t
        (Wire.Lease_renew
           { campaign = l.t_campaign; shard = l.t_shard; epoch = l.t_epoch;
             sent_at = now })
    | (`Beat | `Quiet), _ -> ()

let task t =
  if t.stopped <> None then None
  else
    match t.current with
    | Some l when l.t_next < l.t_hi ->
      Some { spec = l.t_spec; digest = l.t_digest; index = l.t_next }
    | _ -> None

let task_done t ~now ~record =
  match t.current with
  | None -> ()
  | Some l ->
    l.t_got <- (l.t_next, record) :: l.t_got;
    l.t_next <- l.t_next + 1;
    if l.t_next >= l.t_hi then begin
      send t
        (Wire.Shard_result
           { campaign = l.t_campaign; shard = l.t_shard; epoch = l.t_epoch;
             records = List.rev l.t_got });
      Metrics.incr "service.worker.shards_completed";
      promote t
    end
    else
      send t
        (Wire.Lease_renew
           { campaign = l.t_campaign; shard = l.t_shard; epoch = l.t_epoch;
             sent_at = now })

let task_failed t ~reason =
  match t.current with
  | None -> ()
  | Some l ->
    send t
      (Wire.Shard_failed
         { campaign = l.t_campaign; shard = l.t_shard; epoch = l.t_epoch; reason });
    Metrics.incr "service.worker.shards_failed";
    promote t

(* --- execution --------------------------------------------------------------- *)

(* The one place the service computes campaign runs, for the daemon's
   in-process worker and remote workers alike: the shard's indices
   through [Engine.campaign_entries] with every other index skipped, so
   each run gets its pre-split seed whatever the shard boundaries.  The
   engine's jobs clamp is computed from the full run count, so its notes
   and metrics do not depend on the partition either. *)
let run_shard ?pool ?(jobs = 1) ~(resolved : Scheduler.resolved)
    ~(spec : Wire.spec) ~lo ~hi () =
  let out = ref [] in
  match
    Engine.campaign_entries
      ~config:(Config.with_model resolved.Scheduler.r_model Config.default)
      ~counter:resolved.Scheduler.r_counter ?pool ~jobs
      ~skip:(fun i -> i < lo || i >= hi)
      ~on_entry:(fun entry ->
        let summary = Ledger.of_entry entry in
        out := (summary.Ledger.index, Ledger.record_line summary) :: !out)
      ~runs:spec.Wire.runs ~seed:spec.Wire.seed
      ~iterations:spec.Wire.iterations resolved.Scheduler.r_test
  with
  | Error reason ->
    Error (Format.asprintf "not convertible: %a" Convert.pp_reason reason)
  | Ok _ ->
    let records = List.sort (fun (a, _) (b, _) -> compare a b) !out in
    if List.length records = hi - lo then Ok records
    else
      Error
        (Printf.sprintf "runs %d..%d produced %d entries" lo (hi - 1)
           (List.length records))

let run_index ~resolved ~spec ~index =
  match run_shard ~resolved ~spec ~lo:index ~hi:(index + 1) () with
  | Ok [ (_, line) ] -> Ok line
  | Ok _ -> Error (Printf.sprintf "run %d produced no entry" index)
  | Error _ as e -> e

(* --- blocking driver --------------------------------------------------------- *)

let work_blocking ~address ?(name = "perple-worker") ?(attempts = 10)
    ?(backoff = 2.0) ?(initial_delay_ms = 100) ?(on_note = fun _ -> ()) () =
  if attempts < 1 then invalid_arg "Worker.work_blocking: attempts < 1";
  let cache : (string, Scheduler.resolved) Hashtbl.t = Hashtbl.create 4 in
  let execute { spec; digest; index } =
    let resolved =
      match Hashtbl.find_opt cache digest with
      | Some r -> Ok r
      | None -> (
        match Scheduler.resolve_spec spec with
        | Ok r ->
          if r.Scheduler.r_digest <> digest then
            Error "digest mismatch: coordinator and worker disagree on config"
          else begin
            Hashtbl.replace cache digest r;
            Ok r
          end
        | Error m -> Error (Printf.sprintf "spec rejected: %s" m))
    in
    Result.bind resolved (fun r -> run_index ~resolved:r ~spec ~index)
  in
  Link.with_signals ~catch_stop:true @@ fun stop ->
  let lost =
    Link.reconnect address ~attempts ~backoff ~initial_delay_ms ~stop
      ~on_retry:(fun reason delay_ms ->
        on_note (Printf.sprintf "%s; reconnecting in %d ms" reason delay_ms))
    @@ fun fd ->
    let w = create ~name ~now:(Link.now ()) () in
    (* One leased run per turn, and the next turn at once while more are
       pending. *)
    let run_task ~now:_ =
      Option.iter
        (fun tk ->
          match execute tk with
          | Ok record -> task_done w ~now:(Link.now ()) ~record
          | Error reason ->
            on_note (Printf.sprintf "shard failed: %s" reason);
            task_failed w ~reason)
        (task w);
      tick w ~now:(Link.now ())
    in
    Link.drive ~stop fd ~input:(input w) ~eof:(eof w) ~tick:run_task
      ~output:(output w) ~finished:(fun () -> w.stopped <> None)
      ~busy:(fun () -> task w <> None);
    Link.Lost
      { reason = Option.value w.stopped ~default:"signalled";
        worked = leases_taken w > 0; retry_after = None }
  in
  (* A worker only ever stops by signal or by giving up. *)
  match Link.stop_signal stop with Some s -> Ok s | None -> lost

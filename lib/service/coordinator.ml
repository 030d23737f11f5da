(* Lease-based sharding of campaigns over workers: remote ones, and
   the daemon's in-process worker while no remote one is connected.

   Sans-IO, like Session: the server core feeds it worker events and a
   clock, and reads back (worker, frame) commands to deliver.  All
   shard/lease state is derived from the scheduler's journal — shard
   partitions, lease grants, revocations and abandoned shards are
   journaled as "extras" (see Scheduler), so a kill -9'd coordinator
   resumes with the same shards, monotonic lease epochs and
   byte-identical output.

   The safety argument, in one place:

   - Run records are keyed by (campaign, index) and validated against
     the campaign's pre-split seeds, so the merged ledger is independent
     of which worker computed a run, in which order, or how many times.
   - A lease carries an epoch, monotonic per shard across coordinator
     restarts (epochs are journaled with each grant).  A result or
     renewal whose (campaign, shard, epoch) does not match the live
     lease is stale — a zombie whose lease was revoked — and is
     discarded idempotently.
   - A shard whose lease dies (deadline missed, worker disconnected,
     fault reported, malformed result) is reassigned with backed-off
     retries; after [max_attempts] failures its remaining runs are
     journaled as classified [Unrecoverable] records so the campaign
     still completes — graceful degradation, never a hang. *)

module Json = Perple_util.Json
module Metrics = Perple_util.Metrics
module Ledger = Perple_core.Ledger
module Supervisor = Perple_harness.Supervisor

type config = {
  shard_runs : int;
  lease_ticks : int;
  max_attempts : int;
  retry_delay : int;
  retry_backoff : float;
}

let default_config =
  { shard_runs = 4; lease_ticks = 10_000; max_attempts = 5; retry_delay = 100;
    retry_backoff = 2.0 }

type lease = { l_worker : int; l_epoch : int; mutable l_deadline : int }

type shard_state = Unassigned | Leased of lease | Done | Dead

type shard = {
  s_index : int;
  s_lo : int;
  s_hi : int;  (** Run-index range [lo, hi). *)
  mutable s_state : shard_state;
  mutable s_epoch : int;  (** Highest epoch ever granted. *)
  mutable s_attempts : int;  (** Failed leases so far. *)
  mutable s_eligible_at : int;  (** Reassignment backoff deadline. *)
  mutable s_delay : int;  (** Next backoff delay. *)
}

type campaign = { c_id : string; c_shards : shard array }

type t = {
  config : config;
  scheduler : Scheduler.t;
  campaigns : (string, campaign) Hashtbl.t;
  workers : (int, string) Hashtbl.t;
      (** Remote connection id -> worker name.  The in-process worker is
          not in here: it is {!local_worker}, and it only leases while
          this table is empty. *)
  busy : (int, string * int) Hashtbl.t;  (** Worker -> its lease. *)
  cooling : (int, int) Hashtbl.t;
      (** Workers that missed a deadline: no new lease until they show
          protocol traffic again (or the cooldown passes), so a wedged
          worker does not burn one shard attempt per lease period. *)
  mutable rr : int;  (** Round-robin cursor over campaign order. *)
}

type command = { target : int; frame : Wire.frame }

type grant = {
  campaign : string;
  shard : int;
  epoch : int;
  lo : int;
  hi : int;
  spec : Wire.spec;
  resolved : Scheduler.resolved;
}

(* Connection ids are non-negative, so this never names a socket. *)
let local_worker = -1
let local_name = "local"

let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

(* --- journal records -------------------------------------------------------- *)

(* Every coordinator record names a campaign; shards are named by index
   within the campaign's journaled partition. *)
let record kind ~campaign fields =
  Json.Obj
    (("kind", Json.String kind) :: ("campaign", Json.String campaign) :: fields)

let partition_record ~campaign ~shard_runs =
  record "partition" ~campaign [ ("shard_runs", Json.Int shard_runs) ]

let lease_record ~campaign ~shard ~epoch ~worker =
  record "lease" ~campaign
    [ ("shard", Json.Int shard); ("epoch", Json.Int epoch);
      ("worker", Json.String worker) ]

let revoke_record ~campaign ~shard ~epoch ~reason =
  record "revoke" ~campaign
    [ ("shard", Json.Int shard); ("epoch", Json.Int epoch);
      ("reason", Json.String reason) ]

let dead_record ~campaign ~shard ~reason =
  record "shard-dead" ~campaign
    [ ("shard", Json.Int shard); ("reason", Json.String reason) ]

let str_field name j =
  match Json.member name j with
  | Some (Json.String s) -> Ok s
  | _ -> fail "coordinator journal record: %S is not a string" name

let int_field name j =
  match Json.member name j with
  | Some (Json.Int i) -> Ok i
  | _ -> fail "coordinator journal record: %S is not an int" name

(* --- dead shards ------------------------------------------------------------ *)

(* The classified record for a run whose shard was abandoned.  Built
   from (index, seed, reason) alone so the bytes are identical whether
   written when the shard died or re-derived from the "shard-dead"
   journal record after a coordinator crash between the marker and the
   cruns. *)
let unrecoverable_entry ~index ~seed ~reason =
  {
    Ledger.index;
    seed;
    crashed = Some { Ledger.c_message = reason; c_backtrace = "" };
    iterations = 0;
    requested_iterations = 0;
    frames_examined = 0;
    evaluations = 0;
    virtual_runtime = 0;
    counts = [||];
    degraded = false;
    salvaged_iterations = 0;
    supervision =
      Some
        {
          Ledger.s_outcome = Supervisor.outcome_name Supervisor.Unrecoverable;
          s_total_rounds = 0;
          s_lost = true;
          s_attempts = [];
        };
    metrics = None;
  }

let complete_dead t camp sh ~reason =
  sh.s_state <- Dead;
  match Scheduler.resolved_of t.scheduler ~campaign:camp.c_id with
  | None -> ()
  | Some { Scheduler.r_seeds = seeds; _ } ->
    for i = sh.s_lo to sh.s_hi - 1 do
      if Scheduler.record t.scheduler ~campaign:camp.c_id ~index:i = None then begin
        let entry = unrecoverable_entry ~index:i ~seed:seeds.(i) ~reason in
        match
          Scheduler.record_external t.scheduler ~campaign:camp.c_id
            ~line:(Ledger.record_line entry)
        with
        | Ok _ -> Metrics.incr "coordinator.runs_abandoned"
        | Error _ -> () (* cannot happen: built from the campaign's own seed *)
      end
    done

let kill_shard t camp sh ~reason =
  Metrics.incr "coordinator.shards_abandoned";
  Scheduler.append_extra t.scheduler
    (dead_record ~campaign:camp.c_id ~shard:sh.s_index ~reason);
  complete_dead t camp sh ~reason

(* --- lease lifecycle -------------------------------------------------------- *)

let backoff_policy config =
  {
    Supervisor.watchdog_rounds = max_int;
    min_retired = 1;
    max_retries = config.max_attempts;
    backoff = config.retry_backoff;
  }

let unlease t sh =
  match sh.s_state with
  | Leased l ->
    Hashtbl.remove t.busy l.l_worker;
    sh.s_state <- Unassigned
  | _ -> ()

(* A lease ended without a usable result: journal the revocation, back
   off the shard, and abandon it once the retry budget is spent. *)
let release t camp sh ~now ~epoch ~reason =
  unlease t sh;
  Scheduler.append_extra t.scheduler
    (revoke_record ~campaign:camp.c_id ~shard:sh.s_index ~epoch ~reason);
  Metrics.incr "coordinator.leases_revoked";
  sh.s_attempts <- sh.s_attempts + 1;
  sh.s_eligible_at <- now + sh.s_delay;
  sh.s_delay <- Supervisor.backed_off (backoff_policy t.config) sh.s_delay;
  if sh.s_attempts >= t.config.max_attempts then
    kill_shard t camp sh
      ~reason:
        (Printf.sprintf "unrecoverable: shard %d abandoned after %d leases (%s)"
           sh.s_index sh.s_attempts reason)

(* A revocation that is nobody's fault (cancelled campaign): free the
   lease without charging the shard's retry budget. *)
let revoke_blameless t camp sh ~epoch ~reason =
  unlease t sh;
  Scheduler.append_extra t.scheduler
    (revoke_record ~campaign:camp.c_id ~shard:sh.s_index ~epoch ~reason);
  Metrics.incr "coordinator.leases_revoked"

(* --- campaign discovery ----------------------------------------------------- *)

let shards_for t id ~per =
  match Scheduler.runs t.scheduler ~campaign:id with
  | None -> [||]
  | Some total ->
    let count = (total + per - 1) / per in
    Array.init count (fun k ->
        let lo = k * per in
        let hi = min total ((k + 1) * per) in
        let missing = ref false in
        for i = lo to hi - 1 do
          if Scheduler.record t.scheduler ~campaign:id ~index:i = None then
            missing := true
        done;
        {
          s_index = k;
          s_lo = lo;
          s_hi = hi;
          s_state = (if !missing then Unassigned else Done);
          s_epoch = 0;
          s_attempts = 0;
          s_eligible_at = 0;
          s_delay = t.config.retry_delay;
        })

let add_campaign t id ~per =
  Hashtbl.replace t.campaigns id { c_id = id; c_shards = shards_for t id ~per }

(* Journal records name shards by index, so a campaign's partition is
   pinned in the journal before any lease can name one of its shards;
   a later [--shard-runs] or [--jobs] then cannot re-cut it. *)
let sync_campaigns t =
  List.iter
    (fun id ->
      if not (Hashtbl.mem t.campaigns id) then begin
        let per = t.config.shard_runs in
        Scheduler.append_extra t.scheduler
          (partition_record ~campaign:id ~shard_runs:per);
        add_campaign t id ~per
      end)
    (Scheduler.campaign_ids t.scheduler)

let find_shard t campaign shard =
  match Hashtbl.find_opt t.campaigns campaign with
  | None -> None
  | Some camp ->
    if shard < 0 || shard >= Array.length camp.c_shards then None
    else Some (camp, camp.c_shards.(shard))

(* --- construction / resume -------------------------------------------------- *)

let pin_partition t j =
  let ( let* ) = Result.bind in
  let* campaign = str_field "campaign" j in
  let* per = int_field "shard_runs" j in
  if per < 1 then fail "journal: partition of %S into %d-run shards" campaign per
  else if Scheduler.runs t.scheduler ~campaign = None then
    fail "journal: partition for unknown campaign %S" campaign
  else if Hashtbl.mem t.campaigns campaign then
    fail "journal: second partition for campaign %S" campaign
  else begin
    add_campaign t campaign ~per;
    Ok ()
  end

let apply_extra t j =
  let ( let* ) = Result.bind in
  match Ledger.kind j with
  | Some "partition" -> Ok () (* applied before every other record *)
  | Some "lease" ->
    let* campaign = str_field "campaign" j in
    let* shard = int_field "shard" j in
    let* epoch = int_field "epoch" j in
    (match find_shard t campaign shard with
    | None -> fail "journal: lease for unknown shard %s/%d" campaign shard
    | Some (_, sh) ->
      sh.s_epoch <- max sh.s_epoch epoch;
      Ok ())
  | Some "revoke" ->
    let* campaign = str_field "campaign" j in
    let* shard = int_field "shard" j in
    let* epoch = int_field "epoch" j in
    (match find_shard t campaign shard with
    | None -> fail "journal: revoke for unknown shard %s/%d" campaign shard
    | Some (_, sh) ->
      sh.s_epoch <- max sh.s_epoch epoch;
      sh.s_attempts <- sh.s_attempts + 1;
      sh.s_delay <- Supervisor.backed_off (backoff_policy t.config) sh.s_delay;
      Ok ())
  | Some "shard-dead" ->
    let* campaign = str_field "campaign" j in
    let* shard = int_field "shard" j in
    let* reason = str_field "reason" j in
    (match find_shard t campaign shard with
    | None -> fail "journal: shard-dead for unknown shard %s/%d" campaign shard
    | Some (camp, sh) ->
      (* Re-derive any missing Unrecoverable records: a crash between
         the shard-dead marker and its cruns must not strand the
         campaign. *)
      complete_dead t camp sh ~reason;
      Ok ())
  | Some k -> fail "journal: unexpected coordinator record %S" k
  | None -> fail "journal: coordinator record without a kind"

let create ?(config = default_config) ~scheduler () =
  if config.shard_runs < 1 then
    invalid_arg "Coordinator.create: shard_runs must be >= 1";
  if config.lease_ticks < 1 then
    invalid_arg "Coordinator.create: lease_ticks must be >= 1";
  if config.max_attempts < 1 then
    invalid_arg "Coordinator.create: max_attempts must be >= 1";
  let t =
    {
      config;
      scheduler;
      campaigns = Hashtbl.create 8;
      workers = Hashtbl.create 8;
      busy = Hashtbl.create 8;
      cooling = Hashtbl.create 8;
      rr = 0;
    }
  in
  let rec apply f = function
    | [] -> Ok ()
    | j :: rest -> ( match f t j with Error _ as e -> e | Ok () -> apply f rest)
  in
  let extras = Scheduler.extras scheduler in
  let ( let* ) = Result.bind in
  (* Pinned partitions first; campaigns from journals that predate
     pinning are cut with the current [shard_runs], and pinned now. *)
  let* () =
    apply pin_partition
      (List.filter (fun j -> Ledger.kind j = Some "partition") extras)
  in
  sync_campaigns t;
  let* () = apply apply_extra extras in
  Ok t

(* --- workers ---------------------------------------------------------------- *)

let add_worker t ~id ~name =
  Hashtbl.replace t.workers id name;
  Metrics.incr "coordinator.workers_joined"

let remove_worker t ~id ~now =
  if Hashtbl.mem t.workers id then begin
    Hashtbl.remove t.workers id;
    Hashtbl.remove t.cooling id;
    match Hashtbl.find_opt t.busy id with
    | None -> ()
    | Some (cid, sidx) -> (
      Hashtbl.remove t.busy id;
      match find_shard t cid sidx with
      | Some (camp, sh) -> (
        match sh.s_state with
        | Leased l when l.l_worker = id ->
          release t camp sh ~now ~epoch:l.l_epoch ~reason:"worker disconnected"
        | _ -> ())
      | None -> ())
  end

let worker_count t = Hashtbl.length t.workers

(* Any protocol traffic from a worker proves it is alive again. *)
let thaw t worker = Hashtbl.remove t.cooling worker

(* --- worker events ---------------------------------------------------------- *)

let revoke ~target ~campaign ~shard ~epoch reason =
  { target; frame = Wire.Revoke { campaign; shard; epoch; reason } }

(* The shard, if (worker, campaign, shard, epoch) names its live lease;
   anything else is a zombie or a duplicate. *)
let live_lease t ~worker ~campaign ~shard ~epoch =
  match find_shard t campaign shard with
  | Some (camp, ({ s_state = Leased l; _ } as sh))
    when l.l_worker = worker && l.l_epoch = epoch ->
    Some (camp, sh, l)
  | _ -> None

let renew t ~worker ~campaign ~shard ~epoch ~now =
  thaw t worker;
  match live_lease t ~worker ~campaign ~shard ~epoch with
  | Some (_, _, l) ->
    l.l_deadline <- now + t.config.lease_ticks;
    []
  | None ->
    Metrics.incr "coordinator.stale_renewals";
    [ revoke ~target:worker ~campaign ~shard ~epoch "stale lease" ]

let shard_result t ~worker ~campaign ~shard ~epoch ~records ~now =
  thaw t worker;
  match live_lease t ~worker ~campaign ~shard ~epoch with
  | None ->
    (* The worker is a zombie (its lease was revoked and possibly
       re-assigned) or the frame is a duplicate.  Either way the records
       are already covered — by the replacement lease or by the Done
       shard — so the result is discarded without side effects. *)
    Metrics.incr "coordinator.zombie_results_discarded";
    []
  | Some (camp, sh, _) ->
    let reject reason =
      Metrics.incr "coordinator.bad_results";
      release t camp sh ~now ~epoch ~reason;
      [ revoke ~target:worker ~campaign ~shard ~epoch reason ]
    in
    let expected = List.init (sh.s_hi - sh.s_lo) (fun k -> sh.s_lo + k) in
    let rec ingest = function
      | [] ->
        Hashtbl.remove t.busy worker;
        sh.s_state <- Done;
        Metrics.incr "coordinator.shards_completed";
        []
      | (_, line) :: rest -> (
        match Scheduler.record_external t.scheduler ~campaign ~line with
        | Ok _ -> ingest rest
        | Error m -> reject (Printf.sprintf "bad shard result: %s" m))
    in
    if List.map fst records <> expected then
      reject "malformed shard result: wrong run indices"
    else ingest records

let shard_failed t ~worker ~campaign ~shard ~epoch ~reason ~now =
  thaw t worker;
  match live_lease t ~worker ~campaign ~shard ~epoch with
  | None ->
    Metrics.incr "coordinator.stale_faults";
    []
  | Some (camp, sh, _) ->
    Metrics.incr "coordinator.shard_faults";
    release t camp sh ~now ~epoch
      ~reason:(Printf.sprintf "worker fault: %s" reason);
    []

(* --- clock ------------------------------------------------------------------ *)

(* Grant the next eligible shard to [worker]: campaigns round-robin
   from the cursor (the fair interleave), shards in index order once
   their backoff has passed.  The grant is journaled before anyone can
   act on it. *)
let grant_next t ~worker ~name ~now =
  let s = t.scheduler in
  let order = Array.of_list (Scheduler.campaign_ids s) in
  let n = Array.length order in
  let eligible sh = sh.s_state = Unassigned && sh.s_eligible_at <= now in
  let rec scan off =
    if off >= n then None
    else
      let idx = (t.rr + off) mod n in
      let campaign = order.(idx) in
      let next =
        if Scheduler.is_cancelled s ~campaign then None
        else
          Option.bind (Hashtbl.find_opt t.campaigns campaign) (fun camp ->
              Array.find_opt eligible camp.c_shards)
      in
      match
        (next, Scheduler.spec_of s ~campaign, Scheduler.resolved_of s ~campaign)
      with
      | Some sh, Some spec, Some resolved ->
        t.rr <- (idx + 1) mod n;
        let epoch = sh.s_epoch + 1 in
        sh.s_epoch <- epoch;
        sh.s_state <-
          Leased
            { l_worker = worker; l_epoch = epoch;
              l_deadline = now + t.config.lease_ticks };
        Hashtbl.replace t.busy worker (campaign, sh.s_index);
        Scheduler.append_extra s
          (lease_record ~campaign ~shard:sh.s_index ~epoch ~worker:name);
        Metrics.incr "coordinator.leases_granted";
        Some
          { campaign; shard = sh.s_index; epoch; lo = sh.s_lo; hi = sh.s_hi;
            spec; resolved }
      | _ -> scan (off + 1)
  in
  scan 0

let lease_local t ~now =
  sync_campaigns t;
  if Hashtbl.length t.workers > 0 then None
  else grant_next t ~worker:local_worker ~name:local_name ~now

let tick t ~now =
  sync_campaigns t;
  let commands = ref [] in
  let push c = commands := c :: !commands in
  (* Expiry and cancellation, in deterministic campaign order. *)
  List.iter
    (fun id ->
      match Hashtbl.find_opt t.campaigns id with
      | None -> ()
      | Some camp ->
        let cancelled = Scheduler.is_cancelled t.scheduler ~campaign:id in
        Array.iter
          (fun sh ->
            let revoke_lease l reason =
              push
                (revoke ~target:l.l_worker ~campaign:id ~shard:sh.s_index
                   ~epoch:l.l_epoch reason)
            in
            match sh.s_state with
            | Leased l when cancelled ->
              revoke_lease l "campaign cancelled";
              revoke_blameless t camp sh ~epoch:l.l_epoch
                ~reason:"campaign cancelled"
            | Leased l when l.l_deadline <= now ->
              Metrics.incr "coordinator.deadlines_missed";
              (* The worker stays connected but has proven slow: no new
                 lease until it speaks again. *)
              Hashtbl.replace t.cooling l.l_worker (now + t.config.lease_ticks);
              revoke_lease l "lease deadline missed";
              release t camp sh ~now ~epoch:l.l_epoch
                ~reason:"lease deadline missed"
            | _ -> ())
          camp.c_shards)
    (Scheduler.campaign_ids t.scheduler);
  (* Assignment: idle, warm workers in id order; campaigns round-robin. *)
  let idle =
    Hashtbl.fold
      (fun id _ acc ->
        if Hashtbl.mem t.busy id then acc
        else
          match Hashtbl.find_opt t.cooling id with
          | Some until when until > now -> acc
          | _ ->
            Hashtbl.remove t.cooling id;
            id :: acc)
      t.workers []
    |> List.sort compare
  in
  let assign worker =
    match grant_next t ~worker ~name:(Hashtbl.find t.workers worker) ~now with
    | None -> ()
    | Some { campaign; shard; epoch; lo; hi; spec; resolved } ->
      let digest = resolved.Scheduler.r_digest in
      let lease_ticks = t.config.lease_ticks in
      push
        {
          target = worker;
          frame =
            Wire.Lease { campaign; digest; shard; epoch; lo; hi; lease_ticks; spec };
        }
  in
  List.iter assign idle;
  List.rev !commands

(* --- queries ---------------------------------------------------------------- *)

let shard_counts t ~campaign =
  match Hashtbl.find_opt t.campaigns campaign with
  | None -> (0, 0, 0)
  | Some camp ->
    Array.fold_left
      (fun (d, l, f) sh ->
        match sh.s_state with
        | Done -> (d + 1, l, f)
        | Leased _ -> (d, l + 1, f)
        | Dead -> (d, l, f + 1)
        | Unassigned -> (d, l, f))
      (0, 0, 0) camp.c_shards

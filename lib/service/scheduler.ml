(* Campaign scheduler: the journal-backed record store behind the
   daemon.  It validates and journals specs and ingests run records;
   the coordinator decides who computes which runs.

   Record kinds in a serve journal (after the standard header):
     {"kind":"spec", ...}     an accepted campaign, in submit order
     {"kind":"crun","campaign":C,"run":{...}}   one completed run
     {"kind":"cancel","campaign":C}
     {"kind":"draining"} / {"kind":"interrupted"}   shutdown markers
     {"kind":"partition"|"lease"|"revoke"|"shard-dead", ...}
       coordinator extras, opaque here: preserved through replay and
       compaction in order and handed back to [Perple_service.Coordinator]
       to rebuild shard partitions and lease epochs.

   Specs are journaled before they are acknowledged and runs before they
   are streamed, so every byte a client ever saw is reconstructible from
   the journal alone. *)

module Json = Perple_util.Json
module Journal = Perple_util.Journal
module Metrics = Perple_util.Metrics
module Ast = Perple_litmus.Ast
module Parser = Perple_litmus.Parser
module Printer = Perple_litmus.Printer
module Catalog = Perple_litmus.Catalog
module Config = Perple_sim.Config
module Engine = Perple_core.Engine
module Ledger = Perple_core.Ledger
module Convert = Perple_core.Convert

type resolved = {
  r_digest : string;
  r_test : Ast.t;
  r_counter : Engine.counter;
  r_model : Config.model;
  r_seeds : int array;
}

type campaign = {
  spec : Wire.spec;
  resolved : resolved;
  records : string option array;
  mutable done_count : int;
  mutable cancelled : bool;
}

type t = {
  jobs : int;
  pool : Perple_core.Pool.t option;
      (** Persistent pool for the daemon's in-process worker, reused
          across shards and campaigns; [None] when [jobs = 1]. *)
  mutable journal : Journal.t option;
  campaigns : (string, campaign) Hashtbl.t;
  mutable order : string list;  (** Submit order, oldest first. *)
  mutable extras : Json.t list;  (** Coordinator records, reversed. *)
}

(* --- spec validation ------------------------------------------------------- *)

let resolve_test text =
  match Catalog.find text with
  | Some entry -> Ok entry.Catalog.test
  | None ->
    if String.contains text '\n' then
      (* Litmus source shipped inline by the client. *)
      match Parser.parse text with
      | Ok test -> Ok test
      | Error e -> Error (Format.asprintf "test source: %a" Parser.pp_error e)
    else
      Error
        (Printf.sprintf
           "unknown test %S (not a catalog name; to submit a file, send its \
            contents)"
           text)

let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

(* Validation shared by live submits and journal replay: everything the
   engine will assume later is checked up front, so a rejected spec
   costs one error frame, never a daemon crash mid-campaign. *)
let resolve (spec : Wire.spec) =
  let ( let* ) = Result.bind in
  let* () =
    if spec.Wire.campaign = "" then fail "campaign id must be non-empty"
    else if String.length spec.Wire.campaign > 256 then
      fail "campaign id longer than 256 bytes"
    else
      Engine.check_campaign ~runs:spec.Wire.runs
        ~iterations:spec.Wire.iterations ~seed:spec.Wire.seed ()
  in
  let* counter =
    Option.to_result
      ~none:
        (Printf.sprintf "unknown counter %S (heur, exh or exh-ref)"
           spec.Wire.counter)
      (Engine.counter_of_name spec.Wire.counter)
  in
  let* model =
    Option.to_result
      ~none:(Printf.sprintf "unknown model %S" spec.Wire.model)
      (Config.model_of_name spec.Wire.model)
  in
  let* test = resolve_test spec.Wire.test in
  let* _ =
    Result.map_error
      (Format.asprintf "test %s is not convertible: %a" test.Ast.name
         Convert.pp_reason)
      (Convert.convert test)
  in
  let* _ =
    Result.map_error
      (Printf.sprintf "test %s has no countable target: %s" test.Ast.name)
      (Perple_litmus.Outcome.of_condition test)
  in
  let digest =
    Ledger.digest_of_params
      [
        ("command", "serve-campaign");
        ("test", Digest.to_hex (Digest.string (Printer.to_string test)));
        ("iterations", string_of_int spec.Wire.iterations);
        ("seed", string_of_int spec.Wire.seed);
        ("counter", Engine.counter_wire_name counter);
        ("model", Config.model_name model);
        ("runs", string_of_int spec.Wire.runs);
      ]
  in
  let seeds = Engine.campaign_seeds ~runs:spec.Wire.runs ~seed:spec.Wire.seed in
  Ok
    {
      spec;
      resolved =
        { r_digest = digest; r_test = test; r_counter = counter;
          r_model = model; r_seeds = seeds };
      records = Array.make spec.Wire.runs None;
      done_count = 0;
      cancelled = false;
    }

(* --- journal records ------------------------------------------------------- *)

let serve_digest = Ledger.digest_of_params [ ("command", "serve") ]

let header_record =
  Ledger.header_to_json
    { Ledger.h_command = "serve"; h_digest = serve_digest; h_runs = 0 }

let spec_record (s : Wire.spec) =
  Json.Obj
    [
      ("kind", Json.String "spec");
      ("campaign", Json.String s.Wire.campaign);
      ("test", Json.String s.Wire.test);
      ("iterations", Json.Int s.Wire.iterations);
      ("seed", Json.Int s.Wire.seed);
      ("runs", Json.Int s.Wire.runs);
      ("counter", Json.String s.Wire.counter);
      ("model", Json.String s.Wire.model);
    ]

let crun_record campaign run_json =
  Json.Obj
    [
      ("kind", Json.String "crun");
      ("campaign", Json.String campaign);
      ("run", run_json);
    ]

let cancel_record campaign =
  Json.Obj
    [ ("kind", Json.String "cancel"); ("campaign", Json.String campaign) ]

let str_field name j =
  match Json.member name j with
  | Some (Json.String s) -> Ok s
  | _ -> fail "journal record: %S is not a string" name

let int_field name j =
  match Json.member name j with
  | Some (Json.Int i) -> Ok i
  | _ -> fail "journal record: %S is not an int" name

let spec_of_record j =
  let ( let* ) = Result.bind in
  let* campaign = str_field "campaign" j in
  let* test = str_field "test" j in
  let* iterations = int_field "iterations" j in
  let* seed = int_field "seed" j in
  let* runs = int_field "runs" j in
  let* counter = str_field "counter" j in
  let* model = str_field "model" j in
  Ok { Wire.campaign; test; iterations; seed; runs; counter; model }

(* --- construction / resume ------------------------------------------------- *)

let append t record =
  match t.journal with None -> () | Some j -> Journal.append j record

(* Validate a run against its campaign's pre-split and fill its slot:
   [Ok false] if the identical canonical record is already there.  The
   stored line is always re-serialized, so every stored line is the
   canonical [Ledger.record_line] bytes, whatever a (buggy) worker sent;
   the seed check means a record can never land in a foreign slot. *)
let store c (summary : Ledger.t) =
  let i = summary.Ledger.index in
  if i < 0 || i >= Array.length c.records then fail "run index %d out of range" i
  else if summary.Ledger.seed <> c.resolved.r_seeds.(i) then
    fail "run %d was seeded with %d, the spec pre-splits %d" i
      summary.Ledger.seed c.resolved.r_seeds.(i)
  else
    let line = Ledger.record_line summary in
    match c.records.(i) with
    | Some existing when String.equal existing line -> Ok false
    | Some _ -> fail "run %d already has a conflicting record" i
    | None ->
      c.records.(i) <- Some line;
      c.done_count <- c.done_count + 1;
      Ok true

let ingest_record t j =
  let ( let* ) = Result.bind in
  match Ledger.kind j with
  | Some ("interrupted" | "draining") -> Ok ()
  | Some "spec" ->
    let* spec = spec_of_record j in
    let* c = resolve spec in
    if Hashtbl.mem t.campaigns spec.Wire.campaign then
      fail "journal: duplicate spec for campaign %S" spec.Wire.campaign
    else begin
      Hashtbl.replace t.campaigns spec.Wire.campaign c;
      t.order <- t.order @ [ spec.Wire.campaign ];
      Ok ()
    end
  | Some "cancel" ->
    let* campaign = str_field "campaign" j in
    (match Hashtbl.find_opt t.campaigns campaign with
    | None -> fail "journal: cancel for unknown campaign %S" campaign
    | Some c ->
      c.cancelled <- true;
      Ok ())
  | Some ("partition" | "lease" | "revoke" | "shard-dead") ->
    (* Coordinator bookkeeping: semantically opaque here, but its order
       and content must survive replay and compaction so shard
       partitions stay pinned and lease epochs stay monotonic across
       coordinator restarts. *)
    t.extras <- j :: t.extras;
    Ok ()
  | Some "crun" ->
    let* campaign = str_field "campaign" j in
    (match Hashtbl.find_opt t.campaigns campaign with
    | None -> fail "journal: run for unknown campaign %S" campaign
    | Some c -> (
      match Json.member "run" j with
      | None -> fail "journal: crun record without a run"
      | Some run_json ->
        let* summary = Ledger.of_json run_json in
        let* _ =
          Result.map_error
            (Printf.sprintf "journal: campaign %S: %s" campaign)
            (store c summary)
        in
        Metrics.incr "service.scheduler.resumed_runs";
        Ok ()))
  | Some k -> fail "journal: unexpected %S record" k
  | None -> fail "journal: record without a kind"

(* Rewrite the journal to its live contents (drop shutdown markers and
   CRC-damaged tails) before reopening for append. *)
let compacted t =
  let specs = List.map (fun id -> spec_record (Hashtbl.find t.campaigns id).spec) t.order in
  let cancels =
    List.filter_map
      (fun id ->
        if (Hashtbl.find t.campaigns id).cancelled then
          Some (cancel_record id)
        else None)
      t.order
  in
  let cruns =
    List.concat_map
      (fun id ->
        Array.to_list (Hashtbl.find t.campaigns id).records
        |> List.filter_map
             (Option.map (fun line ->
                  (* Cannot fail: every stored line was serialized here. *)
                  crun_record id (Result.get_ok (Json.parse line)))))
      t.order
  in
  (header_record :: specs) @ cancels @ cruns @ List.rev t.extras

let create ?(jobs = 1) ~journal () =
  if jobs < 1 then invalid_arg "Scheduler.create: jobs must be >= 1";
  let t =
    {
      jobs;
      pool = None;
      journal = None;
      campaigns = Hashtbl.create 8;
      order = [];
      extras = [];
    }
  in
  (* Workers are spawned only once the journal (if any) validated, so a
     rejected resume never leaks parked domains. *)
  let finish t =
    (* Sized to the hardware, not to [jobs]: idle domains beyond the core
       count only tax the GC (see Pool).  [jobs] still caps how many
       runs of a shard execute at once. *)
    let width = min jobs (Perple_core.Pool.available_domains ()) in
    Ok
      (if width > 1 then
         { t with pool = Some (Perple_core.Pool.create ~jobs:width ()) }
       else t)
  in
  let start_over path =
    let j = Journal.create path in
    Journal.append j header_record;
    t.journal <- Some j;
    finish t
  in
  match journal with
  | None -> finish t
  | Some path ->
    if not (Sys.file_exists path) then start_over path
    else begin
      match Journal.load path with
      | Error m -> fail "journal %s: %s" path m
      | Ok recovery -> (
        if recovery.Journal.dropped_bytes > 0 then
          Printf.eprintf
            "perpled: journal %s: dropped %d damaged trailing bytes (kept %d \
             intact)\n%!"
            path recovery.Journal.dropped_bytes recovery.Journal.valid_bytes;
        match recovery.Journal.records with
        | [] ->
          (* Created but crashed before the header was durable. *)
          start_over path
        | header :: rest -> (
          match Ledger.parse_header header with
          | Error m -> fail "cannot resume: %s" m
          | Ok h ->
            if h.Ledger.h_command <> "serve" then
              fail
                "cannot resume: journal %s was written by 'perple %s', not \
                 'perple serve'"
                path h.Ledger.h_command
            else
              let ingest acc r = Result.bind acc (fun () -> ingest_record t r) in
              match List.fold_left ingest (Ok ()) rest with
              | Error m -> fail "cannot resume: %s" m
              | Ok () ->
                Journal.compact ~path (compacted t);
                t.journal <- Some (Journal.open_append path);
                finish t))
    end

(* --- queries --------------------------------------------------------------- *)

let resolve_spec spec = Result.map (fun c -> c.resolved) (resolve spec)

let jobs t = t.jobs
let pool t = t.pool

let find t campaign = Hashtbl.find_opt t.campaigns campaign

let campaign_ids t = t.order

let spec_of t ~campaign = Option.map (fun c -> c.spec) (find t campaign)
let resolved_of t ~campaign = Option.map (fun c -> c.resolved) (find t campaign)

let runs t ~campaign =
  Option.map (fun c -> Array.length c.records) (find t campaign)

let completed t ~campaign =
  match find t campaign with None -> 0 | Some c -> c.done_count

let is_cancelled t ~campaign =
  match find t campaign with None -> false | Some c -> c.cancelled

let is_complete t ~campaign =
  match find t campaign with
  | None -> false
  | Some c -> (not c.cancelled) && c.done_count = Array.length c.records

let record t ~campaign ~index =
  match find t campaign with
  | None -> None
  | Some c ->
    if index < 0 || index >= Array.length c.records then None
    else c.records.(index)

(* --- submit / cancel ------------------------------------------------------- *)

type accepted = { digest : string; runs : int; completed : int }

let submit t spec =
  match resolve spec with
  | Error _ as e -> e
  | Ok fresh -> (
    match find t spec.Wire.campaign with
    | Some existing ->
      if existing.resolved.r_digest <> fresh.resolved.r_digest then
        fail
          "campaign %S already exists with a different configuration \
           (digest %s, submitted %s)"
          spec.Wire.campaign existing.resolved.r_digest
          fresh.resolved.r_digest
      else if existing.cancelled then
        fail "campaign %S was cancelled" spec.Wire.campaign
      else begin
        Metrics.incr "service.scheduler.resubmits";
        Ok
          {
            digest = existing.resolved.r_digest;
            runs = Array.length existing.records;
            completed = existing.done_count;
          }
      end
    | None ->
      append t (spec_record spec);
      Hashtbl.replace t.campaigns spec.Wire.campaign fresh;
      t.order <- t.order @ [ spec.Wire.campaign ];
      Metrics.incr "service.scheduler.campaigns_accepted";
      Ok
        {
          digest = fresh.resolved.r_digest;
          runs = Array.length fresh.records;
          completed = 0;
        })

(* --- run records ------------------------------------------------------------ *)

let extras t = List.rev t.extras

let append_extra t j =
  append t j;
  t.extras <- j :: t.extras

(* Every run record enters here, whichever worker computed it. *)
let record_external t ~campaign ~line =
  match find t campaign with
  | None -> fail "record for unknown campaign %S" campaign
  | Some c -> (
    match Json.parse line with
    | Error m -> fail "record does not parse: %s" m
    | Ok run_json -> (
      match Ledger.of_json run_json with
      | Error m -> fail "record invalid: %s" m
      | Ok summary -> (
        match store c summary with
        | Error _ as e -> e
        | Ok false -> Ok `Duplicate
        | Ok true ->
          append t (crun_record campaign (Ledger.to_json summary));
          Metrics.incr "service.scheduler.runs_recorded";
          Ok `Recorded)))

let cancel t ~campaign =
  match find t campaign with
  | None -> false
  | Some c ->
    if not c.cancelled then begin
      c.cancelled <- true;
      append t (cancel_record campaign);
      Metrics.incr "service.scheduler.campaigns_cancelled"
    end;
    true

(* --- shutdown -------------------------------------------------------------- *)

let metrics_payload t ~campaign =
  match find t campaign with
  | None -> None
  | Some c ->
    if c.cancelled || c.done_count < Array.length c.records then None
    else begin
      let sink = Metrics.create_sink () in
      Array.iter
        (function
          | None -> ()
          | Some line -> (
            match Json.parse line with
            | Error _ -> ()
            | Ok j -> (
              match Json.member "metrics" j with
              | None -> ()
              | Some m -> ignore (Metrics.merge_json sink m))))
        c.records;
      Some (Json.to_string (Metrics.to_json sink))
    end

let note_draining t = append t Ledger.draining_marker

let close t =
  Option.iter Journal.close t.journal;
  t.journal <- None;
  Option.iter Perple_core.Pool.shutdown t.pool

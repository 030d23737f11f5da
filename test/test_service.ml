(* Service-layer tests: wire codec round-trips and hostile-input
   robustness, framed nonblocking buffers, session discipline
   (handshake, quarantine, liveness, backpressure), scheduler journal
   resume with byte-identical re-streaming for any kill point and any
   jobs value (checked against the [perple run] campaign), the sans-IO
   server/client pair end to end, and the seeded chaos-proxy suite:
   hundreds of fault schedules, each of which must end in a classified
   terminal state — never a hang, never a corrupted journal. *)

module Framed = Perple_util.Framed
module Journal = Perple_util.Journal
module Json = Perple_util.Json
module Metrics = Perple_util.Metrics
module Wire = Perple_service.Wire
module Session = Perple_service.Session
module Scheduler = Perple_service.Scheduler
module Server = Perple_service.Server
module Client = Perple_service.Client
module Chaos = Perple_service.Chaos
module Coordinator = Perple_service.Coordinator
module Engine = Perple_core.Engine
module Ledger = Perple_core.Ledger
module Config = Perple_sim.Config
module Catalog = Perple_litmus.Catalog

let check = Alcotest.check

let scratch =
  Filename.concat (Filename.get_temp_dir_name ()) "perple-service-test"

let with_scratch f =
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote scratch)));
  Sys.mkdir scratch 0o755;
  f ()

let in_scratch name = Filename.concat scratch name

let spec ?(campaign = "c1") ?(test = "podwr000") ?(iterations = 200)
    ?(seed = 7) ?(runs = 3) ?(counter = "heur") ?(model = "tso") () =
  { Wire.campaign; test; iterations; seed; runs; counter; model }

(* --- wire: round-trips ------------------------------------------------------ *)

let gen_bytes =
  QCheck.Gen.(string_size ~gen:(map Char.chr (0 -- 255)) (0 -- 60))

let gen_u32 = QCheck.Gen.(0 -- 0xFFFF_FFFF)
let gen_i64 = QCheck.Gen.int

let gen_code =
  QCheck.Gen.oneofl
    [ Wire.Protocol; Wire.Rejected; Wire.Cancelled; Wire.Draining;
      Wire.Timeout; Wire.Internal ]

let gen_spec =
  QCheck.Gen.map
    (fun (campaign, test, iterations, seed, (runs, counter, model)) ->
      { Wire.campaign; test; iterations; seed; runs; counter; model })
    QCheck.Gen.(
      tup5 gen_bytes gen_bytes gen_i64 gen_i64 (tup3 gen_u32 gen_bytes gen_bytes))

let frame_gens : (string * Wire.frame QCheck.Gen.t) list =
  let open QCheck.Gen in
  [
    ( "hello",
      map2 (fun version peer -> Wire.Hello { version; peer }) gen_u32 gen_bytes
    );
    ( "submit",
      map
        (fun (campaign, test, iterations, seed, (runs, counter, model)) ->
          Wire.Submit
            { campaign; test; iterations; seed; runs; counter; model })
        (tup5 gen_bytes gen_bytes gen_i64 gen_i64
           (tup3 gen_u32 gen_bytes gen_bytes)) );
    ( "accepted",
      map
        (fun (campaign, digest, runs, completed) ->
          Wire.Accepted { campaign; digest; runs; completed })
        (tup4 gen_bytes gen_bytes gen_u32 gen_u32) );
    ( "run-record",
      map
        (fun (campaign, index, record) ->
          Wire.Run_record { campaign; index; record })
        (tup3 gen_bytes gen_u32 gen_bytes) );
    ( "metrics-chunk",
      map2
        (fun campaign payload -> Wire.Metrics_chunk { campaign; payload })
        gen_bytes gen_bytes );
    ("heartbeat", map (fun sent_at -> Wire.Heartbeat { sent_at }) gen_i64);
    ("cancel", map (fun campaign -> Wire.Cancel { campaign }) gen_bytes);
    ("drain", return Wire.Drain);
    ( "error",
      map2 (fun code message -> Wire.Error { code; message }) gen_code
        gen_bytes );
    ( "worker-hello",
      map2 (fun version worker -> Wire.Worker_hello { version; worker })
        gen_u32 gen_bytes );
    ( "lease",
      map
        (fun ((campaign, digest, shard, epoch), (lo, hi, lease_ticks), spec) ->
          Wire.Lease { campaign; digest; shard; epoch; lo; hi; lease_ticks; spec })
        (tup3
           (tup4 gen_bytes gen_bytes gen_u32 gen_u32)
           (tup3 gen_u32 gen_u32 gen_u32)
           gen_spec) );
    ( "lease-renew",
      map
        (fun (campaign, shard, epoch, sent_at) ->
          Wire.Lease_renew { campaign; shard; epoch; sent_at })
        (tup4 gen_bytes gen_u32 gen_u32 gen_i64) );
    ( "shard-result",
      map
        (fun (campaign, shard, epoch, records) ->
          Wire.Shard_result { campaign; shard; epoch; records })
        (tup4 gen_bytes gen_u32 gen_u32
           (list_size (0 -- 8) (pair gen_u32 gen_bytes))) );
    ( "shard-failed",
      map
        (fun (campaign, shard, epoch, reason) ->
          Wire.Shard_failed { campaign; shard; epoch; reason })
        (tup4 gen_bytes gen_u32 gen_u32 gen_bytes) );
    ( "revoke",
      map
        (fun (campaign, shard, epoch, reason) ->
          Wire.Revoke { campaign; shard; epoch; reason })
        (tup4 gen_bytes gen_u32 gen_u32 gen_bytes) );
    ("busy", map (fun retry_after -> Wire.Busy { retry_after }) gen_u32);
    ( "progress",
      map
        (fun (campaign, (runs_total, runs_done), (sd, sl, sf)) ->
          Wire.Progress
            { campaign; runs_total; runs_done; shards_done = sd;
              shards_leased = sl; shards_failed = sf })
        (tup3 gen_bytes (pair gen_u32 gen_u32) (tup3 gen_u32 gen_u32 gen_u32))
    );
  ]

let roundtrip frame =
  let enc = Wire.encode frame in
  match Wire.decode enc with
  | Wire.Frame (f, n) -> f = frame && n = String.length enc
  | Wire.Need_more | Wire.Corrupt _ -> false

(* One qcheck round-trip property per frame type, as the issue demands:
   a codec bug in any single constructor fails its own named test. *)
let roundtrip_properties =
  List.map
    (fun (name, gen) ->
      QCheck.Test.make
        ~name:(Printf.sprintf "wire %s round-trips" name)
        ~count:100 (QCheck.make gen) roundtrip)
    frame_gens

let gen_frame = QCheck.Gen.oneof (List.map snd frame_gens)

(* No prefix of a valid frame may crash the decoder or decode to a
   frame; every strict prefix is exactly [Need_more]. *)
let truncation_property =
  QCheck.Test.make ~name:"wire decode of every strict prefix is Need_more"
    ~count:120 (QCheck.make gen_frame) (fun frame ->
      let enc = Wire.encode frame in
      let ok = ref true in
      for cut = 0 to String.length enc - 1 do
        match Wire.decode (String.sub enc 0 cut) with
        | Wire.Need_more -> ()
        | Wire.Frame _ | Wire.Corrupt _ -> ok := false
      done;
      !ok)

(* Arbitrary single-byte damage anywhere in the frame must never raise:
   the decoder classifies, it does not crash. *)
let corruption_never_raises_property =
  QCheck.Test.make ~name:"wire decode never raises on damaged bytes"
    ~count:120
    (QCheck.make QCheck.Gen.(pair gen_frame (pair small_nat (0 -- 255))))
    (fun (frame, (at, byte)) ->
      let enc = Bytes.of_string (Wire.encode frame) in
      Bytes.set enc (at mod Bytes.length enc) (Char.chr byte);
      match Wire.decode (Bytes.to_string enc) with
      | Wire.Frame _ | Wire.Need_more | Wire.Corrupt _ -> true)

let frame_with_body body =
  let b = Buffer.create 16 in
  let u32 v =
    Buffer.add_char b (Char.chr (v lsr 24 land 0xFF));
    Buffer.add_char b (Char.chr (v lsr 16 land 0xFF));
    Buffer.add_char b (Char.chr (v lsr 8 land 0xFF));
    Buffer.add_char b (Char.chr (v land 0xFF))
  in
  u32 (String.length body);
  u32 (Journal.crc32 body);
  Buffer.add_string b body;
  Buffer.contents b

let expect_corrupt what s =
  match Wire.decode s with
  | Wire.Corrupt _ -> ()
  | Wire.Frame _ -> Alcotest.failf "%s decoded to a frame" what
  | Wire.Need_more -> Alcotest.failf "%s classified as short read" what

let test_wire_hostile () =
  expect_corrupt "unknown tag" (frame_with_body "\xFF");
  expect_corrupt "empty body" (frame_with_body "");
  (* Declared length far beyond the limit: reject before buffering. *)
  expect_corrupt "oversized length" "\xFF\xFF\xFF\xFF";
  (* Drain frame with trailing junk inside the declared body. *)
  expect_corrupt "trailing bytes" (frame_with_body "\x08junk");
  (* Error frame with an unassigned code byte. *)
  expect_corrupt "unknown error code"
    (frame_with_body "\x09\x63\x00\x00\x00\x00");
  (* Hello whose inner string length runs past the declared body. *)
  expect_corrupt "inner field past body"
    (frame_with_body "\x01\x00\x00\x00\x01\x00\x00\x00\xFF");
  (* A bit flip in the body under the original checksum. *)
  (let enc = Bytes.of_string (Wire.encode (Wire.Cancel { campaign = "x" })) in
   let last = Bytes.length enc - 1 in
   Bytes.set enc last (Char.chr (Char.code (Bytes.get enc last) lxor 1));
   expect_corrupt "body bit flip" (Bytes.to_string enc));
  match Wire.decode "" with
  | Wire.Need_more -> ()
  | _ -> Alcotest.fail "empty input must be a short read"

(* --- framed buffers --------------------------------------------------------- *)

let test_framed_fifo () =
  let b = Framed.create () in
  check Alcotest.bool "fresh buffer is empty" true (Framed.is_empty b);
  Framed.add_string b "hello ";
  Framed.add_string b "world";
  check Alcotest.int "length" 11 (Framed.length b);
  check Alcotest.string "contents" "hello world" (Framed.contents b);
  Framed.consume b 6;
  check Alcotest.string "consume drops a prefix" "world" (Framed.contents b);
  check Alcotest.string "take_all drains" "world" (Framed.take_all b);
  check Alcotest.bool "drained" true (Framed.is_empty b);
  (* Growth: push far past the initial capacity in small pieces. *)
  let chunk = String.make 97 'x' in
  for _ = 1 to 200 do
    Framed.add_string b chunk
  done;
  check Alcotest.int "grown length" (97 * 200) (Framed.length b);
  Framed.consume b (97 * 199);
  check Alcotest.string "tail survives growth and compaction" chunk
    (Framed.take_all b)

let test_framed_pipe () =
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock r;
  Unix.set_nonblock w;
  let out = Framed.create () in
  Framed.add_string out "framed pipe payload";
  (match Framed.write_from w out with
  | `Wrote n -> check Alcotest.int "wrote everything" 19 n
  | _ -> Alcotest.fail "pipe write failed");
  let inb = Framed.create () in
  (match Framed.read_into r inb with
  | `Read n -> check Alcotest.int "read everything" 19 n
  | _ -> Alcotest.fail "pipe read failed");
  check Alcotest.string "bytes crossed intact" "framed pipe payload"
    (Framed.take_all inb);
  (match Framed.read_into r inb with
  | `Would_block -> ()
  | _ -> Alcotest.fail "empty nonblocking pipe must report Would_block");
  Unix.close w;
  (match Framed.read_into r inb with
  | `Closed -> ()
  | _ -> Alcotest.fail "closed pipe must report Closed");
  Unix.close r

(* --- session ---------------------------------------------------------------- *)

let hello = Wire.Hello { version = Wire.protocol_version; peer = "tester" }

let session_frames s =
  let buf = Session.output s in
  let rec go acc =
    match Wire.next_frame buf with
    | `Frame f -> go (f :: acc)
    | `Need_more -> List.rev acc
    | `Corrupt m -> Alcotest.failf "session emitted corrupt bytes: %s" m
  in
  go []

let test_session_handshake () =
  let s = Session.create ~id:0 ~now:0 () in
  let events = Session.feed s ~now:0 (Wire.encode hello) in
  check Alcotest.bool "hello surfaces the peer name" true
    (events = [ Session.Hello_received "tester" ]);
  check Alcotest.bool "session is active" true (Session.active s);
  (match session_frames s with
  | [ Wire.Hello { peer = "perpled"; version } ] ->
    check Alcotest.int "daemon replies with its version" Wire.protocol_version
      version
  | fs -> Alcotest.failf "expected one hello reply, got %d frames" (List.length fs));
  let events =
    Session.feed s ~now:1 (Wire.encode (Wire.Submit (spec ())))
  in
  match events with
  | [ Session.Submitted sp ] ->
    check Alcotest.string "submitted spec campaign" "c1" sp.Wire.campaign
  | _ -> Alcotest.fail "submit must surface a Submitted event"

let expect_quarantine what events s =
  (match Session.terminal s with
  | Some (Session.Quarantined _) -> ()
  | _ -> Alcotest.failf "%s: session not quarantined" what);
  (match List.rev events with
  | Session.Terminated (Session.Quarantined _) :: _ -> ()
  | _ -> Alcotest.failf "%s: no Terminated event" what);
  match List.rev (session_frames s) with
  | Wire.Error { code = Wire.Protocol; _ } :: _ -> ()
  | _ -> Alcotest.failf "%s: peer was not told why it died" what

let test_session_quarantines () =
  (* First frame is not hello. *)
  let s = Session.create ~id:1 ~now:0 () in
  expect_quarantine "submit before hello"
    (Session.feed s ~now:0 (Wire.encode (Wire.Submit (spec ()))))
    s;
  (* Wrong protocol version. *)
  let s = Session.create ~id:2 ~now:0 () in
  expect_quarantine "version mismatch"
    (Session.feed s ~now:0
       (Wire.encode (Wire.Hello { version = 999; peer = "x" })))
    s;
  (* Corrupt bytes mid-stream. *)
  let s = Session.create ~id:3 ~now:0 () in
  ignore (Session.feed s ~now:0 (Wire.encode hello));
  ignore (session_frames s);
  expect_quarantine "corrupt frame" (Session.feed s ~now:1 "\xFF\xFF\xFF\xFF") s;
  (* Input after quarantine is discarded, not processed. *)
  let events = Session.feed s ~now:2 (Wire.encode (Wire.Submit (spec ()))) in
  check Alcotest.bool "post-quarantine input is dead" true (events = []);
  (* Server-only frame from a client. *)
  let s = Session.create ~id:4 ~now:0 () in
  ignore (Session.feed s ~now:0 (Wire.encode hello));
  ignore (session_frames s);
  expect_quarantine "server-only frame"
    (Session.feed s ~now:1
       (Wire.encode (Wire.Accepted { campaign = "c"; digest = "d"; runs = 1; completed = 0 })))
    s

let test_session_liveness () =
  let config =
    { Session.default_config with heartbeat_every = 10; liveness_timeout = 50 }
  in
  let s = Session.create ~config ~id:5 ~now:0 () in
  ignore (Session.feed s ~now:0 (Wire.encode hello));
  ignore (session_frames s);
  (* Heartbeats flow while the peer is silent... *)
  check Alcotest.bool "no events from an early tick" true
    (Session.tick s ~now:10 = []);
  (match session_frames s with
  | [ Wire.Heartbeat { sent_at = 10 } ] -> ()
  | _ -> Alcotest.fail "heartbeat due at 10 ticks");
  (* ...until the liveness deadline passes. *)
  let events = Session.tick s ~now:51 in
  (match Session.terminal s with
  | Some Session.Timed_out -> ()
  | _ -> Alcotest.fail "silent peer must time out");
  (match List.rev events with
  | Session.Terminated Session.Timed_out :: _ -> ()
  | _ -> Alcotest.fail "timeout must surface Terminated");
  match List.rev (session_frames s) with
  | Wire.Error { code = Wire.Timeout; _ } :: _ -> ()
  | _ -> Alcotest.fail "peer must be told about the timeout"

let test_session_backpressure () =
  let config = { Session.default_config with max_outbound = 64 } in
  let s = Session.create ~config ~id:6 ~now:0 () in
  ignore (Session.feed s ~now:0 (Wire.encode hello));
  ignore (Framed.take_all (Session.output s));
  let big =
    Wire.Run_record { campaign = "c"; index = 0; record = String.make 100 'r' }
  in
  (match Session.send s big with
  | `Overflow -> ()
  | `Ok -> Alcotest.fail "oversized send must report Overflow");
  (* Control frames bypass the bound. *)
  Session.send_control s (Wire.Error { code = Wire.Draining; message = "bye" });
  (match session_frames s with
  | [ Wire.Error { code = Wire.Draining; _ } ] -> ()
  | _ -> Alcotest.fail "control frame must be queued despite the bound");
  (* A drained queue accepts work again. *)
  match Session.send s (Wire.Heartbeat { sent_at = 1 }) with
  | `Ok -> ()
  | `Overflow -> Alcotest.fail "drained queue must accept frames"

let test_session_drain_completes () =
  let s = Session.create ~id:7 ~now:0 () in
  ignore (Session.feed s ~now:0 (Wire.encode hello));
  let events = Session.feed s ~now:1 (Wire.encode Wire.Drain) in
  check Alcotest.bool "drain completes the session" true
    (Session.terminal s = Some Session.Completed
    && List.mem (Session.Terminated Session.Completed) events)

(* --- scheduler -------------------------------------------------------------- *)

let settled sched =
  List.for_all
    (fun campaign ->
      Scheduler.is_complete sched ~campaign
      || Scheduler.is_cancelled sched ~campaign)
    (Scheduler.campaign_ids sched)

(* Daemon turns with no client attached, until every accepted campaign
   is complete or cancelled. *)
let run_to_completion server sched =
  let guard = ref 0 in
  while not (settled sched) do
    incr guard;
    if !guard > 10_000 then Alcotest.fail "daemon failed to converge";
    Server.tick server ~now:!guard
  done

let all_records sched ~campaign =
  match Scheduler.runs sched ~campaign with
  | None -> Alcotest.failf "campaign %s unknown" campaign
  | Some runs ->
    List.init runs (fun index ->
        match Scheduler.record sched ~campaign ~index with
        | Some line -> line
        | None -> Alcotest.failf "campaign %s missing record %d" campaign index)

(* The reference for a spec is the CLI's campaign, [perple run --runs R]:
   every run through [Engine.campaign_entries], nothing skipped, per-run
   metrics captured as under [--journal].  Whatever the daemon does —
   journaled, killed, restarted, re-jobbed, sharded over workers — must
   stream exactly these record lines and this merged metrics chunk. *)
let reference_records sp =
  let r =
    match Scheduler.resolve_spec sp with
    | Ok r -> r
    | Error m -> Alcotest.failf "reference spec rejected: %s" m
  in
  let entries =
    match
      Engine.campaign_entries
        ~config:(Config.with_model r.Scheduler.r_model Config.default)
        ~counter:r.Scheduler.r_counter ~jobs:1 ~on_entry:ignore
        ~runs:sp.Wire.runs ~seed:sp.Wire.seed ~iterations:sp.Wire.iterations
        r.Scheduler.r_test
    with
    | Ok entries -> entries
    | Error _ -> Alcotest.fail "reference campaign did not convert"
  in
  let summaries =
    Array.to_list (Array.map (fun e -> Ledger.of_entry (Option.get e)) entries)
  in
  let sink = Metrics.create_sink () in
  List.iter
    (fun s ->
      Option.iter (fun m -> ignore (Metrics.merge_json sink m)) s.Ledger.metrics)
    summaries;
  ( List.map Ledger.record_line summaries,
    Json.to_string (Metrics.to_json sink) )

let test_scheduler_validation () =
  let sched = Result.get_ok (Scheduler.create ~journal:None ()) in
  let reject what sp =
    match Scheduler.submit sched sp with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s must be rejected" what
  in
  reject "empty campaign id" (spec ~campaign:"" ());
  reject "unknown test" (spec ~test:"no-such-test" ());
  reject "zero runs" (spec ~runs:0 ());
  reject "zero iterations" (spec ~iterations:0 ());
  reject "negative seed" (spec ~seed:(-1) ());
  reject "unknown counter" (spec ~counter:"quantum" ());
  reject "unknown model" (spec ~model:"arm" ());
  (* Inline litmus source is accepted and validated. *)
  (match
     Scheduler.submit sched
       (spec ~campaign:"inline" ~test:"bogus source\nwith lines" ())
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unparseable source must be rejected");
  Scheduler.close sched

(* The name tables round-trip: every model and counter name the CLI or
   the wire prints parses back to the same value. *)
let test_spec_name_tables () =
  List.iter
    (fun m ->
      check Alcotest.bool (Config.model_name m) true
        (Config.model_of_name (Config.model_name m) = Some m))
    Config.[ Sc; Tso; Pso; Tso_store_reorder; Tso_fence_ignored ];
  check Alcotest.bool "unknown model" true (Config.model_of_name "arm" = None);
  List.iter
    (fun (c, wire, aliases) ->
      check Alcotest.string "wire name" wire (Engine.counter_wire_name c);
      List.iter
        (fun name ->
          check Alcotest.bool name true (Engine.counter_of_name name = Some c))
        (wire :: aliases))
    [
      (Engine.Heuristic, "heur", [ "heuristic" ]);
      (Engine.Exhaustive, "exh", [ "exhaustive" ]);
      (Engine.Exhaustive_reference, "exh-ref", [ "reference" ]);
    ];
  check Alcotest.(list string) "printed names"
    [ "heuristic"; "exhaustive"; "exhaustive-reference" ]
    (List.map Engine.counter_name
       Engine.[ Heuristic; Exhaustive; Exhaustive_reference ]);
  check Alcotest.bool "unknown counter" true
    (Engine.counter_of_name "exhaustive-reference" = None)

(* Every wire spec is either refused at the boundary with a message, or
   runs: a spec the daemon accepts never fails inside the engine. *)
let spec_boundary_property =
  let inline = Perple_litmus.Printer.to_string in
  (* Three valid names to one invalid, so about one case in ten runs. *)
  let names valid invalid =
    QCheck.Gen.(frequency [ (3, oneofl valid); (1, oneofl invalid) ])
  in
  let tests =
    names
      [ "sb"; "mp"; "lb"; "pm-epoch-order"; inline Catalog.sb ]
      [
        (List.hd Catalog.non_convertible).Perple_litmus.Ast.name;
        inline (List.hd Catalog.non_convertible);
        "no-such-test";
        "";
        "bogus source\nwith lines";
      ]
  in
  let counters = names [ "heur"; "exh"; "exh-ref"; "reference" ] [ "quantum"; "" ] in
  let models =
    names [ "sc"; "tso"; "pso"; "tso+store-reorder-bug" ] [ "arm"; "TSO" ]
  in
  QCheck.Test.make ~name:"wire spec is rejected with a message or runs"
    ~count:1000
    QCheck.(
      make
        Gen.(
          pair
            (triple tests counters models)
            (triple (int_range (-1) 3) (int_range (-1) 3) (int_range (-2) 2))))
    (fun ((test, counter, model), (runs, iterations, seed)) ->
      let sp = spec ~test ~counter ~model ~runs ~iterations ~seed () in
      match Scheduler.resolve_spec sp with
      | Error m -> m <> ""
      | Ok r -> (
        match
          Engine.campaign_entries
            ~config:(Config.with_model r.Scheduler.r_model Config.default)
            ~counter:r.Scheduler.r_counter ~runs ~seed ~iterations
            r.Scheduler.r_test
        with
        | Error _ -> false
        | Ok entries ->
          Array.for_all
            (function Some { Engine.outcome = Ok _; _ } -> true | _ -> false)
            entries))

let test_scheduler_idempotent_submit () =
  let sched = Result.get_ok (Scheduler.create ~journal:None ()) in
  let server = Server.create ~scheduler:sched () in
  let sp = spec ~runs:2 ~iterations:100 () in
  let a = Result.get_ok (Scheduler.submit sched sp) in
  run_to_completion server sched;
  (match Scheduler.submit sched sp with
  | Ok b ->
    check Alcotest.string "same digest" a.Scheduler.digest b.Scheduler.digest;
    check Alcotest.int "resubmit reports completed work" 2 b.Scheduler.completed
  | Error m -> Alcotest.failf "idempotent resubmit rejected: %s" m);
  (match Scheduler.submit sched { sp with Wire.iterations = 101 } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parameter drift under a reused id must be rejected");
  Scheduler.close sched

let test_scheduler_cancel () =
  let sched = Result.get_ok (Scheduler.create ~journal:None ()) in
  let server = Server.create ~scheduler:sched () in
  let sp = spec ~campaign:"victim" ~runs:8 ~iterations:100 () in
  ignore (Result.get_ok (Scheduler.submit sched sp));
  Server.tick server ~now:0;
  let before = Scheduler.completed sched ~campaign:"victim" in
  check Alcotest.bool "one shard ran before the cancel" true
    (before > 0 && before < 8);
  check Alcotest.bool "cancel known campaign" true
    (Scheduler.cancel sched ~campaign:"victim");
  for now = 1 to 20 do
    Server.tick server ~now
  done;
  check Alcotest.int "cancelled campaigns stop scheduling" before
    (Scheduler.completed sched ~campaign:"victim");
  check Alcotest.bool "cancel unknown campaign" false
    (Scheduler.cancel sched ~campaign:"ghost");
  check Alcotest.bool "no metrics for a cancelled campaign" true
    (Scheduler.metrics_payload sched ~campaign:"victim" = None);
  Scheduler.close sched

(* Kill -9 equivalence at the daemon core: for several kill points and
   jobs values, close the journal mid-campaign without draining —
   optionally with a local lease granted and its shard never finished —
   resume it in a fresh scheduler and server (different jobs, hence a
   different default shard size), and demand byte-identical records plus
   an undamaged journal. *)
let test_scheduler_kill_resume_equivalence () =
  with_scratch @@ fun () ->
  let sp = spec ~campaign:"kr" ~runs:9 ~iterations:120 ~seed:11 () in
  let reference, ref_metrics = reference_records sp in
  List.iter
    (fun (jobs_before, jobs_after, kill_after_turns, mid_shard) ->
      let label =
        Printf.sprintf "%d/%d/%d/%b" jobs_before jobs_after kill_after_turns
          mid_shard
      in
      let path =
        in_scratch
          (Printf.sprintf "kr-%d-%d-%d-%b.journal" jobs_before jobs_after
             kill_after_turns mid_shard)
      in
      let s1 =
        Result.get_ok
          (Scheduler.create ~jobs:jobs_before ~journal:(Some path) ())
      in
      let co1 =
        Result.get_ok
          (Coordinator.create
             ~config:
               { Coordinator.default_config with
                 shard_runs = max 4 jobs_before }
             ~scheduler:s1 ())
      in
      let server1 = Server.create ~coordinator:co1 ~scheduler:s1 () in
      ignore (Result.get_ok (Scheduler.submit s1 sp));
      for now = 1 to kill_after_turns do
        Server.tick server1 ~now
      done;
      (* Killed between granting a local lease and finishing its shard. *)
      if mid_shard then ignore (Coordinator.lease_local co1 ~now:0);
      let before = Scheduler.completed s1 ~campaign:"kr" in
      Scheduler.close s1;
      (* Restart over the same journal, different parallelism. *)
      let s2 =
        Result.get_ok
          (Scheduler.create ~jobs:jobs_after ~journal:(Some path) ())
      in
      let server2 = Server.create ~scheduler:s2 () in
      let resumed = Result.get_ok (Scheduler.submit s2 sp) in
      check Alcotest.int
        (Printf.sprintf "journaled runs survive kill (%s)" label)
        before resumed.Scheduler.completed;
      run_to_completion server2 s2;
      check
        Alcotest.(list string)
        (Printf.sprintf "records byte-identical (%s)" label)
        reference
        (all_records s2 ~campaign:"kr");
      check Alcotest.string
        (Printf.sprintf "metrics payload identical (%s)" label)
        ref_metrics
        (Option.get (Scheduler.metrics_payload s2 ~campaign:"kr"));
      Scheduler.close s2;
      match Journal.load path with
      | Error m -> Alcotest.failf "journal unreadable after resume: %s" m
      | Ok r ->
        check Alcotest.int "no damaged bytes after clean shutdown" 0
          r.Journal.dropped_bytes)
    [
      (1, 4, 0, false);
      (1, 1, 2, false);
      (4, 1, 1, false);
      (2, 3, 3, false);
      (4, 2, 99, false);
      (1, 8, 1, true);
      (6, 1, 0, true);
    ]

let test_scheduler_draining_marker_resumes () =
  with_scratch @@ fun () ->
  let path = in_scratch "drain.journal" in
  let sp = spec ~campaign:"dr" ~runs:6 ~iterations:100 () in
  let s1 = Result.get_ok (Scheduler.create ~journal:(Some path) ()) in
  let server1 = Server.create ~scheduler:s1 () in
  ignore (Result.get_ok (Scheduler.submit s1 sp));
  Server.tick server1 ~now:0;
  Scheduler.note_draining s1;
  Scheduler.close s1;
  (* The marker must not poison the resume path. *)
  let s2 = Result.get_ok (Scheduler.create ~journal:(Some path) ()) in
  let server2 = Server.create ~scheduler:s2 () in
  let resumed = Result.get_ok (Scheduler.submit s2 sp) in
  check Alcotest.int "one shard survived the drain" 4
    resumed.Scheduler.completed;
  run_to_completion server2 s2;
  check Alcotest.bool "campaign finishes after drained restart" true
    (Scheduler.is_complete s2 ~campaign:"dr");
  Scheduler.close s2

(* --- server/client sans-IO --------------------------------------------------- *)

let fast_session =
  { Session.default_config with heartbeat_every = 50; liveness_timeout = 500 }

let fast_client = { Client.heartbeat_every = 50; liveness_timeout = 500 }

exception Settled

(* Shuttle bytes between one sans-IO client and the server until the
   client reaches a terminal status; returns ticks consumed. *)
let drive ?(budget = 10_000) server conn client =
  (try
     for now = 0 to budget do
       let cbytes = Framed.take_all (Client.output client) in
       if cbytes <> "" then Server.input server ~conn ~now cbytes;
       let sbytes = Server.flush server ~conn in
       if sbytes <> "" then Client.input client ~now sbytes;
       Server.tick server ~now;
       Client.tick client ~now;
       if Client.status client <> Client.Pending then raise Settled
     done
   with Settled -> ());
  (* Deliver the client's parting bytes (its [Drain]) so the server
     session can complete its half of the handshake. *)
  let cbytes = Framed.take_all (Client.output client) in
  if cbytes <> "" then Server.input server ~conn ~now:(budget + 1) cbytes;
  Client.status client

let test_server_happy_path () =
  let sp = spec ~campaign:"happy" ~runs:3 ~iterations:150 () in
  let reference, ref_metrics = reference_records sp in
  let sched = Result.get_ok (Scheduler.create ~jobs:2 ~journal:None ()) in
  let server = Server.create ~session_config:fast_session ~scheduler:sched () in
  let conn = Server.connect server ~now:0 in
  let client = Client.create ~config:fast_client ~spec:sp ~now:0 () in
  (match drive server conn client with
  | Client.Done outcome ->
    check Alcotest.(list string) "streamed records match the reference"
      reference outcome.Client.records;
    check Alcotest.string "metrics chunk matches the reference" ref_metrics
      outcome.Client.metrics;
    check Alcotest.int "nothing was journaled before accept" 0
      outcome.Client.completed_at_accept
  | Client.Failed m -> Alcotest.failf "happy path failed: %s" m
  | Client.Pending -> Alcotest.fail "happy path hung");
  (* The clean Drain handshake completes the server session too. *)
  check Alcotest.bool "server session completed" true
    (Server.terminal server ~conn = Some Session.Completed);
  Scheduler.close sched

let test_server_rejects_bad_spec () =
  let sched = Result.get_ok (Scheduler.create ~journal:None ()) in
  let server = Server.create ~session_config:fast_session ~scheduler:sched () in
  let conn = Server.connect server ~now:0 in
  let client =
    Client.create ~config:fast_client ~spec:(spec ~test:"no-such-test" ())
      ~now:0 ()
  in
  (match drive server conn client with
  | Client.Failed m ->
    check Alcotest.bool "rejection is classified" true
      (String.length m >= 8 && String.sub m 0 8 = "rejected")
  | _ -> Alcotest.fail "bad spec must fail the submission");
  Scheduler.close sched

let test_server_drain_refuses_submissions () =
  let sched = Result.get_ok (Scheduler.create ~journal:None ()) in
  let server = Server.create ~session_config:fast_session ~scheduler:sched () in
  Server.drain server ~now:0;
  let conn = Server.connect server ~now:0 in
  let client = Client.create ~config:fast_client ~spec:(spec ()) ~now:0 () in
  (match drive server conn client with
  | Client.Failed m ->
    check Alcotest.bool "draining is classified" true
      (String.length m >= 8 && String.sub m 0 8 = "draining")
  | _ -> Alcotest.fail "a draining daemon must refuse new work");
  check Alcotest.bool "draining failures are retryable" true
    (Client.retryable "draining: daemon is draining");
  check Alcotest.bool "rejections are not retryable" false
    (Client.retryable "rejected: unknown test");
  Scheduler.close sched

(* Kill the daemon between a client's records, restart over the same
   journal, and demand that a second client sees the exact bytes the
   first would have: the full stream, index order, journaled prefix
   included. *)
let test_server_kill_restart_stream_identity () =
  with_scratch @@ fun () ->
  let sp = spec ~campaign:"resurrect" ~runs:5 ~iterations:130 ~seed:23 () in
  let reference, ref_metrics = reference_records sp in
  let path = in_scratch "server.journal" in
  let s1 = Result.get_ok (Scheduler.create ~jobs:2 ~journal:(Some path) ()) in
  let server1 = Server.create ~session_config:fast_session ~scheduler:s1 () in
  let conn1 = Server.connect server1 ~now:0 in
  let client1 = Client.create ~config:fast_client ~spec:sp ~now:0 () in
  (* Let the submission land and one shard retire, then simulate
     kill -9: the scheduler journal fd closes, nothing drains. *)
  let cbytes = Framed.take_all (Client.output client1) in
  Server.input server1 ~conn:conn1 ~now:0 cbytes;
  Client.input client1 ~now:0 (Server.flush server1 ~conn:conn1);
  Server.input server1 ~conn:conn1 ~now:1
    (Framed.take_all (Client.output client1));
  Server.tick server1 ~now:1;
  let journaled = Scheduler.completed s1 ~campaign:"resurrect" in
  check Alcotest.bool "kill point is mid-campaign" true
    (journaled > 0 && journaled < 5);
  Scheduler.close s1;
  (* Restart: fresh scheduler and server over the same journal. *)
  let s2 = Result.get_ok (Scheduler.create ~jobs:1 ~journal:(Some path) ()) in
  let server2 = Server.create ~session_config:fast_session ~scheduler:s2 () in
  let conn2 = Server.connect server2 ~now:0 in
  let client2 = Client.create ~config:fast_client ~spec:sp ~now:0 () in
  (match drive server2 conn2 client2 with
  | Client.Done outcome ->
    (* The restarted daemon resumes campaigns in the background, so by
       the time the submit lands it may have retired more runs than the
       kill point journaled — never fewer. *)
    check Alcotest.bool "accept covers the journaled prefix" true
      (outcome.Client.completed_at_accept >= journaled
      && outcome.Client.completed_at_accept <= 5);
    check Alcotest.(list string) "restarted stream is byte-identical"
      reference outcome.Client.records;
    check Alcotest.string "metrics survive the crash byte-identically"
      ref_metrics outcome.Client.metrics
  | Client.Failed m -> Alcotest.failf "restarted stream failed: %s" m
  | Client.Pending -> Alcotest.fail "restarted stream hung");
  Scheduler.close s2

(* --- chaos ------------------------------------------------------------------- *)

let chaos_budget = 20_000

(* One seeded schedule: a client submits through a pair of chaos
   proxies; transport-level deaths are retried on a fresh connection
   (the daemon survives, the journal persists).  Returns the terminal
   classification, which must exist — running out of ticks is a hang,
   the one forbidden outcome. *)
let run_chaos_schedule ~seed sched =
  let server = Server.create ~session_config:fast_session ~scheduler:sched () in
  let sp = spec ~campaign:"chaos" ~runs:2 ~iterations:60 ~seed:(seed land 0xFF) () in
  let profile = Chaos.rough in
  let attempt = ref 0 in
  let finished = ref None in
  let now = ref 0 in
  while !finished = None && !now < chaos_budget do
    incr attempt;
    let c2s = Chaos.create ~seed:((seed * 31) + !attempt) profile in
    let s2c = Chaos.create ~seed:((seed * 67) + !attempt) profile in
    let conn = Server.connect server ~now:!now in
    let client = Client.create ~config:fast_client ~spec:sp ~now:!now () in
    let server_saw_eof = ref false in
    let client_saw_eof = ref false in
    (try
       while !now < chaos_budget do
         let t = !now in
         Chaos.push c2s ~now:t (Framed.take_all (Client.output client));
         (match Chaos.pull c2s ~now:t with
         | `Data bytes -> Server.input server ~conn ~now:t bytes
         | `Idle -> ()
         | `Cut ->
           if not !server_saw_eof then begin
             server_saw_eof := true;
             Server.eof server ~conn ~now:t
           end);
         Chaos.push s2c ~now:t (Server.flush server ~conn);
         (match Chaos.pull s2c ~now:t with
         | `Data bytes -> Client.input client ~now:t bytes
         | `Idle -> ()
         | `Cut ->
           if not !client_saw_eof then begin
             client_saw_eof := true;
             Client.eof client ~now:t
           end);
         Server.tick server ~now:t;
         Client.tick client ~now:t;
         incr now;
         match Client.status client with
         | Client.Pending -> ()
         | Client.Done _ as s ->
           finished := Some s;
           raise Settled
         | Client.Failed reason as s ->
           if Client.retryable reason && !attempt < 5 then raise Settled
           else begin
             finished := Some s;
             raise Settled
           end
       done
     with Settled -> ());
    (* The dead connection is closed server-side, as a real driver
       would; the daemon itself lives on. *)
    if Server.terminal server ~conn = None then Server.eof server ~conn ~now:!now
  done;
  match !finished with
  | Some status -> status
  | None ->
    Alcotest.failf "chaos schedule %d HUNG after %d ticks (attempt %d)" seed
      chaos_budget !attempt

(* >= 500 seeded fault schedules, every one ending classified with an
   undamaged journal.  Successful schedules must also stream the
   reference bytes — chaos may slow the protocol down, never bend it. *)
let test_chaos_schedules () =
  with_scratch @@ fun () ->
  let references = Hashtbl.create 16 in
  let reference seed =
    match Hashtbl.find_opt references (seed land 0xFF) with
    | Some r -> r
    | None ->
      let r =
        reference_records
          (spec ~campaign:"chaos" ~runs:2 ~iterations:60 ~seed:(seed land 0xFF) ())
      in
      Hashtbl.replace references (seed land 0xFF) r;
      r
  in
  let done_count = ref 0 and failed_count = ref 0 in
  for seed = 0 to 499 do
    let path = in_scratch "chaos.journal" in
    if Sys.file_exists path then Sys.remove path;
    let sched = Result.get_ok (Scheduler.create ~journal:(Some path) ()) in
    (match run_chaos_schedule ~seed sched with
    | Client.Done outcome ->
      incr done_count;
      let ref_records, ref_metrics = reference seed in
      if outcome.Client.records <> ref_records then
        Alcotest.failf "chaos schedule %d streamed wrong records" seed;
      if outcome.Client.metrics <> ref_metrics then
        Alcotest.failf "chaos schedule %d streamed wrong metrics" seed
    | Client.Failed reason ->
      incr failed_count;
      if String.length reason = 0 then
        Alcotest.failf "chaos schedule %d failed without a reason" seed
    | Client.Pending -> Alcotest.failf "chaos schedule %d unsettled" seed);
    Scheduler.close sched;
    match Journal.load path with
    | Error m -> Alcotest.failf "chaos schedule %d corrupted journal: %s" seed m
    | Ok r ->
      if r.Journal.dropped_bytes <> 0 then
        Alcotest.failf "chaos schedule %d left %d damaged journal bytes" seed
          r.Journal.dropped_bytes
  done;
  check Alcotest.int "every schedule classified" 500
    (!done_count + !failed_count);
  if !done_count = 0 then
    Alcotest.fail "chaos suite never succeeded: retry discipline is broken";
  if !failed_count = 0 then
    Alcotest.fail
      "chaos suite never failed: fault injection is not reaching the wire"

(* Same seed, same faults, same metrics dump — the observability
   satellite's determinism contract. *)
let test_chaos_metrics_deterministic () =
  with_scratch @@ fun () ->
  let dump () =
    let sink = Metrics.create_sink () in
    Metrics.scoped sink (fun () ->
        let path = in_scratch "det.journal" in
        if Sys.file_exists path then Sys.remove path;
        let sched = Result.get_ok (Scheduler.create ~journal:(Some path) ()) in
        ignore (run_chaos_schedule ~seed:42 sched);
        Scheduler.close sched);
    Json.to_string (Metrics.to_json sink)
  in
  let first = dump () in
  let second = dump () in
  check Alcotest.string "chaos metrics dump is seed-deterministic" first
    second;
  check Alcotest.bool "chaos counters were actually recorded" true
    (let contains_sub s sub =
       let n = String.length sub in
       let rec go i =
         i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
       in
       go 0
     in
     contains_sub first "chaos." && contains_sub first "service.")

(* Chaos proxy unit behavior: determinism and FIFO ordering. *)
let test_chaos_proxy_deterministic () =
  let transcript seed =
    let c = Chaos.create ~seed Chaos.rough in
    let out = Buffer.create 64 in
    for now = 0 to 200 do
      if now mod 7 = 0 then
        Chaos.push c ~now (Printf.sprintf "payload-%d;" now);
      match Chaos.pull c ~now with
      | `Data d -> Buffer.add_string out d
      | `Idle -> Buffer.add_string out "."
      | `Cut -> Buffer.add_string out "!"
    done;
    Buffer.contents out
  in
  check Alcotest.string "same seed, same mangling" (transcript 9) (transcript 9);
  if transcript 9 = transcript 10 then
    Alcotest.fail "different seeds should mangle differently";
  (* A quiet profile is a transparent, order-preserving pipe. *)
  let c = Chaos.create ~seed:1 Chaos.quiet in
  Chaos.push c ~now:0 "abc";
  Chaos.push c ~now:0 "def";
  let got = Buffer.create 8 in
  for now = 0 to 3 do
    match Chaos.pull c ~now with
    | `Data d -> Buffer.add_string got d
    | `Idle | `Cut -> ()
  done;
  check Alcotest.string "quiet profile preserves bytes and order" "abcdef"
    (Buffer.contents got);
  check Alcotest.int "quiet profile injects nothing" 0 (Chaos.faults c)

(* --- journal directory durability (satellite fix) ---------------------------- *)

let test_journal_create_fsyncs_directory () =
  with_scratch @@ fun () ->
  (* Functional regression for the directory-fsync fix: creation in a
     fresh directory and in the working directory (dirname ".") both
     succeed, and reopening an existing journal doesn't re-create. *)
  let dir = in_scratch "nested" in
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "j.log" in
  let j = Journal.create path in
  Journal.append j (Json.Obj [ ("kind", Json.String "header") ]);
  Journal.close j;
  let j = Journal.open_append path in
  Journal.append j (Json.Obj [ ("kind", Json.String "x") ]);
  Journal.close j;
  (match Journal.load path with
  | Ok r ->
    check Alcotest.int "both records durable" 2 (List.length r.Journal.records)
  | Error m -> Alcotest.failf "reload failed: %s" m);
  let cwd = Sys.getcwd () in
  Sys.chdir scratch;
  Fun.protect ~finally:(fun () -> Sys.chdir cwd) @@ fun () ->
  let j = Journal.create "relative.log" in
  Journal.append j (Json.Obj [ ("kind", Json.String "header") ]);
  Journal.close j;
  check Alcotest.bool "relative path (dirname = .) works" true
    (Sys.file_exists "relative.log")

(* --- daemon end-to-end over a real socket ------------------------------------ *)

let binary =
  lazy
    (List.find_opt Sys.file_exists
       [ "../bin/perple.exe"; "_build/default/bin/perple.exe" ])

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  text

let test_daemon_end_to_end () =
  match Lazy.force binary with
  | None -> () (* binary not built in this context; CI smoke covers it *)
  | Some bin ->
    with_scratch @@ fun () ->
    let bin =
      if Filename.is_relative bin then Filename.concat (Sys.getcwd ()) bin
      else bin
    in
    (* Unix socket paths are capped around 104 bytes; keep it short. *)
    let sock = Filename.concat scratch "e2e.sock" in
    let journal = in_scratch "e2e.journal" in
    let serve_cmd =
      Printf.sprintf
        "%s serve --socket %s --journal %s --jobs 2 > %s 2>&1 & echo $! > %s"
        (Filename.quote bin) (Filename.quote sock) (Filename.quote journal)
        (Filename.quote (in_scratch "serve.log"))
        (Filename.quote (in_scratch "serve.pid"))
    in
    if Sys.command serve_cmd <> 0 then Alcotest.fail "could not spawn daemon";
    let deadline = Unix.gettimeofday () +. 10.0 in
    while
      (not (Sys.file_exists sock)) && Unix.gettimeofday () < deadline
    do
      Unix.sleepf 0.05
    done;
    if not (Sys.file_exists sock) then
      Alcotest.failf "daemon never bound its socket:\n%s"
        (read_file (in_scratch "serve.log"));
    let pid = int_of_string (String.trim (read_file (in_scratch "serve.pid"))) in
    Fun.protect ~finally:(fun () ->
        try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    @@ fun () ->
    let submit out =
      Sys.command
        (Printf.sprintf
           "%s submit e2e podwr000 --socket %s --runs 3 --iterations 500 > %s \
            2> %s"
           (Filename.quote bin) (Filename.quote sock)
           (Filename.quote (in_scratch out))
           (Filename.quote (in_scratch (out ^ ".err"))))
    in
    if submit "first.stream" <> 0 then
      Alcotest.failf "first submit failed:\n%s"
        (read_file (in_scratch "first.stream.err"));
    if submit "second.stream" <> 0 then
      Alcotest.failf "resubmit failed:\n%s"
        (read_file (in_scratch "second.stream.err"));
    check Alcotest.string "daemon re-streams byte-identically"
      (read_file (in_scratch "first.stream"))
      (read_file (in_scratch "second.stream"));
    check Alcotest.bool "stream carries records and metrics" true
      (let text = read_file (in_scratch "first.stream") in
       String.length text > 0
       && List.length (String.split_on_char '\n' text) >= 4);
    (* SIGTERM drains: socket gone, draining marker journaled. *)
    Unix.kill pid Sys.sigterm;
    let deadline = Unix.gettimeofday () +. 10.0 in
    while Sys.file_exists sock && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.05
    done;
    if Sys.file_exists sock then Alcotest.fail "daemon did not drain on SIGTERM";
    match Journal.load journal with
    | Error m -> Alcotest.failf "drained journal unreadable: %s" m
    | Ok r ->
      check Alcotest.int "drained journal undamaged" 0 r.Journal.dropped_bytes;
      check Alcotest.bool "draining marker present" true
        (List.exists
           (fun j -> Json.member "kind" j = Some (Json.String "draining"))
           r.Journal.records)

(* --- the connection layer over real processes ------------------------------- *)

(* The built binary as an absolute path, or [None] outside a build tree
   (the CI smoke jobs cover these paths there). *)
let perple () =
  Option.map
    (fun bin ->
      if Filename.is_relative bin then Filename.concat (Sys.getcwd ()) bin
      else bin)
    (Lazy.force binary)

(* Start [argv] with stdout and stderr appended to [log]. *)
let spawn ~log argv =
  let out =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid = Unix.create_process (List.hd argv) (Array.of_list argv) Unix.stdin out out in
  Unix.close out;
  pid

let rec poll ~deadline f =
  f () || (Unix.gettimeofday () < deadline && (Unix.sleepf 0.02; poll ~deadline f))

let contains ~sub text =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length text && (String.sub text i n = sub || at (i + 1))
  in
  at 0

(* Reap [pid] within [seconds]: [Some status], or [None] after a SIGKILL. *)
let reap ~seconds pid =
  let status = ref None in
  ignore
    (poll ~deadline:(Unix.gettimeofday () +. seconds) (fun () ->
         match Unix.waitpid [ Unix.WNOHANG ] pid with
         | 0, _ -> false
         | _, st ->
           status := Some st;
           true));
  if !status = None then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid)
  end;
  !status

(* Kill [pid] unless it was already reaped. *)
let cleanup pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> ignore (reap ~seconds:0. pid)
  | _ | (exception Unix.Unix_error (Unix.ECHILD, _, _)) -> ()

let expect_143 what = function
  | Some (Unix.WEXITED 143) -> ()
  | Some (Unix.WEXITED n) -> Alcotest.failf "%s exited %d, want 143" what n
  | Some _ -> Alcotest.failf "%s died by a signal, want exit 143" what
  | None -> Alcotest.failf "%s did not exit in time" what

let terminate what pid =
  Unix.kill pid Sys.sigterm;
  expect_143 what (reap ~seconds:10. pid)

(* [perple serve] on [sock], optionally under [ulimit -n fd_limit];
   returns once the socket is bound. *)
let serve ?fd_limit ~log bin sock extra =
  let argv = bin :: "serve" :: "--socket" :: sock :: extra in
  let argv =
    match fd_limit with
    | None -> argv
    | Some n ->
      "/bin/sh" :: "-c" :: Printf.sprintf "ulimit -n %d && exec \"$@\"" n
      :: "sh" :: argv
  in
  let pid = spawn ~log argv in
  if
    not
      (poll ~deadline:(Unix.gettimeofday () +. 10.) (fun () ->
           Sys.file_exists sock))
  then begin
    ignore (reap ~seconds:0. pid);
    Alcotest.failf "daemon never bound %s:\n%s" sock (read_file log)
  end;
  pid

let submit bin ~sock ~out args =
  let code =
    Sys.command
      (Printf.sprintf "%s submit %s --socket %s > %s 2> %s.err"
         (Filename.quote bin) args (Filename.quote sock) (Filename.quote out)
         (Filename.quote out))
  in
  if code <> 0 then
    Alcotest.failf "submit %s exited %d:\n%s" args code (read_file (out ^ ".err"));
  read_file out

(* A daemon out of descriptors keeps serving: the failed accepts are
   counted, the connections it holds drain, and the backlog is accepted
   once descriptors free up.  It used to die on the uncaught EMFILE. *)
let test_daemon_survives_emfile () =
  match perple () with
  | None -> ()
  | Some bin ->
    with_scratch @@ fun () ->
    let sock = in_scratch "fd.sock" in
    let pid = serve ~fd_limit:12 ~log:(in_scratch "serve.log") bin sock [] in
    Fun.protect ~finally:(fun () -> cleanup pid) @@ fun () ->
    let held =
      List.init 20 (fun _ ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX sock);
          fd)
    in
    Unix.sleepf 0.5;
    List.iter Unix.close held;
    let stream =
      submit bin ~sock ~out:(in_scratch "after.stream")
        "fd podwr000 --runs 2 --iterations 200"
    in
    check Alcotest.bool "the same daemon still streams" true
      (contains ~sub:"metrics:" stream);
    terminate "daemon" pid

(* SIGTERM ends a worker's back-off sleep at once, not after it: the
   sleeps double without a cap, so at --retries 50 they reach minutes. *)
let test_worker_sigterm_while_backing_off () =
  match perple () with
  | None -> ()
  | Some bin ->
    with_scratch @@ fun () ->
    let log = in_scratch "worker.log" in
    let pid =
      spawn ~log
        [ bin; "worker"; "--socket"; in_scratch "nowhere.sock"; "--retries"; "50" ]
    in
    if
      not
        (poll ~deadline:(Unix.gettimeofday () +. 10.) (fun () ->
             contains ~sub:"reconnecting in 1600 ms" (read_file log)))
    then begin
      ignore (reap ~seconds:0. pid);
      Alcotest.failf "worker never reached the 1600 ms sleep:\n%s" (read_file log)
    end;
    Unix.kill pid Sys.sigterm;
    expect_143 "worker within 0.5 s of SIGTERM" (reap ~seconds:0.5 pid)

(* A real [perple worker] takes the daemon's shards, and the stream is
   byte-identical to a worker-less daemon's. *)
let test_daemon_with_real_worker () =
  match perple () with
  | None -> ()
  | Some bin ->
    with_scratch @@ fun () ->
    let args = "wc sb --runs 8 --iterations 20000 --seed 11" in
    let reference =
      let sock = in_scratch "ref.sock" in
      let pid = serve ~log:(in_scratch "ref.log") bin sock [] in
      Fun.protect ~finally:(fun () -> cleanup pid) @@ fun () ->
      let stream = submit bin ~sock ~out:(in_scratch "ref.stream") args in
      terminate "reference daemon" pid;
      stream
    in
    let sock = in_scratch "w.sock" and journal = in_scratch "w.journal" in
    let daemon =
      serve ~log:(in_scratch "serve.log") bin sock
        [ "--journal"; journal; "--shard-runs"; "1" ]
    in
    let wlog = in_scratch "w1.log" in
    let worker = spawn ~log:wlog [ bin; "worker"; "--socket"; sock; "--name"; "w1" ] in
    Fun.protect ~finally:(fun () ->
        cleanup worker;
        cleanup daemon)
    @@ fun () ->
    (* Connected before the submit, so the in-process worker stands by. *)
    ignore
      (poll ~deadline:(Unix.gettimeofday () +. 10.) (fun () ->
           contains ~sub:"dialling" (read_file wlog)));
    Unix.sleepf 0.3;
    let stream = submit bin ~sock ~out:(in_scratch "w.stream") args in
    check Alcotest.string "stream matches the worker-less daemon" reference stream;
    check Alcotest.bool "journal holds a w1 lease" true
      (List.exists
         (fun line ->
           contains ~sub:"\"kind\":\"lease\"" line
           && contains ~sub:"\"worker\":\"w1\"" line)
         (String.split_on_char '\n' (read_file journal)));
    terminate "worker" worker;
    terminate "daemon" daemon

(* An idle daemon and an idle connected worker sleep in their waits:
   each spends at most 5% of its lifetime on the CPU. *)
let test_idle_cpu () =
  match perple () with
  | None -> ()
  | Some bin ->
    with_scratch @@ fun () ->
    let sock = in_scratch "idle.sock" in
    let started = Unix.gettimeofday () in
    let daemon = serve ~log:(in_scratch "serve.log") bin sock [] in
    let worker =
      spawn ~log:(in_scratch "w.log") [ bin; "worker"; "--socket"; sock ]
    in
    Fun.protect ~finally:(fun () ->
        cleanup worker;
        cleanup daemon)
    @@ fun () ->
    Unix.sleepf 2.0;
    (* Children's CPU time is credited when they are reaped. *)
    let cpu_of what pid =
      let before = Unix.times () in
      terminate what pid;
      let after = Unix.times () in
      after.Unix.tms_cutime +. after.Unix.tms_cstime
      -. before.Unix.tms_cutime -. before.Unix.tms_cstime
    in
    let worker_cpu = cpu_of "worker" worker in
    let daemon_cpu = cpu_of "daemon" daemon in
    let lifetime = Unix.gettimeofday () -. started in
    List.iter
      (fun (what, cpu) ->
        if cpu > 0.05 *. lifetime then
          Alcotest.failf "idle %s used %.3f s of CPU in %.2f s" what cpu lifetime)
      [ ("worker", worker_cpu); ("daemon", daemon_cpu) ]

(* --- suite ------------------------------------------------------------------- *)

let suite =
  [
    ( "service.wire",
      List.map QCheck_alcotest.to_alcotest
        (roundtrip_properties
        @ [ truncation_property; corruption_never_raises_property ])
      @ [ Alcotest.test_case "hostile inputs classified" `Quick
            test_wire_hostile ] );
    ( "service.framed",
      [
        Alcotest.test_case "fifo buffer" `Quick test_framed_fifo;
        Alcotest.test_case "nonblocking pipe io" `Quick test_framed_pipe;
      ] );
    ( "service.session",
      [
        Alcotest.test_case "handshake" `Quick test_session_handshake;
        Alcotest.test_case "quarantine discipline" `Quick
          test_session_quarantines;
        Alcotest.test_case "heartbeats and liveness" `Quick
          test_session_liveness;
        Alcotest.test_case "backpressure" `Quick test_session_backpressure;
        Alcotest.test_case "drain completes" `Quick
          test_session_drain_completes;
      ] );
    ( "service.scheduler",
      [
        Alcotest.test_case "spec validation" `Quick test_scheduler_validation;
        Alcotest.test_case "spec name tables" `Quick test_spec_name_tables;
        QCheck_alcotest.to_alcotest spec_boundary_property;
        Alcotest.test_case "idempotent resubmit" `Quick
          test_scheduler_idempotent_submit;
        Alcotest.test_case "cancellation" `Quick test_scheduler_cancel;
        Alcotest.test_case "kill -9 resume equivalence" `Slow
          test_scheduler_kill_resume_equivalence;
        Alcotest.test_case "draining marker resumes" `Quick
          test_scheduler_draining_marker_resumes;
      ] );
    ( "service.server",
      [
        Alcotest.test_case "happy path streams the reference" `Quick
          test_server_happy_path;
        Alcotest.test_case "rejects bad specs" `Quick
          test_server_rejects_bad_spec;
        Alcotest.test_case "drain refuses submissions" `Quick
          test_server_drain_refuses_submissions;
        Alcotest.test_case "kill/restart stream identity" `Slow
          test_server_kill_restart_stream_identity;
      ] );
    ( "service.chaos",
      [
        Alcotest.test_case "proxy is deterministic and fifo" `Quick
          test_chaos_proxy_deterministic;
        Alcotest.test_case "500 seeded fault schedules" `Slow
          test_chaos_schedules;
        Alcotest.test_case "metrics deterministic under fixed seed" `Slow
          test_chaos_metrics_deterministic;
      ] );
    ( "service.durability",
      [
        Alcotest.test_case "journal creation fsyncs its directory" `Quick
          test_journal_create_fsyncs_directory;
      ] );
    ( "service.daemon",
      [
        Alcotest.test_case "end-to-end over a unix socket" `Slow
          test_daemon_end_to_end;
        Alcotest.test_case "survives running out of descriptors" `Slow
          test_daemon_survives_emfile;
        Alcotest.test_case "worker stops on SIGTERM while backing off" `Slow
          test_worker_sigterm_while_backing_off;
        Alcotest.test_case "real worker streams the reference" `Slow
          test_daemon_with_real_worker;
        Alcotest.test_case "idle daemon and worker stay off the CPU" `Slow
          test_idle_cpu;
      ] );
  ]

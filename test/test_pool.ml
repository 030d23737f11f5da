(* Tests for the domain pool and the campaign engine: order-preserving
   results regardless of domain count, exception propagation, and the
   bit-identical-campaign determinism contract — including under fault
   injection with a supervision policy. *)

module Catalog = Perple_litmus.Catalog
module Engine = Perple_core.Engine
module Pool = Perple_core.Pool
module Fault = Perple_sim.Fault
module Supervisor = Perple_harness.Supervisor

let check = Alcotest.check

(* --- Pool.map ------------------------------------------------------------- *)

let test_map_identity () =
  let expected = Array.init 37 (fun i -> i * i) in
  List.iter
    (fun jobs ->
      check
        (Alcotest.array Alcotest.int)
        (Printf.sprintf "jobs=%d preserves index order" jobs)
        expected
        (Pool.map ~jobs 37 (fun i -> i * i)))
    [ 1; 2; 4; 64 ]

let test_map_empty () =
  check Alcotest.int "n=0 yields empty" 0
    (Array.length (Pool.map ~jobs:4 0 (fun i -> i)))

let test_map_invalid () =
  Alcotest.check_raises "jobs=0 rejected"
    (Invalid_argument "Pool.map: jobs must be >= 1") (fun () ->
      ignore (Pool.map ~jobs:0 3 (fun i -> i)));
  Alcotest.check_raises "negative n rejected"
    (Invalid_argument "Pool.map: negative task count") (fun () ->
      ignore (Pool.map ~jobs:2 (-1) (fun i -> i)))

exception Boom of int

let test_map_exception () =
  List.iter
    (fun jobs ->
      match Pool.map ~jobs 16 (fun i -> if i = 11 then raise (Boom i) else i) with
      | _ -> Alcotest.fail "expected Boom to propagate"
      | exception Boom 11 -> ())
    [ 1; 4 ]

let test_available_domains () =
  check Alcotest.bool "at least one domain" true (Pool.available_domains () >= 1)

(* --- Pool.map_result: per-task fault isolation ----------------------------- *)

let test_map_result_isolates_failures () =
  List.iter
    (fun jobs ->
      let results =
        Pool.map_result ~jobs 16 (fun i ->
            if i mod 5 = 3 then raise (Boom i) else i * 10)
      in
      Array.iteri
        (fun i r ->
          match r with
          | Ok v ->
            if i mod 5 = 3 then
              Alcotest.failf "jobs=%d: task %d should have failed" jobs i;
            check Alcotest.int (Printf.sprintf "task %d value" i) (i * 10) v
          | Error e ->
            if i mod 5 <> 3 then
              Alcotest.failf "jobs=%d: task %d failed unexpectedly" jobs i;
            check Alcotest.bool "message names the exception" true
              (Pool.error_message e <> "");
            (match e.Pool.exn with
            | Boom b -> check Alcotest.int "payload preserved" i b
            | _ -> Alcotest.fail "wrong exception captured"))
        results)
    [ 1; 4 ]

let test_map_reraises_lowest_index () =
  (* Two failing tasks: map must deterministically re-raise the one with
     the lowest index, whatever the scheduling. *)
  List.iter
    (fun jobs ->
      match
        Pool.map ~jobs 16 (fun i ->
            if i = 3 || i = 11 then raise (Boom i) else i)
      with
      | _ -> Alcotest.fail "expected Boom to propagate"
      | exception Boom 3 -> ()
      | exception Boom n ->
        Alcotest.failf "jobs=%d: re-raised task %d, not the lowest" jobs n)
    [ 1; 4 ]

let test_map_result_around () =
  (* [around] wraps the whole task in the executing domain. *)
  let wrapped = Atomic.make 0 in
  let results =
    Pool.map_result ~jobs:2
      ~around:(fun _i thunk ->
        Atomic.incr wrapped;
        thunk ())
      8
      (fun i -> i)
  in
  check Alcotest.int "around ran once per task" 8 (Atomic.get wrapped);
  Array.iteri
    (fun i r ->
      match r with
      | Ok v -> check Alcotest.int "value through around" i v
      | Error _ -> Alcotest.fail "unexpected failure")
    results

(* --- Campaign determinism ------------------------------------------------- *)

let report_fingerprint (r : Engine.report) =
  ( Array.to_list r.Engine.counts,
    r.Engine.frames_examined,
    r.Engine.evaluations,
    r.Engine.virtual_runtime,
    r.Engine.degraded,
    r.Engine.salvaged_iterations )

let campaign_fingerprints ?(faults = Fault.none) ?policy ~jobs () =
  let config = Perple_sim.Config.with_faults faults Perple_sim.Config.default in
  let reports =
    Result.get_ok
      (Engine.campaign ~config ?policy ~jobs ~runs:6 ~seed:42 ~iterations:400
         Catalog.sb)
  in
  Array.to_list (Array.map report_fingerprint reports)

let test_campaign_bit_identical () =
  let baseline = campaign_fingerprints ~jobs:1 () in
  check Alcotest.int "six runs" 6 (List.length baseline);
  List.iter
    (fun jobs ->
      if campaign_fingerprints ~jobs () <> baseline then
        Alcotest.failf "campaign differs between --jobs 1 and --jobs %d" jobs)
    [ 2; 4 ]

let test_campaign_bit_identical_under_faults () =
  (* Fault randomness and supervised retries derive from the per-run seed
     alone, so even degraded/salvaged campaigns are bit-identical. *)
  let faults = [ { Fault.kind = Fault.Crash; Fault.probability = 0.15 } ] in
  let policy = Supervisor.default_policy ~iterations:400 in
  let baseline = campaign_fingerprints ~faults ~policy ~jobs:1 () in
  List.iter
    (fun jobs ->
      if campaign_fingerprints ~faults ~policy ~jobs () <> baseline then
        Alcotest.failf
          "faulty campaign differs between --jobs 1 and --jobs %d" jobs)
    [ 2; 4 ]

let test_campaign_matches_sequential_runs () =
  (* The campaign is exactly the sequential loop it replaced: one seed draw
     per run, in run order, from an RNG seeded with the campaign seed. *)
  let rng = Perple_util.Rng.create 42 in
  let expected =
    Array.init 6 (fun _ ->
        let seed =
          Int64.to_int (Perple_util.Rng.bits64 rng) land max_int
        in
        Result.get_ok (Engine.run ~seed ~iterations:400 Catalog.sb))
  in
  let reports =
    Result.get_ok
      (Engine.campaign ~jobs:4 ~runs:6 ~seed:42 ~iterations:400 Catalog.sb)
  in
  check Alcotest.int "same length" (Array.length expected)
    (Array.length reports);
  Array.iteri
    (fun i r ->
      if report_fingerprint r <> report_fingerprint expected.(i) then
        Alcotest.failf "campaign run %d differs from the sequential loop" i)
    reports

(* --- Crash classification (campaign_entries) ------------------------------- *)

let test_campaign_entries_classifies_crashes () =
  (* A negative iteration count makes every run raise inside the harness
     (Array.make with a negative size).  The campaign must complete with
     every slot classified as a crash entry — not abort. *)
  List.iter
    (fun jobs ->
      match
        Engine.campaign_entries ~jobs ~runs:4 ~seed:5 ~iterations:(-5)
          Catalog.sb
      with
      | Error _ -> Alcotest.fail "conversion should succeed"
      | Ok entries ->
        check Alcotest.int "all slots present" 4 (Array.length entries);
        Array.iteri
          (fun i entry ->
            match entry with
            | None -> Alcotest.failf "run %d missing" i
            | Some e -> (
              check Alcotest.int "entry index" i e.Engine.run_index;
              match e.Engine.outcome with
              | Ok _ -> Alcotest.failf "run %d should have crashed" i
              | Error crash ->
                check Alcotest.bool "crash message non-empty" true
                  (crash.Engine.message <> "")))
          entries)
    [ 1; 2 ]

let test_campaign_entries_skip () =
  let seeds = Engine.campaign_seeds ~runs:6 ~seed:42 in
  match
    Engine.campaign_entries ~jobs:2 ~runs:6 ~seed:42 ~iterations:200
      ~skip:(fun i -> i mod 2 = 0)
      Catalog.sb
  with
  | Error _ -> Alcotest.fail "conversion should succeed"
  | Ok entries ->
    Array.iteri
      (fun i entry ->
        match entry with
        | None ->
          if i mod 2 <> 0 then Alcotest.failf "run %d should have executed" i
        | Some e ->
          if i mod 2 = 0 then Alcotest.failf "run %d should be skipped" i;
          check Alcotest.int "skip does not perturb seeds" seeds.(i)
            e.Engine.run_seed)
      entries

let test_campaign_seeds_match_sequential_derivation () =
  let rng = Perple_util.Rng.create 7 in
  let expected =
    Array.init 5 (fun _ ->
        Int64.to_int (Perple_util.Rng.bits64 rng) land max_int)
  in
  check
    (Alcotest.array Alcotest.int)
    "campaign_seeds is the sequential loop's derivation" expected
    (Engine.campaign_seeds ~runs:5 ~seed:7)

let test_campaign_wrapper_raises_on_crash () =
  match Engine.campaign ~runs:2 ~seed:5 ~iterations:(-5) Catalog.sb with
  | exception Failure m ->
    check Alcotest.bool "failure names the crashed run" true
      (String.length m > 0)
  | Ok _ -> Alcotest.fail "crashed campaign should raise via the wrapper"
  | Error _ -> Alcotest.fail "conversion should succeed"

let test_campaign_invalid () =
  check Alcotest.bool "negative runs rejected" true
    (match
       Engine.campaign ~runs:(-1) ~seed:1 ~iterations:10 Catalog.sb
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let reports =
    Result.get_ok (Engine.campaign ~runs:0 ~seed:1 ~iterations:10 Catalog.sb)
  in
  check Alcotest.int "zero runs yields empty array" 0 (Array.length reports)

(* --- Byte-identity across --jobs (qcheck) ---------------------------------- *)

module Metrics = Perple_util.Metrics
module Json = Perple_util.Json
module Ledger = Perple_core.Ledger

(* The campaign's externally visible output — the stdout ledger lines and
   the metrics dump — rendered to strings, so the property below compares
   bytes, not structural fingerprints. *)
let campaign_output ~pool ~jobs ~faults ~runs ~seed ~iterations =
  let sink = Metrics.create_sink () in
  Metrics.install sink;
  Fun.protect ~finally:Metrics.uninstall (fun () ->
      let policy = Supervisor.default_policy ~iterations in
      let config =
        Perple_sim.Config.with_faults faults Perple_sim.Config.default
      in
      let entries =
        Result.get_ok
          (Engine.campaign_entries ~pool ~jobs ~config ~policy ~runs ~seed
             ~iterations Catalog.sb)
      in
      let buf = Buffer.create 512 in
      Array.iter
        (fun entry ->
          match entry with
          | None -> Buffer.add_string buf "<missing>\n"
          | Some e ->
            Buffer.add_string buf
              (Json.to_string (Ledger.to_json (Ledger.of_entry e)));
            Buffer.add_char buf '\n')
        entries;
      (Buffer.contents buf, Json.to_string (Metrics.to_json sink)))

(* One eight-wide persistent pool shared by every qcheck case: explicit
   pools are honoured at their created width, so the dispatch really is
   multi-domain even on a single-core CI host (where implicit pools clamp
   to [available_domains]). *)
let qcheck_campaign_identity =
  QCheck.Test.make ~name:"campaign ledger+metrics byte-identical across jobs"
    ~count:8
    (* [runs >= 8] keeps [jobs <= runs] for the whole sweep: a clamped
       width legitimately ticks the operational [*.jobs_clamped] counters,
       which record the flag itself and are outside the identity claim. *)
    QCheck.(
      triple (int_bound 100_000) (int_range 8 14)
        (oneofl [ 0.0; 0.12; 0.3 ]))
    (fun (seed, runs, crash_p) ->
      let faults =
        if crash_p = 0.0 then []
        else [ { Fault.kind = Fault.Crash; Fault.probability = crash_p } ]
      in
      let pool = Pool.create ~jobs:8 () in
      Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
          let baseline =
            campaign_output ~pool ~jobs:1 ~faults ~runs ~seed ~iterations:120
          in
          List.for_all
            (fun jobs ->
              campaign_output ~pool ~jobs ~faults ~runs ~seed ~iterations:120
              = baseline)
            [ 2; 3; 4; 8 ]))

(* Worker faults: whichever domain runs a failing task, the error must
   land in that task's own slot and every sibling must complete — the
   Ok/Error pattern and all payloads are independent of chunking. *)
let qcheck_error_slots_stable =
  QCheck.Test.make ~name:"map_result error slots independent of chunking"
    ~count:20
    QCheck.(pair (int_bound 1_000_000) (int_range 1 40))
    (fun (mask_seed, n) ->
      let fails i = (i * 2654435761) lxor mask_seed land 7 = 3 in
      let task i = if fails i then raise (Boom i) else i * 3 in
      let shape results =
        Array.to_list
          (Array.mapi
             (fun i r ->
               match r with
               | Ok v -> Printf.sprintf "%d:ok:%d" i v
               | Error e -> (
                 match e.Pool.exn with
                 | Boom b -> Printf.sprintf "%d:boom:%d" i b
                 | _ -> Printf.sprintf "%d:other" i))
             results)
      in
      let pool = Pool.create ~jobs:8 () in
      Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
          let baseline = shape (Pool.map_result ~jobs:1 n task) in
          List.for_all
            (fun jobs ->
              shape (Pool.map_result ~pool ~jobs n task) = baseline)
            [ 2; 3; 4; 8 ]))

let suite =
  [
    ( "core.pool",
      [
        Alcotest.test_case "map preserves order" `Quick test_map_identity;
        Alcotest.test_case "map empty" `Quick test_map_empty;
        Alcotest.test_case "map invalid args" `Quick test_map_invalid;
        Alcotest.test_case "map propagates exceptions" `Quick
          test_map_exception;
        Alcotest.test_case "available domains" `Quick test_available_domains;
        Alcotest.test_case "map_result isolates failures" `Quick
          test_map_result_isolates_failures;
        Alcotest.test_case "map re-raises lowest index" `Quick
          test_map_reraises_lowest_index;
        Alcotest.test_case "map_result around hook" `Quick
          test_map_result_around;
      ] );
    ( "core.campaign",
      [
        Alcotest.test_case "bit-identical across jobs" `Quick
          test_campaign_bit_identical;
        Alcotest.test_case "bit-identical under faults" `Quick
          test_campaign_bit_identical_under_faults;
        Alcotest.test_case "matches sequential runs" `Quick
          test_campaign_matches_sequential_runs;
        Alcotest.test_case "invalid arguments" `Quick test_campaign_invalid;
        Alcotest.test_case "crashes become classified entries" `Quick
          test_campaign_entries_classifies_crashes;
        Alcotest.test_case "skip preserves seeds" `Quick
          test_campaign_entries_skip;
        Alcotest.test_case "campaign_seeds derivation" `Quick
          test_campaign_seeds_match_sequential_derivation;
        Alcotest.test_case "compat wrapper raises on crash" `Quick
          test_campaign_wrapper_raises_on_crash;
        QCheck_alcotest.to_alcotest qcheck_campaign_identity;
        QCheck_alcotest.to_alcotest qcheck_error_slots_stable;
      ] );
  ]

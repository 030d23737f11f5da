(* Tests for the observability layer: the Trace_event/Metrics sinks in
   Perple_util, their no-op-when-disabled contract, the instrumentation
   threaded through Engine/Machine/Count/Pool, and the determinism
   contract — metrics output is bit-identical for any --jobs N. *)

module Json = Perple_util.Json
module Trace_event = Perple_util.Trace_event
module Metrics = Perple_util.Metrics
module Catalog = Perple_litmus.Catalog
module Engine = Perple_core.Engine
module Supervisor = Perple_harness.Supervisor
module Fault = Perple_sim.Fault

let check = Alcotest.check

(* Sinks are ambient process-global state: make sure a failing test cannot
   leak its sink into the next one. *)
let with_sinks f =
  let trace = Trace_event.create_sink () in
  let metrics = Metrics.create_sink () in
  Trace_event.install trace;
  Metrics.install metrics;
  Fun.protect
    ~finally:(fun () ->
      Trace_event.uninstall ();
      Metrics.uninstall ())
    (fun () -> f trace metrics)

(* --- Trace sink ----------------------------------------------------------- *)

let test_trace_disabled_noop () =
  check Alcotest.bool "disabled" false (Trace_event.enabled ());
  check (Alcotest.float 0.0) "now is the no-sink sentinel"
    Trace_event.no_sink (Trace_event.now ());
  (* None of these may raise or record anywhere. *)
  Trace_event.complete ~name:"x" ~since:0.0 ();
  Trace_event.instant ~name:"y" ();
  check Alcotest.int "span passes value through" 42
    (Trace_event.span "z" (fun () -> 42))

let test_trace_records_events () =
  with_sinks (fun trace _ ->
      let t0 = Trace_event.now () in
      Trace_event.complete ~name:"a" ~since:t0
        ~args:[ ("k", Trace_event.Int 7) ]
        ();
      Trace_event.instant ~name:"b" ();
      let v = Trace_event.span "c" (fun () -> "ok") in
      check Alcotest.string "span result" "ok" v;
      check Alcotest.int "three events" 3 (Trace_event.length trace);
      (* span records even when the body raises. *)
      (try Trace_event.span "boom" (fun () -> failwith "x") with _ -> ());
      check Alcotest.int "raised span recorded" 4 (Trace_event.length trace))

(* Regression: clock discipline.  [now] is never negative with a sink
   installed and never decreases; a span whose [since] was captured
   before the sink existed is dropped, not recorded against a bogus
   epoch; a [since] from the future clamps to a zero-duration span
   rather than a negative one. *)
let test_trace_clock_discipline () =
  (* Captured while disabled: the sentinel. *)
  let pre_install = Trace_event.now () in
  check Alcotest.bool "pre-install capture is negative" true
    (pre_install < 0.0);
  with_sinks (fun trace _ ->
      let a = Trace_event.now () in
      check Alcotest.bool "now >= 0 with sink" true (a >= 0.0);
      let b = Trace_event.now () in
      check Alcotest.bool "now never decreases" true (b >= a);
      Trace_event.complete ~name:"stale" ~since:pre_install ();
      check Alcotest.int "pre-install span dropped" 0
        (Trace_event.length trace);
      (* A future [since] (clock stepped back between capture and
         completion) yields dur = 0, not a negative duration. *)
      Trace_event.complete ~name:"stepped" ~since:(b +. 1e9) ();
      check Alcotest.int "stepped span recorded" 1 (Trace_event.length trace);
      match Json.member "traceEvents" (Trace_event.to_json trace) with
      | Some (Json.List [ ev ]) -> (
        match Json.member "dur" ev with
        | Some (Json.Float d) ->
          check Alcotest.bool "duration clamped at 0" true (d >= 0.0)
        | _ -> Alcotest.fail "dur missing")
      | _ -> Alcotest.fail "expected exactly one event")

let test_trace_json_shape () =
  let doc =
    with_sinks (fun trace _ ->
        Trace_event.span "outer" (fun () -> ());
        Trace_event.instant ~name:"mark" ();
        Trace_event.to_json trace)
  in
  (* Chrome trace-event format: top-level traceEvents array whose entries
     carry ph/name/ts/pid/tid. *)
  match Json.member "traceEvents" doc with
  | Some (Json.List events) ->
    check Alcotest.int "two events" 2 (List.length events);
    List.iter
      (fun ev ->
        List.iter
          (fun field ->
            if Json.member field ev = None then
              Alcotest.failf "event missing %s" field)
          [ "ph"; "name"; "ts"; "pid"; "tid" ])
      events;
    (* The document itself must survive a strict reparse. *)
    (match Json.parse (Json.to_string ~indent:true doc) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "trace document invalid: %s" e)
  | _ -> Alcotest.fail "traceEvents missing"

(* --- Metrics sink --------------------------------------------------------- *)

let test_metrics_disabled_noop () =
  check Alcotest.bool "disabled" false (Metrics.enabled ());
  Metrics.incr "nope";
  Metrics.record ~value:3 "nope.hist";
  check Alcotest.bool "still disabled" false (Metrics.enabled ())

let test_metrics_counters_and_histograms () =
  with_sinks (fun _ metrics ->
      Metrics.incr "a";
      Metrics.incr ~by:4 "a";
      Metrics.add metrics "b" 2;
      Metrics.observe metrics "h" 1;
      Metrics.observe metrics "h" 1;
      Metrics.observe metrics "h" 3;
      check Alcotest.int "counter a" 5 (Metrics.counter metrics "a");
      check Alcotest.int "counter b" 2 (Metrics.counter metrics "b");
      check Alcotest.int "untouched counter" 0 (Metrics.counter metrics "zz");
      let doc = Metrics.to_json metrics in
      match Json.member "histograms" doc with
      | Some hs -> (
        match Json.member "h" hs with
        | Some h ->
          check (Alcotest.option Alcotest.bool) "count 3" (Some true)
            (Option.map (( = ) (Json.Int 3)) (Json.member "count" h));
          check (Alcotest.option Alcotest.bool) "sum 5" (Some true)
            (Option.map (( = ) (Json.Int 5)) (Json.member "sum" h))
        | None -> Alcotest.fail "histogram h missing")
      | None -> Alcotest.fail "histograms missing")

(* --- Pipeline instrumentation -------------------------------------------- *)

let campaign_metrics ~jobs =
  with_sinks (fun _ metrics ->
      (match
         Engine.campaign ~jobs ~runs:6 ~seed:42 ~iterations:300 Catalog.sb
       with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "campaign should run");
      Json.to_string ~indent:true (Metrics.to_json metrics))

let test_campaign_counters_populated () =
  let doc =
    match Json.parse (campaign_metrics ~jobs:1) with
    | Ok d -> d
    | Error e -> Alcotest.failf "metrics invalid: %s" e
  in
  let counter name =
    match Option.bind (Json.member "counters" doc) (Json.member name) with
    | Some (Json.Int n) -> n
    | _ -> 0
  in
  check Alcotest.int "campaigns" 1 (counter "engine.campaigns");
  check Alcotest.int "runs" 6 (counter "engine.runs");
  check Alcotest.int "pool tasks" 6 (counter "pool.tasks");
  check Alcotest.int "machine runs" 6 (counter "machine.runs");
  check Alcotest.bool "rounds accumulated" true
    (counter "machine.rounds" > 0);
  check Alcotest.bool "count kernel ran" true
    (counter "count.evaluations" > 0)

let test_metrics_deterministic_across_jobs () =
  (* The tentpole's determinism contract: the metrics dump is a function
     of the seeded computation alone, byte-identical for any --jobs N. *)
  let a = campaign_metrics ~jobs:1 in
  let b = campaign_metrics ~jobs:4 in
  let c = campaign_metrics ~jobs:1 in
  check Alcotest.string "jobs 1 = jobs 4 (bytes)" a b;
  check Alcotest.string "repeatable" a c

let test_results_identical_with_tracing () =
  (* Observability must be observation-only: reports with sinks installed
     equal reports without. *)
  let go () =
    match Engine.campaign ~jobs:2 ~runs:4 ~seed:7 ~iterations:200 Catalog.sb with
    | Ok reports -> Array.map (fun r -> (r.Engine.counts, r.Engine.virtual_runtime)) reports
    | Error _ -> Alcotest.fail "campaign should run"
  in
  let bare = go () in
  let traced = with_sinks (fun _ _ -> go ()) in
  check Alcotest.bool "identical reports" true (bare = traced)

let test_supervisor_attempt_counters () =
  with_sinks (fun _ metrics ->
      let policy = Supervisor.default_policy ~iterations:1 in
      (match
         Engine.run
           ~config:
             (Perple_sim.Config.with_faults
                [ { Fault.kind = Fault.Crash; probability = 1.0 } ]
                Perple_sim.Config.default)
           ~policy ~seed:5 ~iterations:1 Catalog.sb
       with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "sb should run");
      (* Crash-at-0 burns the initial attempt plus every retry. *)
      check Alcotest.int "attempts" 4
        (Metrics.counter metrics "supervisor.attempts");
      check Alcotest.int "all crashed" 4
        (Metrics.counter metrics "supervisor.attempts.crashed");
      check Alcotest.int "retries" 3
        (Metrics.counter metrics "supervisor.retries"))

let suite =
  [
    ( "util.observe",
      [
        Alcotest.test_case "trace disabled is no-op" `Quick
          test_trace_disabled_noop;
        Alcotest.test_case "trace records events" `Quick
          test_trace_records_events;
        Alcotest.test_case "trace clock discipline" `Quick
          test_trace_clock_discipline;
        Alcotest.test_case "trace json shape" `Quick test_trace_json_shape;
        Alcotest.test_case "metrics disabled is no-op" `Quick
          test_metrics_disabled_noop;
        Alcotest.test_case "metrics counters and histograms" `Quick
          test_metrics_counters_and_histograms;
      ] );
    ( "core.observe",
      [
        Alcotest.test_case "campaign counters populated" `Quick
          test_campaign_counters_populated;
        Alcotest.test_case "metrics deterministic across jobs" `Quick
          test_metrics_deterministic_across_jobs;
        Alcotest.test_case "results identical with tracing" `Quick
          test_results_identical_with_tracing;
        Alcotest.test_case "supervisor attempt counters" `Quick
          test_supervisor_attempt_counters;
      ] );
  ]

(* Tests for Perple_harness.Supervisor: outcome classification, retry with
   backoff, checkpoint salvage, ledger determinism (including independence
   from the Stdlib.Random global state), and the supervised Engine path. *)

module Catalog = Perple_litmus.Catalog
module Config = Perple_sim.Config
module Fault = Perple_sim.Fault
module Machine = Perple_sim.Machine
module Rng = Perple_util.Rng
module Perpetual = Perple_harness.Perpetual
module Litmus7 = Perple_harness.Litmus7
module Supervisor = Perple_harness.Supervisor
module Sync_mode = Perple_harness.Sync_mode
module Convert = Perple_core.Convert
module Engine = Perple_core.Engine

let check = Alcotest.check

let fault kind probability = { Fault.kind; probability }

let faulty profile = Config.with_faults profile Config.default

let sb_conversion =
  match Convert.convert_body Catalog.sb with
  | Ok c -> c
  | Error _ -> failwith "sb should convert"

let supervise ?(config = Config.default) ?policy ~seed ~iterations () =
  let policy =
    match policy with
    | Some p -> p
    | None -> Supervisor.default_policy ~iterations
  in
  Supervisor.run_perpetual ~config ~policy ~rng:(Rng.create seed)
    ~image:sb_conversion.Convert.image ~t_reads:sb_conversion.Convert.t_reads
    ~iterations ()

let test_fault_free_is_ok () =
  let sup = supervise ~seed:1 ~iterations:500 () in
  check Alcotest.bool "outcome ok" true (sup.Supervisor.outcome = Supervisor.Ok);
  check Alcotest.int "one attempt" 1 (List.length sup.Supervisor.attempts);
  check Alcotest.int "all iterations salvaged" 500
    sup.Supervisor.salvaged_iterations;
  check Alcotest.bool "not degraded" false sup.Supervisor.degraded;
  match sup.Supervisor.run with
  | None -> Alcotest.fail "run expected"
  | Some run -> check Alcotest.int "run length" 500 run.Perpetual.iterations

let test_hang_salvaged_as_truncated () =
  let iterations = 2_000 in
  let sup =
    supervise ~config:(faulty [ fault Fault.Hang 1.0 ]) ~seed:3 ~iterations ()
  in
  check Alcotest.bool "truncated" true
    (sup.Supervisor.outcome = Supervisor.Truncated);
  check Alcotest.bool "something salvaged" true
    (sup.Supervisor.salvaged_iterations > 0);
  check Alcotest.bool "short of the request" true
    (sup.Supervisor.salvaged_iterations < iterations);
  check Alcotest.bool "degraded" true sup.Supervisor.degraded;
  check Alcotest.bool "attempts bounded" true
    (List.length sup.Supervisor.attempts <= 4);
  match sup.Supervisor.run with
  | None -> Alcotest.fail "salvaged run expected"
  | Some run ->
    let salvaged = sup.Supervisor.salvaged_iterations in
    check Alcotest.int "run truncated" salvaged run.Perpetual.iterations;
    Array.iteri
      (fun t buf ->
        check Alcotest.int
          (Printf.sprintf "buf %d sized to salvage" t)
          (run.Perpetual.t_reads.(t) * salvaged)
          (Array.length buf))
      run.Perpetual.bufs

let test_unsalvageable_crash () =
  (* With a single requested iteration, a certain crash arms at onset 0 on
     every thread of every attempt: nothing ever retires, every retry is
     burned, and the supervisor reports Crashed with no run. *)
  let sup =
    supervise ~config:(faulty [ fault Fault.Crash 1.0 ]) ~seed:5 ~iterations:1
      ()
  in
  check Alcotest.bool "crashed" true
    (sup.Supervisor.outcome = Supervisor.Crashed);
  check Alcotest.bool "no run" true (sup.Supervisor.run = None);
  check Alcotest.int "nothing salvaged" 0 sup.Supervisor.salvaged_iterations;
  check Alcotest.bool "degraded" true sup.Supervisor.degraded;
  check Alcotest.int "initial attempt + max retries" 4
    (List.length sup.Supervisor.attempts);
  List.iter
    (fun (a : Supervisor.attempt) ->
      check Alcotest.bool "each attempt crashed" true
        (a.Supervisor.outcome = Supervisor.Crashed))
    sup.Supervisor.attempts

let test_backoff_shrinks_budgets () =
  let policy =
    {
      (Supervisor.default_policy ~iterations:1_000) with
      Supervisor.min_retired = 1_000;
      (* unreachable under hang@1.0: forces retries *)
      max_retries = 2;
      backoff = 0.5;
    }
  in
  let sup =
    supervise
      ~config:(faulty [ fault Fault.Hang 1.0 ])
      ~policy ~seed:7 ~iterations:1_000 ()
  in
  check
    (Alcotest.list Alcotest.int)
    "budgets halve" [ 1_000; 500; 250 ]
    (List.map (fun a -> a.Supervisor.requested) sup.Supervisor.attempts)

let test_backoff_growth_not_truncated () =
  (* Regression: [backed_off] used [int_of_float] directly, so a growth
     factor applied to a small budget truncated back to the same budget
     (1 * 1.5 -> 1) and the sequence pinned forever.  Ceiling rounding
     makes every growth step strictly increase the budget. *)
  let policy =
    { (Supervisor.default_policy ~iterations:1) with Supervisor.backoff = 1.5 }
  in
  let rec sequence policy budget n =
    if n = 0 then []
    else budget :: sequence policy (Supervisor.backed_off policy budget) (n - 1)
  in
  check
    (Alcotest.list Alcotest.int)
    "budget 1 grows under backoff 1.5" [ 1; 2; 3; 5; 8 ] (sequence policy 1 5);
  (* Shrinking factors keep their exact halving sequence... *)
  let halving = { policy with Supervisor.backoff = 0.5 } in
  check
    (Alcotest.list Alcotest.int)
    "exact halves unchanged" [ 1000; 500; 250 ] (sequence halving 1000 3);
  (* ...but never collapse below one iteration. *)
  check Alcotest.int "floor of one" 1 (Supervisor.backed_off halving 1);
  (* Overflow-safe: a huge factor clamps instead of wrapping negative. *)
  let explosive = { policy with Supervisor.backoff = 1e18 } in
  check Alcotest.bool "clamped, not wrapped" true
    (Supervisor.backed_off explosive max_int > 0)

let test_ledger_deterministic () =
  let campaign () =
    supervise
      ~config:(faulty [ fault Fault.Hang 0.5; fault Fault.Store_loss 0.01 ])
      ~seed:11 ~iterations:1_500 ()
  in
  let a = campaign () in
  (* Perturb the Stdlib.Random global state between runs: supervision must
     draw only from its own Rng. *)
  Random.init 12345;
  ignore (Random.bits ());
  let b = campaign () in
  Random.init 999;
  let c = campaign () in
  check Alcotest.bool "identical ledgers (a=b)" true (a = b);
  check Alcotest.bool "identical ledgers (a=c)" true (a = c)

let test_acceptance_campaign () =
  (* ISSUE acceptance: 20 supervised runs under hang@0.05 complete with no
     uncaught exception, bounded retries, and a coherent degraded flag. *)
  let iterations = 2_000 in
  let campaign_rng = Rng.create 42 in
  for _run = 1 to 20 do
    let seed = Int64.to_int (Rng.bits64 campaign_rng) land max_int in
    let sup =
      supervise
        ~config:(faulty [ fault Fault.Hang 0.05 ])
        ~seed ~iterations ()
    in
    check Alcotest.bool "attempts bounded by retries" true
      (List.length sup.Supervisor.attempts <= 4);
    check Alcotest.bool "degraded iff short" true
      (sup.Supervisor.degraded
      = (sup.Supervisor.salvaged_iterations < iterations));
    match sup.Supervisor.run with
    | Some run ->
      check Alcotest.int "salvage matches run" run.Perpetual.iterations
        sup.Supervisor.salvaged_iterations
    | None ->
      check Alcotest.int "no run, no salvage" 0
        sup.Supervisor.salvaged_iterations
  done

let test_litmus7_supervised () =
  let iterations = 1_000 in
  let policy = Supervisor.default_policy ~iterations in
  let sup =
    Supervisor.run_litmus7
      ~config:(faulty [ fault Fault.Hang 1.0 ])
      ~policy ~rng:(Rng.create 13) ~test:Catalog.sb ~mode:Sync_mode.User
      ~iterations ()
  in
  check Alcotest.bool "truncated" true
    (sup.Supervisor.l7_outcome = Supervisor.Truncated);
  match sup.Supervisor.l7_result with
  | None -> Alcotest.fail "salvaged result expected"
  | Some result ->
    check Alcotest.bool "retired short of request" true
      (result.Litmus7.retired < iterations);
    let tally =
      List.fold_left (fun acc (_, n) -> acc + n) 0 result.Litmus7.histogram
    in
    check Alcotest.int "histogram covers retired prefix" result.Litmus7.retired
      tally

(* --- Engine integration --------------------------------------------------- *)

let engine_run ?(faults = Fault.none) ?policy ~iterations () =
  let config = Config.with_faults faults Config.default in
  match Engine.run ~config ?policy ~seed:21 ~iterations Catalog.sb with
  | Ok report -> report
  | Error _ -> failwith "sb should run"

let test_engine_supervised_hang () =
  let iterations = 2_000 in
  let policy = Supervisor.default_policy ~iterations in
  let report =
    engine_run ~faults:[ fault Fault.Hang 1.0 ] ~policy ~iterations ()
  in
  check Alcotest.bool "degraded" true report.Engine.degraded;
  check Alcotest.int "requested surfaced" iterations
    report.Engine.requested_iterations;
  check Alcotest.bool "salvaged prefix counted" true
    (report.Engine.salvaged_iterations > 0
    && report.Engine.salvaged_iterations < iterations);
  check Alcotest.int "run matches salvage" report.Engine.salvaged_iterations
    report.Engine.run.Perpetual.iterations;
  (match report.Engine.supervision with
  | None -> Alcotest.fail "supervision ledger expected"
  | Some sup ->
    check Alcotest.bool "ledger truncated" true
      (sup.Supervisor.outcome = Supervisor.Truncated);
    check Alcotest.bool "runtime covers all attempts" true
      (report.Engine.virtual_runtime >= sup.Supervisor.total_rounds));
  check Alcotest.bool "counts are sane" true
    (Array.for_all
       (fun c -> c >= 0 && c <= report.Engine.salvaged_iterations)
       report.Engine.counts)

let test_engine_supervised_total_loss () =
  (* Crash-at-0 on every attempt: the engine must still return a report —
     zero counts over an empty run — rather than raising. *)
  let policy = Supervisor.default_policy ~iterations:1 in
  let report =
    engine_run ~faults:[ fault Fault.Crash 1.0 ] ~policy ~iterations:1 ()
  in
  check Alcotest.bool "degraded" true report.Engine.degraded;
  check Alcotest.int "nothing salvaged" 0 report.Engine.salvaged_iterations;
  check Alcotest.int "zero frames" 0 report.Engine.frames_examined;
  check Alcotest.bool "zero counts" true
    (Array.for_all (fun c -> c = 0) report.Engine.counts);
  check Alcotest.bool "rounds still charged" true
    (report.Engine.virtual_runtime > 0)

let test_engine_unsupervised_crash_salvage () =
  (* Without a policy there is no retry, but the completed prefix of a
     crash-truncated run is still salvaged and counted. *)
  let iterations = 1_000 in
  let report =
    engine_run ~faults:[ fault Fault.Crash 1.0 ] ~iterations ()
  in
  check Alcotest.bool "no ledger" true (report.Engine.supervision = None);
  check Alcotest.bool "degraded" true report.Engine.degraded;
  check Alcotest.bool "partial salvage" true
    (report.Engine.salvaged_iterations > 0
    && report.Engine.salvaged_iterations < iterations);
  check Alcotest.int "run truncated to salvage"
    report.Engine.salvaged_iterations report.Engine.run.Perpetual.iterations

let test_engine_fault_free_untouched () =
  let report = engine_run ~faults:[] ~iterations:800 () in
  check Alcotest.bool "not degraded" false report.Engine.degraded;
  check Alcotest.int "requested = delivered" 800
    report.Engine.requested_iterations;
  check Alcotest.int "salvage = request" 800 report.Engine.salvaged_iterations;
  let baseline =
    match Engine.run ~seed:21 ~iterations:800 Catalog.sb with
    | Ok r -> r
    | Error _ -> failwith "sb should run"
  in
  check
    (Alcotest.array Alcotest.int)
    "explicit empty profile changes nothing" baseline.Engine.counts
    report.Engine.counts

let suite =
  [
    ( "harness.supervisor",
      [
        Alcotest.test_case "fault-free run is ok" `Quick test_fault_free_is_ok;
        Alcotest.test_case "hang salvaged as truncated" `Quick
          test_hang_salvaged_as_truncated;
        Alcotest.test_case "unsalvageable crash" `Quick
          test_unsalvageable_crash;
        Alcotest.test_case "backoff shrinks budgets" `Quick
          test_backoff_shrinks_budgets;
        Alcotest.test_case "backoff growth not truncated" `Quick
          test_backoff_growth_not_truncated;
        Alcotest.test_case "deterministic ledger" `Quick
          test_ledger_deterministic;
        Alcotest.test_case "acceptance campaign" `Quick
          test_acceptance_campaign;
        Alcotest.test_case "litmus7 supervision" `Quick test_litmus7_supervised;
      ] );
    ( "core.engine.supervised",
      [
        Alcotest.test_case "supervised hang" `Quick test_engine_supervised_hang;
        Alcotest.test_case "total loss" `Quick
          test_engine_supervised_total_loss;
        Alcotest.test_case "unsupervised crash salvage" `Quick
          test_engine_unsupervised_crash_salvage;
        Alcotest.test_case "fault-free untouched" `Quick
          test_engine_fault_free_untouched;
      ] );
  ]
